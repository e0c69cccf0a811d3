# Runs `delta_fuzz --metrics-out <OUT>` with a .txt path and fails unless the
# file holds Prometheus text: every front end picks the metrics format from
# the file suffix (.prom/.txt = Prometheus text, anything else = JSON).
#
#   cmake -DFUZZ=<delta_fuzz> -DOUT=<dir>/metrics.txt -P check_metrics_prom.cmake
execute_process(
  COMMAND ${FUZZ} --seeds 1 --no-determinism --intra-jobs 2 --metrics-out ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "delta_fuzz exited ${rc}")
endif()
file(READ ${OUT} text)
string(FIND "${text}" "# TYPE delta_intra_engine_epochs_total counter" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${OUT} is not Prometheus text:\n${text}")
endif()
