# Reproduction harnesses: one binary per paper table/figure plus
# google-benchmark microbenches.  See DESIGN.md Sec. 4 for the experiment
# index.  All binaries land in ${CMAKE_BINARY_DIR}/bench.

function(delta_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    delta_sim delta_core delta_alloc delta_workload delta_umon delta_noc
    delta_mem delta_obs delta_common)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

delta_bench(fig05_mixes16)
delta_bench(fig06_fairness16)
delta_bench(fig07_w2_apps16)
delta_bench(fig08_w3_apps16)
delta_bench(fig09_mixes64)
delta_bench(fig10_w2_apps64)
delta_bench(fig11_w13_apps64)
delta_bench(fig12_splash2)
delta_bench(fig13_reconfig_freq)
delta_bench(table5_sharing)
delta_bench(table6_overheads)
delta_bench(msg_overheads)
delta_bench(ablation_params)
delta_bench(ablation_cbt_bits)
delta_bench(ext_mt_integrated)
delta_bench(ext_underutilized)
delta_bench(ext_irregular)
delta_bench(shootout)
delta_bench(micro_overhead)
delta_bench(micro_throughput)

# micro_components provides its own main (ProfScope wrapping, so
# --prof-out/--metrics-out work uniformly) — benchmark::benchmark only,
# no benchmark_main.
add_executable(micro_components ${CMAKE_SOURCE_DIR}/bench/micro_components.cpp)
target_link_libraries(micro_components PRIVATE
  delta_sim delta_core delta_alloc delta_workload delta_umon delta_noc
  delta_mem delta_obs delta_common benchmark::benchmark)
target_include_directories(micro_components PRIVATE ${CMAKE_SOURCE_DIR}/bench)
set_target_properties(micro_components PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
