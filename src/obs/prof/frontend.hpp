// The one front end for how a program reports on itself.  delta_sim,
// delta_fuzz and every bench harness share the profiling flags
//
//   --prof-level off|phases|full   collection level (default: implied)
//   --prof-out F                   Chrome trace of the engine's phase spans
//   --metrics-out F                metrics dump; .prom/.txt = Prometheus
//                                  text, any other name = JSON
//
// and read them through ProfSession, so the level rules, the output formats
// and the exit codes are the same everywhere (docs/observability.md).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/args.hpp"
#include "obs/observer.hpp"
#include "obs/prof/prof.hpp"

namespace delta::obs::prof {

/// An explicit --prof-level wins (anything but off|phases|full prints a
/// message and exits 2); otherwise --prof-out implies full, --metrics-out
/// implies phases, and neither means off.  An empty --prof-out or
/// --metrics-out value also exits 2.
ProfLevel resolve_prof_level(const ArgParser& args);

/// True when a --metrics-out path asks for Prometheus text (.prom or .txt).
bool is_prometheus_path(std::string_view path);

/// delta_sim's observer level, or nullopt when no output needs an observer.
/// An explicit --obs-level wins (a bad value exits 2); otherwise the
/// requested outputs imply the cheapest level that feeds them.  --prof-out
/// implies full, because its trace carries the policy events too.
std::optional<ObsLevel> resolve_obs_level(const ArgParser& args);

/// Makes SIGABRT flush every stdio stream before the process dies, so
/// buffered reports survive an abort mid-run; the signal then re-raises with
/// its default action.  Idempotent.
void install_abort_flush();

/// Writes `content` to `path`; on failure prints the reason and returns
/// false.
bool write_or_complain(const std::string& path, std::string_view content);

class ProfSession {
 public:
  /// Resolves the level, pins the profiler clock before any worker thread
  /// exists, arms the level and installs the abort flush.
  explicit ProfSession(const ArgParser& args);

  /// Writes the requested --prof-out trace (merged with `observer`'s policy
  /// events when given) and --metrics-out dump.  True when every write
  /// succeeded, including when nothing was requested.
  bool write_outputs(const Observer* observer = nullptr) const;

 private:
  std::string prof_out_;     ///< Empty when not requested.
  std::string metrics_out_;  ///< Empty when not requested.
};

}  // namespace delta::obs::prof
