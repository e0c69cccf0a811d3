// Shared plumbing for the figure/table reproduction harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "obs/prof/frontend.hpp"
#include "sim/runner.hpp"

namespace delta::bench {

/// Self-profiling plumbing shared by every bench main: construct one at the
/// top of main(argc, argv) and the harness grows --prof-out / --metrics-out
/// / --prof-level through the shared front end (obs/prof/frontend.hpp).
/// The destructor writes the requested outputs after the harness finishes.
class ProfScope {
 public:
  ProfScope(int argc, char** argv) : session_(ArgParser(argc, argv)) {}
  ~ProfScope() { session_.write_outputs(); }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  obs::prof::ProfSession session_;
};

/// Parses `--jobs N` (or `--jobs=N`) from a bench's argv.  0 means "use
/// every hardware thread" — also the default when the flag is absent, so
/// the harnesses parallelise out of the box; `--jobs 1` recovers the
/// serial run (whose output is byte-identical by construction).
///
/// Precedence: explicit flag > DELTA_JOBS environment variable > fallback.
/// The env override is the one shared knob CI (and anyone scripting every
/// fig*/table* harness at once) uses to pin the thread count without
/// editing each invocation.
///
/// Either source must hold an integer in [0, 1024]; anything else (`abc`,
/// `-1`, a missing value) prints a message and exits with code 2.
inline unsigned parse_jobs(int argc, char** argv, unsigned fallback = 0) {
  const auto checked = [](const char* source, const char* text) {
    return static_cast<unsigned>(int_in_or_exit(source, text, 0, 1024));
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--jobs") == 0)
      return checked("--jobs", i + 1 < argc ? argv[i + 1] : "");
    if (std::strncmp(a, "--jobs=", 7) == 0) return checked("--jobs", a + 7);
  }
  if (const char* env = std::getenv("DELTA_JOBS"); env != nullptr && *env != '\0')
    return checked("DELTA_JOBS", env);
  return fallback;
}

/// Index-ordered parallel map: `out[i] = fn(i)` for i in [0, n), fanned
/// over `jobs` threads with results in pre-sized slots.  For bench loops
/// whose per-item work is not a full mix run (splash estimates, knob
/// sweeps with bespoke result structs).
template <typename Fn>
auto parallel_map(std::size_t n, unsigned jobs, Fn&& fn) {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = fn(i); }, jobs);
  return out;
}

/// Mix names of Table IV in order.
inline std::vector<std::string> all_mix_names() {
  std::vector<std::string> names;
  for (const auto& m : workload::table4_mixes()) names.push_back(m.name);
  return names;
}

/// The irregular-access mixes (wi1..wi3) — kept separate from
/// all_mix_names() so the paper-figure benches stay on the Table IV set;
/// the shootout and ext_irregular run them in addition.
inline std::vector<std::string> irregular_mix_names() {
  std::vector<std::string> names;
  for (const auto& m : workload::irregular_mixes()) names.push_back(m.name);
  return names;
}

/// Sweep variant: all four schemes on every named mix, fanned over `jobs`
/// threads (0 == hardware concurrency).  Results come back in mix order
/// and are byte-identical to looping run_comparison serially.
inline std::vector<sim::SchemeComparison> run_comparisons(
    const sim::MachineConfig& cfg, const std::vector<std::string>& mix_names,
    unsigned jobs = 0) {
  std::vector<workload::Mix> mixes;
  mixes.reserve(mix_names.size());
  for (const std::string& name : mix_names)
    mixes.push_back(sim::mix_for_config(cfg, name));
  return sim::compare_schemes_sweep(cfg, mixes, jobs);
}

/// Runs all four schemes on `mix_name` at the given machine size, the four
/// runs fanned over `jobs` threads (default: one per scheme).
inline sim::SchemeComparison run_comparison(const sim::MachineConfig& cfg,
                                            const std::string& mix_name,
                                            unsigned jobs = 0) {
  return run_comparisons(cfg, {mix_name}, jobs).front();
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

/// Geomean-of-speedups summary line across mixes.
inline void print_speedup_summary(const std::string& label,
                                  const std::vector<double>& speedups) {
  std::vector<double> v = speedups;
  double max = 0.0;
  for (double s : v) max = std::max(max, s);
  std::printf("%-16s geomean %+.1f%%  max %+.1f%%\n", label.c_str(),
              (geomean(v) - 1.0) * 100.0, (max - 1.0) * 100.0);
}

}  // namespace delta::bench
