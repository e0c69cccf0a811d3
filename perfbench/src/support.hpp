// Shared plumbing of the benchmark: host clocks, order statistics, result
// digests, the correctness ledger and the metric list a run prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/mt_sim.hpp"

namespace perfbench {

// ---- Host clocks and resources. ----

/// Steady-clock nanoseconds since an arbitrary fixed origin.
std::uint64_t now_ns();
/// Seconds of steady clock; differences are wall time.
double wall_now();
/// User + system CPU seconds of the whole process (all threads).
double cpu_now();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Wall and CPU time of one timed region.
struct Stopwatch {
  double wall0 = wall_now();
  double cpu0 = cpu_now();
  double wall() const { return wall_now() - wall0; }
  double cpu() const { return cpu_now() - cpu0; }
};

// ---- Order statistics. ----

double median(std::vector<double> v);
/// Nearest-rank percentile, `q` in [0, 100].
double percentile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);
/// Makespan of longest-processing-time-first list scheduling of `jobs`
/// onto `threads` identical workers.
double lpt_makespan(std::vector<double> jobs, unsigned threads);

// ---- Result digests. ----

/// 64-bit FNV-1a over a canonical encoding of every field of the result
/// (doubles by bit pattern), as 16 hex digits.  Equal digests mean
/// byte-identical results.
std::string digest(const delta::sim::MixResult& r);
std::string digest(const delta::sim::MtResult& r);

// ---- Correctness. ----

/// Recorded serial-result digests, one line per job: `<seed> <job> <hex>`.
/// Returns the entries for `seed` (empty when the seed was never recorded).
std::map<std::string, std::string> load_expected(const std::string& path,
                                                 std::uint64_t seed);

/// Counts simulations checked and those whose digest disagreed with a
/// reference.  Every simulation result is one attempted operation.
class Ledger {
 public:
  explicit Ledger(std::map<std::string, std::string> expected)
      : expected_(std::move(expected)) {}

  /// Checks one result of `job`: against `reference` (a result of the same
  /// job computed earlier in this invocation; empty = none) and against the
  /// recorded digest of `job`, when the seed has one.  A mismatch with
  /// either counts the operation as failed.
  void check(const std::string& job, const std::string& got,
             const std::string& reference = {});

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t recorded_checks() const { return recorded_checks_; }

 private:
  std::map<std::string, std::string> expected_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t recorded_checks_ = 0;
};

// ---- Output. ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Formats a double with all its significant digits.
std::string json_number(double v);
std::string json_string(const std::string& s);
/// `{"name": {"value": v, "unit": "u"}, ...}`.
std::string metrics_json(const std::vector<Metric>& metrics);

/// Host, build and run facts attached to every result.  The source revision
/// is added by perfbench/run.py, which hashes the source tree.
struct Provenance {
  unsigned hardware_threads = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string simd_backend;
  std::uint64_t seed = 0;
  std::map<std::string, unsigned> threads;  ///< Per-workload thread counts.
};
Provenance collect_provenance(std::uint64_t seed);
std::string provenance_json(const Provenance& p);

}  // namespace perfbench
