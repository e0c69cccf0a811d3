// Deterministic seeded fuzz harness (driven by tools/delta_fuzz.cpp and
// the tier-2 `check` tests).
//
// One 64-bit seed fully determines a fuzz case: the app mix (random SPEC
// profiles with a chance of idle cores), the machine/DELTA parameter draw,
// and the workload seed.  The case then runs under every scheme with the
// InvariantChecker attached and the differential oracle across the four
// results.  Because everything downstream of the seed is deterministic —
// Xoshiro/SplitMix RNG, json_num formatting — the per-case JSON summary is
// byte-identical across repeat runs and across worker-thread counts, which
// verify_determinism() exploits as an end-to-end reproducibility test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"

namespace delta::check {

struct FuzzOptions {
  /// Case i uses seed base_seed + i (so a failure report names a seed that
  /// reproduces standalone via run_fuzz_case).
  std::uint64_t base_seed = 0xF0552;
  int cases = 25;
  /// Worker threads for the batch (1 = serial); each case is independent.
  unsigned threads = 1;
  /// MachineConfig::intra_jobs forwarded to every drawn config: worker
  /// threads *inside* each simulation (1 = serial epoch loop).  Results
  /// are byte-identical at any value, so the determinism check doubles as
  /// an end-to-end test of the intra-run engine when this is > 1.
  int intra_jobs = 1;
  /// Pin access budgets to the nominal CPI so the differential oracle can
  /// assert cross-scheme access-count equality.
  bool lockstep = true;
  bool check_invariants = true;
  bool differential = true;
  /// Residency-sweep cadence forwarded to CheckerOptions (the sweep is
  /// O(LLC capacity), so fuzz runs default to a coarser interval).
  int sweep_interval = 4;
};

struct FuzzCaseResult {
  std::uint64_t seed = 0;
  bool ok = true;
  /// Invariant + differential violations; detail is prefixed with the
  /// scheme the run belonged to.
  std::vector<Violation> violations;
  /// Deterministic json_summary of the four scheme runs.
  std::string json;
  /// Space-separated app list, for reproducing the drawn mix by eye.
  std::string mix_desc;
};

struct FuzzReport {
  std::vector<FuzzCaseResult> cases;
  int failures = 0;
  bool ok() const { return failures == 0; }
};

/// Runs one fully seeded case: draw config + mix, run all four schemes
/// with invariants on, cross-check, summarise.
FuzzCaseResult run_fuzz_case(std::uint64_t seed, const FuzzOptions& opt);

/// Runs opt.cases cases (seeds base_seed..base_seed+cases-1) over
/// opt.threads workers.  Case order in the report is by seed regardless of
/// completion order.
FuzzReport run_fuzz(const FuzzOptions& opt);

struct DeterminismReport {
  bool ok = true;
  std::uint64_t seed = 0;    ///< First mismatching seed when !ok.
  std::string detail;
};

/// Runs the batch twice — with threads_a and threads_b workers — and
/// requires every case's JSON summary to be byte-identical.  Catches both
/// run-to-run nondeterminism and cross-thread-count divergence (shared
/// mutable state, iteration-order leaks).
DeterminismReport verify_determinism(const FuzzOptions& opt, unsigned threads_a,
                                     unsigned threads_b);

}  // namespace delta::check
