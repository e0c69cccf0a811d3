// High-level experiment drivers: run a Table IV mix under one scheme or
// under all four, on the 16- or 64-core machine.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/chip.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/scheme.hpp"
#include "workload/mixes.hpp"

namespace delta::sim {

/// Runs `mix` (its app list must match cfg.cores) under `kind`.  A non-null
/// `obs` collects the run's event trace / epoch timeline (a new observer
/// run named after the scheme is begun first).  A non-null `checker` is
/// attached to the chip and invoked at every epoch boundary.
MixResult run_mix(const MachineConfig& cfg, const workload::Mix& mix, SchemeKind kind,
                  SchemeOptions opts = {}, obs::Observer* obs = nullptr,
                  EpochChecker* checker = nullptr);

/// All four schemes on the same mix with identical workload streams; with
/// an observer the runs land in one trace as four named runs.
struct SchemeComparison {
  MixResult snuca;
  MixResult private_llc;
  MixResult ideal;
  MixResult delta;
};
SchemeComparison compare_schemes(const MachineConfig& cfg, const workload::Mix& mix,
                                 obs::Observer* obs = nullptr,
                                 EpochChecker* checker = nullptr);

/// Resolves a 16-core Table IV mix to the machine size (replicating 4x for
/// 64 cores per Sec. III-B).
workload::Mix mix_for_config(const MachineConfig& cfg, const std::string& mix_name);

// ---------------------------------------------------------------------------
// Parallel experiment sweeps.
// ---------------------------------------------------------------------------

/// One independent simulation of a sweep: everything Chip construction
/// needs, held by value so jobs share no mutable state.  Observers and
/// epoch checkers are deliberately absent — they are cross-run mutable
/// sinks; observed runs use run_sweep_observed (one observer per job),
/// checkered runs go through run_mix on one thread.
struct SweepJob {
  MachineConfig cfg;
  workload::Mix mix;
  SchemeKind kind = SchemeKind::kSnuca;
  SchemeOptions opts;
};

/// Runs every job on its own Chip, fanned over `threads` worker threads
/// (0 == hardware concurrency, 1 == serial on the calling thread), and
/// returns results in job order.  Each result is written into its
/// pre-sized slot, and every simulation is seeded independently of
/// scheduling, so the returned vector is byte-identical for any thread
/// count — `threads` only changes the wall-clock.
///
/// Composition with the intra-run engine: a job whose cfg.intra_jobs is 0
/// (auto) gets the leftover thread budget, hw_threads / outer_fanout,
/// instead of a full pool per job — `--jobs 4 --intra-jobs 0` on a 16-
/// thread host gives each of 4 concurrent simulations 4 epoch workers
/// rather than 4x16 oversubscription.  Explicit intra_jobs values pass
/// through untouched.  Either way results are unchanged; determinism makes
/// the split a pure scheduling decision.
std::vector<MixResult> run_sweep(const std::vector<SweepJob>& jobs,
                                 unsigned threads = 0);

/// run_sweep with one observer slot per job (entries may be null).  Each
/// job's trace/timeline lands in its own observer; merge them back in job
/// order with obs::Observer::merge_from to get the exact trace a serial
/// observed execution would have produced.  run_sweep is this with every
/// slot null; the plain sweep API stays observer-free (one mutable sink
/// shared across jobs would interleave nondeterministically).
std::vector<MixResult> run_sweep_observed(const std::vector<SweepJob>& jobs,
                                          const std::vector<obs::Observer*>& observers,
                                          unsigned threads = 0);

/// compare_schemes over many mixes at once: each (mix, scheme) pair
/// becomes one sweep job.  Returns one comparison per input mix, in input
/// order, with the same determinism guarantee as run_sweep.
std::vector<SchemeComparison> compare_schemes_sweep(
    const MachineConfig& cfg, const std::vector<workload::Mix>& mixes,
    unsigned threads = 0);

/// The general form: any scheme set (e.g. kAllSchemeKinds for the six-way
/// shootout) over many mixes as one sweep.  result[m][k] is mix `m` under
/// kinds[k]; determinism guarantee as run_sweep.
std::vector<std::vector<MixResult>> run_schemes_sweep(
    const MachineConfig& cfg, const std::vector<workload::Mix>& mixes,
    std::span<const SchemeKind> kinds, unsigned threads = 0,
    SchemeOptions opts = {});

}  // namespace delta::sim
