// Intra-run parallel epoch engine: shards one Chip's epoch across host
// threads while staying byte-identical to the serial interleaved loop.
//
// The serial engine (Chip::run_one_epoch) issues accesses in round-robin
// batches of Chip::kInterleaveBatch per core.  This engine reproduces that
// computation in ONE worker-pool section per epoch — two barrier crossings —
// scheduled by deterministic work-stealing over three task kinds:
//
//   Stage tasks — one per core.  Each core draws its full access stream
//     (RNG, UMON shadow-tag update, scheme->map() bank routing) into a
//     pre-sized per-core buffer plus per-(core, bank, slice) index
//     segments, where a slice is a fixed run of interleave rounds (the
//     apply-task granularity, MachineConfig::intra_apply_rounds).  A task
//     covers a whole core because the stream is one RNG chain; workers
//     claim their static home range first, then steal unclaimed cores in
//     ascending core order.  After each slice's segment is complete the
//     stager publishes a per-core watermark (release store), so appliers
//     can chase right behind it — segments already published are never
//     written again, which is what makes the overlap data-race-free.  The
//     first push into a (bank, slice) segment also sets the core's bit in
//     that (bank, slice)'s core mask (relaxed fetch_or, ceil(cores/64)
//     words); the same watermark release publishes the bit.
//
//   Apply tasks — one per (bank, slice).  The slices of one bank form a
//     sequential chain guarded by a SeqClaim word (common/parallel.hpp):
//     any worker may claim the next slice of any bank once every core's
//     watermark covers it, so bank work spreads across whichever workers
//     are free — the deterministic work-stealing that removes the static
//     partition's imbalance.  Within a slice the merge walks the canonical
//     serial order — ascending (round, core, index) with round = index /
//     Chip::kInterleaveBatch — so each bank sees the exact serial access
//     sequence no matter which workers ran its slices.  The merge is
//     sparse: the slice's core mask expands once into an ascending list of
//     the cores that staged anything for it, and every round walks only
//     that list (DELTA keeps each app's lines in a few nearby banks, so it
//     is typically one or two cores, not all of them).  insert_mask() /
//     evict_preference() / on_insertion() touch only bank-local or
//     epoch-constant scheme state (scheme.hpp contract); the slice chain
//     orders all writes to one bank.  Each access is charged by the same
//     LLC access kernel as the serial loop (sim/llc_kernel.hpp, the one
//     place the per-access cost model lives); per-access latencies are
//     written back into the staging buffer, and hit/miss counts and the
//     kernel's MCU requests accumulate as per-bank tallies.
//
//   Reduce tasks — one per core, claimed like stage tasks, runnable once
//     every bank finished its last slice.  Each core folds its latencies
//     into the slot's double accumulators walking its own stream in index
//     order — the exact order the serial loop added them — so the FP sums
//     are bit-equal, not merely close.
//
// Work-stealing never changes results: *which* worker runs a task is the
// only degree of freedom, and every task's effect is a function of the
// dependency chain (per-core stream order, per-bank slice order), not of
// the thread that executes it.
//
// After the section the caller folds the per-bank integer tallies serially
// in fixed bank order (traffic counters, per-core hit/miss totals, bulk MCU
// request counts) — integer additions, hence order-insensitive anyway.
//
// Policy steps (begin_epoch reconfiguration, UMON decay, the invariant
// checker) stay on the serial epoch boundary in Chip::run_one_epoch.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"
#include "obs/prof/prof.hpp"

namespace delta::sim {

class Chip;

class IntraEngine {
 public:
  /// `threads` is the resolved worker count (>= 2; Chip keeps the serial
  /// loop for 1).  The pool threads persist for the Chip's lifetime and
  /// park on a barrier between epochs; the constructor runs a warm pass
  /// that sizes the per-core and per-bank buffers on the workers' home
  /// ranges.
  IntraEngine(Chip& chip, unsigned threads);

  /// Replaces the serial interleaved-issue loop for one epoch.  Callable
  /// only from the thread that owns the Chip; requires begin_epoch /
  /// monitor decay / checker hooks to have already run.
  void run_epoch_accesses(bool measuring);

  unsigned threads() const { return pool_.parties(); }

 private:
  /// One staged access: routing decided by the stage task, latency filled
  /// in by an apply task, folded into the slot's accumulators by a reduce
  /// task.
  struct Staged {
    BlockAddr block = 0;
    std::uint32_t set = 0;
    std::uint32_t lat = 0;
    std::uint16_t bank = 0;
  };

  /// Per-core staging, reused across epochs.  to_bank is segmented per
  /// slice — to_bank[bank][slice] holds the indices staged for that bank
  /// during that slice — so a published segment is immutable while later
  /// slices are still being staged (appliers read only below the
  /// watermark).
  struct CoreStage {
    std::vector<Staged> acc;  ///< Stream in draw order.
    std::vector<std::vector<std::vector<std::uint32_t>>> to_bank;
  };

  /// The merge's read position in one active core's segment of the slice
  /// being applied.
  struct MergeCursor {
    CoreId core = 0;
    Staged* acc = nullptr;                ///< The core's stream.
    const std::uint32_t* next = nullptr;  ///< First unconsumed index.
    const std::uint32_t* end = nullptr;   ///< End of the segment.
  };

  /// Per-bank integer tallies, reused across epochs.  Written only by the
  /// bank's apply-slice chain (SeqClaim-ordered), read by the owner after
  /// the section.
  struct BankTally {
    std::vector<std::uint64_t> hits;      ///< Per core.
    std::vector<std::uint64_t> misses;    ///< Per core.
    std::vector<std::uint64_t> mcu_reqs;  ///< Per MCU.
    /// Merge scratch: one cursor per core active in the slice, ascending.
    std::vector<MergeCursor> merge;
  };

  /// Per-worker scheduler accounting, folded into the engine-health
  /// counters by the owner after the section.
  struct WorkerStats {
    std::uint64_t tasks = 0;
    std::uint64_t stolen = 0;
    std::uint64_t ranges = 0;
    std::uint64_t overlapped = 0;
  };

  // Task bodies (run by whichever worker claimed the task).
  void stage_core(CoreId c);
  /// `ms` is non-null only when kFull profiling samples the cursor-merge
  /// scan (1 round in 8); the clock reads live in obs/prof.
  void apply_bank_slice(BankId b, std::uint32_t slice,
                        obs::prof::EngineProfile::MergeScratch* ms);
  void reduce_core(CoreId c, bool measuring);
  /// Feeds per-(core,bank) staging-list occupancy into the profile (kFull).
  void record_buffer_occupancy();

  // Scheduler (one call per worker per phase, inside the fused section).
  void worker_run(unsigned w, bool measuring);
  void run_stage_tasks(unsigned w);
  void run_apply_tasks(unsigned w);
  void run_reduce_tasks(unsigned w, bool measuring);
  /// Lowest per-core staging watermark, in slices (acquire-loads every
  /// core's own counter so the claimed slice's segments are visible to the
  /// calling thread — a cached cross-thread minimum would not carry the
  /// happens-before edges).
  std::uint32_t staged_min() const;
  /// The mask_words_ words of (bank, slice)'s core mask: bit c is set once
  /// core c has staged an access for that bank during that slice.
  std::atomic<std::uint64_t>* slice_mask(BankId b, std::uint32_t slice) const {
    const std::size_t row = static_cast<std::size_t>(b) * num_slices_ + slice;
    return &core_masks_[row * mask_words_];
  }

  /// Owner-side per-epoch reset: slice geometry, claim words, watermarks.
  void prepare_epoch();
  /// Rethrows the first captured task exception in worker-index order.
  void rethrow_task_errors();

  Chip& chip_;
  WorkerPool pool_;
  std::vector<CoreStage> stages_;   ///< One per core.
  std::vector<BankTally> tallies_;  ///< One per bank.
  std::vector<std::uint64_t> remote_;  ///< Per core: hop > 0 accesses.
  std::vector<WorkerStats> wstats_;    ///< Per worker, reset per epoch.
  /// Slot w: written only by worker w inside the section, read by the
  /// owner after the done barrier (same ordering argument as WorkerPool).
  std::vector<std::exception_ptr> task_errors_;

  // Epoch-scoped scheduler state (owner resets in prepare_epoch; the pool's
  // start barrier publishes the reset to workers).
  std::uint32_t num_slices_ = 1;       ///< Apply tasks per bank this epoch.
  std::uint64_t slice_accesses_ = 1;   ///< Accesses per slice per core.
  std::unique_ptr<std::atomic<std::uint32_t>[]> staged_slices_;  ///< Per core.
  std::unique_ptr<std::atomic<std::uint8_t>[]> stage_claim_;     ///< Per core.
  std::unique_ptr<std::atomic<std::uint8_t>[]> reduce_claim_;    ///< Per core.
  std::unique_ptr<SeqClaim[]> apply_claim_;                      ///< Per bank.
  /// Per (bank, slice): mask_words_ words of core bits, zeroed by the owner
  /// each epoch; see slice_mask().  Capacity only grows.
  std::unique_ptr<std::atomic<std::uint64_t>[]> core_masks_;
  std::size_t core_masks_cap_ = 0;  ///< Words allocated in core_masks_.
  std::size_t mask_words_ = 1;      ///< ceil(cores / 64).
  std::atomic<std::uint32_t> stage_done_{0};  ///< Cores fully staged.
  std::atomic<std::uint32_t> banks_done_{0};  ///< Banks fully applied.
  std::atomic<bool> failed_{false};           ///< A task threw; drain spins.

  /// Phase/barrier spans + derived per-epoch metrics; owns no sim state and
  /// never feeds back into the computation (determinism contract).
  obs::prof::EngineProfile profile_;
};

/// The engine for `intra_jobs` (MachineConfig::intra_jobs), or null when it
/// resolves to one thread: 0 means every hardware thread, and the count is
/// clamped to the chip's cores.
std::unique_ptr<IntraEngine> make_intra_engine(Chip& chip, int intra_jobs);

}  // namespace delta::sim
