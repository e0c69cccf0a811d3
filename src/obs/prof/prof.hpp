// Engine self-profiling: scoped wall-clock phase timers with thread-local
// buffers feeding a process-wide span log and per-site duration aggregates.
//
// This is the one directory where wall-clock reads are legal (the
// nondet-source lint bans steady_clock everywhere else in src/); call sites
// in sim/ instrument themselves through the RAII types below and never touch
// a clock directly.  Profiling is observation-only by construction — spans
// and site aggregates are written to side buffers that nothing in the
// simulator ever reads back — so results stay byte-identical with profiling
// on or off at any thread count (asserted by tests/test_prof.cpp and the CI
// benchmark job).
//
// Gating: two layers.
//   compile time — building with -DDELTA_PROF_DISABLED compiles every
//     instrumentation type down to an empty inline no-op;
//   run time    — a process-wide relaxed-atomic ProfLevel.  A disabled site
//     costs one relaxed load + branch (micro_overhead gates the end-to-end
//     cost at < 2%).
//
// Levels:
//   kOff    — collect nothing.
//   kPhases — coarse spans: epoch / policy / stage / apply / reduce /
//     barrier sections, sweep-job scheduling, derived per-epoch metrics.
//   kFull   — adds per-call site aggregates (do_access_batch, per-core
//     stage/reduce, per-bank apply; do_access_batch timed one call in
//     eight), sampled cursor-merge scan timing, and per-(core,bank)
//     staging-buffer occupancy.  Budget < 8%.
//
// Span model: each span is (seq, start_ns, dur_ns, tid, phase, arg).  seq is
// a process-wide sequence number drawn at record time, so a snapshot can be
// ordered into one deterministic-format timeline; start/dur are nanoseconds
// on the steady clock relative to a process-fixed origin; tid is a stable
// per-thread slot; arg carries the epoch (or job index) the span belongs to.
// Spans land in per-thread buffers (one uncontended mutex each, locked only
// against snapshots) capped at kMaxSpansPerThread with drop accounting.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/sync.hpp"

namespace delta::obs::prof {

enum class ProfLevel : int { kOff = 0, kPhases = 1, kFull = 2 };

const char* to_string(ProfLevel lvl);
/// Parses "off" | "phases" | "full"; returns false on anything else.
bool parse_prof_level(std::string_view s, ProfLevel* out);

/// Span categories.  Phases of the intra-run engine mirror sim/intra.hpp;
/// kBarrier spans are the derived done-barrier waits (a worker's wait is the
/// gap between its own work_done and the section's last work_done).
enum class Phase : std::uint8_t {
  kEpoch = 0,     ///< One whole Chip::run_one_epoch.
  kPolicy,        ///< Budgets + begin_epoch + monitor decay + checker.
  kSerialAccess,  ///< Serial interleaved issue loop (no intra engine).
  kAccounting,    ///< MCU end_epoch + epoch accounting + timeline sample.
  kStage,         ///< Intra staging task run (per-worker, inside kPipeline).
  kApply,         ///< Intra apply task run (per-worker, inside kPipeline).
  kReduce,        ///< Intra reduce task run (per-worker, inside kPipeline).
  kPipeline,      ///< Intra fused stage+apply+reduce worker section.
  kSerialTail,    ///< Intra serial integer-tally reduction.
  kBarrier,       ///< Done-barrier wait inside a worker section.
  kSweepJob,      ///< One run_sweep job (a whole simulation).
  kCount
};

std::string_view phase_name(Phase p);

/// Per-call aggregation sites (call counts, duration totals + log-bucket
/// histograms, no individual spans — these fire far too often for the span
/// log).
enum class Site : std::uint8_t {
  kAccessBatch = 0,  ///< Chip::do_access_batch (serial hot path).
  kStageCore,        ///< IntraEngine::stage_core.
  kApplyBank,        ///< IntraEngine::apply_bank.
  kReduceCore,       ///< IntraEngine::reduce_core.
  kCount
};

std::string_view site_name(Site s);

/// Every call of a site is counted, and every call is timed except at
/// kAccessBatch, where one call in this many on a thread is.  do_access_batch
/// runs once per 16-access batch, where two clock reads per call would cost
/// a serial run about 7%; the other sites run once per core or bank per
/// epoch.
inline constexpr std::uint32_t kAccessBatchTimedEvery = 8;

struct Span {
  std::uint64_t seq = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;
  std::uint32_t tid = 0;
  Phase phase = Phase::kEpoch;
};

struct SiteTotal {
  std::uint64_t calls = 0;  ///< Every call.
  std::uint64_t ns = 0;     ///< Timed duration, scaled up to every call.
  LogHistogram hist;        ///< Timed calls only.
};

/// Everything a snapshot carries; exporters consume this by value.
struct ProfSnapshot {
  ProfLevel level = ProfLevel::kOff;
  std::vector<Span> spans;  ///< Ascending seq.
  std::array<SiteTotal, static_cast<std::size_t>(Site::kCount)> sites;
  std::uint64_t dropped_spans = 0;

  /// Total recorded duration across spans of one phase.
  std::uint64_t phase_ns(Phase p) const;
};

#if defined(DELTA_PROF_DISABLED)

inline void set_level(ProfLevel) {}
inline ProfLevel level() { return ProfLevel::kOff; }
inline bool enabled(ProfLevel) { return false; }
inline std::uint64_t now_ns() { return 0; }

#else

namespace detail {
inline std::atomic<int>& level_slot() {
  static std::atomic<int> lvl{static_cast<int>(ProfLevel::kOff)};
  return lvl;
}
inline std::chrono::steady_clock::time_point origin() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}
}  // namespace detail

/// Sets the process-wide collection level.  Set it before constructing the
/// chips/pools you want profiled; raising it mid-run is safe (observation
/// only) but sections already in flight keep their armed/disarmed state.
inline void set_level(ProfLevel lvl) {
  detail::level_slot().store(static_cast<int>(lvl), std::memory_order_relaxed);
}
inline ProfLevel level() {
  return static_cast<ProfLevel>(detail::level_slot().load(std::memory_order_relaxed));
}
/// The disabled-site fast path: one relaxed load + compare.
inline bool enabled(ProfLevel need) {
  return detail::level_slot().load(std::memory_order_relaxed) >=
         static_cast<int>(need);
}

/// Nanoseconds on the steady clock since a process-fixed origin.  The origin
/// is latched on first use; init_clock() pins it early in main() so
/// concurrent first uses cannot race the static init from hot paths.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - detail::origin())
          .count());
}

#endif  // DELTA_PROF_DISABLED

inline void init_clock() { (void)now_ns(); }

/// Process-wide span/site store.  Threads register lazily and keep their
/// buffer for the process lifetime; record paths lock only the calling
/// thread's own (uncontended) mutex, snapshots walk all buffers.
class Profiler {
 public:
  static Profiler& instance();

  /// Appends a span to the calling thread's buffer (drop-counted past the
  /// per-thread cap).  Callers check enabled() first; this always records.
  void record_span(Phase p, std::uint64_t start_ns, std::uint64_t dur_ns,
                   std::uint64_t arg);

  /// Counts one call of site `s` on the calling thread; true when this call
  /// is one to time (see kAccessBatchTimedEvery).
  bool count_site(Site s);

  /// Folds one timed call's duration into the calling thread's per-site
  /// aggregate.
  void add_site(Site s, std::uint64_t dur_ns);

  /// Stable slot of the calling thread in this profiler (also the tid spans
  /// carry).  Slots count up from 0 in first-record order.
  std::uint32_t thread_slot();

  /// Deep-copy snapshot: spans from every thread buffer merged and sorted by
  /// seq, site aggregates merged across threads.  Safe against concurrent
  /// recording (each buffer is copied under its own mutex).
  ProfSnapshot snapshot() const;

  /// Drops all recorded data (buffers stay registered).  Tests and benches
  /// use this between measured configurations.
  void clear();

  static constexpr std::size_t kMaxSpansPerThread = 1u << 20;

 private:
  struct ThreadBuf {
    mutable common::Mutex mu;
    std::vector<Span> spans GUARDED_BY(mu);
    /// Timed calls only; `calls` there counts the timed ones.
    std::array<SiteTotal, static_cast<std::size_t>(Site::kCount)> sites
        GUARDED_BY(mu);
    /// Every call per site.  Only the owning thread writes it, without the
    /// lock; snapshot() and clear() read and reset it relaxed.
    std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Site::kCount)>
        site_calls{};
    std::uint64_t dropped GUARDED_BY(mu) = 0;
    std::uint32_t tid = 0;
  };

  Profiler() = default;
  ThreadBuf& local_buf() EXCLUDES(mu_);

  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_ GUARDED_BY(mu_);
  std::atomic<std::uint64_t> seq_{0};
};

/// RAII phase span: arms itself when the runtime level reaches `need`, and
/// records one span on destruction.  Disabled cost: one relaxed load.
class ScopedSpan {
 public:
#if defined(DELTA_PROF_DISABLED)
  ScopedSpan(Phase, std::uint64_t = 0, ProfLevel = ProfLevel::kPhases) {}
  void stop() {}
#else
  explicit ScopedSpan(Phase p, std::uint64_t arg = 0,
                      ProfLevel need = ProfLevel::kPhases) {
    if (enabled(need)) {
      phase_ = p;
      arg_ = arg;
      start_ = now_ns();
      armed_ = true;
    }
  }
  ~ScopedSpan() { stop(); }
  /// Ends the span now instead of at scope exit (idempotent).
  void stop() {
    if (armed_) {
      Profiler::instance().record_span(phase_, start_, now_ns() - start_, arg_);
      armed_ = false;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t start_ = 0;
  std::uint64_t arg_ = 0;
  Phase phase_ = Phase::kEpoch;
  bool armed_ = false;
#endif
};

/// RAII site timer: like ScopedSpan but folds into the per-thread site
/// aggregate instead of the span log; defaults to the kFull gate because the
/// sites it guards fire per batch/core/bank, not per phase.
class ScopedSite {
 public:
#if defined(DELTA_PROF_DISABLED)
  ScopedSite(Site, ProfLevel = ProfLevel::kFull) {}
#else
  explicit ScopedSite(Site s, ProfLevel need = ProfLevel::kFull) {
    if (enabled(need) && Profiler::instance().count_site(s)) {
      site_ = s;
      start_ = now_ns();
      armed_ = true;
    }
  }
  ~ScopedSite() {
    if (armed_) Profiler::instance().add_site(site_, now_ns() - start_);
  }
  ScopedSite(const ScopedSite&) = delete;
  ScopedSite& operator=(const ScopedSite&) = delete;

 private:
  std::uint64_t start_ = 0;
  Site site_ = Site::kAccessBatch;
  bool armed_ = false;
#endif
};

/// Intra-engine profiling: clocks each worker's part of a pool section
/// (the engine's worker body calls section_begin/work_done around its work),
/// derives done-barrier waits (a worker's wait is the gap to the section's
/// last work_done), and folds per-epoch derived metrics — barrier-wait
/// fraction, worker-imbalance ratio, sampled cursor-merge serial fraction,
/// staging-buffer occupancy — into the global MetricsRegistry.  One instance
/// per engine, driven from the pool's owner thread
/// (begin_section/end_section/end_epoch); the worker slots are written by
/// each worker inside the section and read by the owner after the done
/// barrier, which orders them (same argument as WorkerPool::fn_).  Sections
/// are fused kPipeline sections.
class EngineProfile {
 public:
  explicit EngineProfile(unsigned workers);
  ~EngineProfile();

  /// Arms the next pool section if the runtime level allows; `epoch` labels
  /// the spans the section will record.
  void begin_section(std::uint64_t epoch);
  /// Records per-worker busy + barrier spans for the section that just
  /// finished and accumulates the epoch's totals.  Pair with begin_section
  /// around every pool run.
  void end_section();

  /// True when the current section is being measured (cheap cached flag —
  /// call sites use it to gate kFull extras without re-reading the level).
  bool armed() const { return armed_; }
  bool full() const { return full_; }

  /// Worker `worker` starts / finishes its part of the section; both run on
  /// that worker's thread, inside the section.
  void section_begin(unsigned worker);
  void work_done(unsigned worker);

  /// Worker-side task attribution inside a fused kPipeline section: the
  /// scheduler calls this when worker `worker` starts a task of kind `p`
  /// (kStage / kApply / kReduce).  Consecutive tasks of the same kind extend
  /// one span; a kind switch closes the open span and records it, so the
  /// trace keeps per-phase rows even though the pool runs a single fused
  /// section.  work_done() flushes the last open span.  No-op when the
  /// section is not armed.
  void task_begin(unsigned worker, Phase p);

  /// Sampled cursor-merge scan accounting, one per worker; apply_bank adds
  /// to the slot of the worker running it.
  struct MergeScratch {
    std::uint64_t rounds = 0;          ///< All merge rounds walked.
    std::uint64_t sampled_rounds = 0;  ///< Rounds whose scan was clocked.
    std::uint64_t scan_ns = 0;         ///< Clocked scan time (sampled).
  };
  MergeScratch& merge_scratch(unsigned worker) {
    return merge_[static_cast<std::size_t>(worker)];
  }

  /// One per-(core,bank) staged-access count (nonzero lists only).
  void add_occupancy(std::uint64_t staged, std::uint64_t pairs_total,
                     std::uint64_t pairs_nonzero);

  /// Closes the epoch: updates cumulative totals, pushes derived metrics
  /// (fractions, imbalance, per-epoch histograms) into the registry.
  void end_epoch();

  /// Machine-independent engine-health accounting, one call per epoch from
  /// the owner thread.  Unlike the timing metrics this is NOT gated on the
  /// profiling level: the counts are structural (how many pool sections,
  /// tasks, steals and overlapped apply ranges the epoch used), so CI can
  /// gate scaling *structure* even on 1-hw-thread hosts where wall-clock
  /// ratios are meaningless.  Each pool section costs two barrier
  /// crossings (start + done).
  void count_epoch(std::uint64_t pool_sections, std::uint64_t tasks,
                   std::uint64_t tasks_stolen, std::uint64_t apply_ranges,
                   std::uint64_t apply_ranges_overlapped);

  // Cumulative health totals (any profiling level).
  std::uint64_t health_epochs() const { return health_epochs_; }
  double barriers_per_epoch() const;
  double steal_fraction() const;
  double stage_apply_overlap_fraction() const;

  // Cumulative run totals, exposed for tests and the bench phase breakdown.
  std::uint64_t busy_ns(Phase p) const;
  std::uint64_t barrier_ns() const { return cum_barrier_ns_; }
  double barrier_wait_fraction() const;
  double worker_imbalance_ratio() const;
  double merge_serial_fraction() const;

 private:
  struct WorkerSlot {
    std::uint64_t begin_ns = 0;
    std::uint64_t done_ns = 0;
  };

  /// Open task span of one worker (task_begin/work_done flush).  Written
  /// only by the owning worker inside a section; task_ns is read by the
  /// owner after the done barrier (which orders it, like WorkerSlot).
  struct TaskSlot {
    std::uint64_t start_ns = 0;
    Phase phase = Phase::kStage;
    bool open = false;
    std::array<std::uint64_t, static_cast<std::size_t>(Phase::kCount)> task_ns{};
  };

  void flush_task(unsigned worker, std::uint64_t now);

  const unsigned workers_;
  std::vector<WorkerSlot> slots_;
  std::vector<TaskSlot> tasks_;
  std::vector<MergeScratch> merge_;
  std::vector<std::uint64_t> epoch_busy_;  ///< Per worker, this epoch.
  std::uint64_t epoch_arg_ = 0;
  bool armed_ = false;
  bool full_ = false;

  // Cumulative over the run (owner thread only).
  std::array<std::uint64_t, static_cast<std::size_t>(Phase::kCount)> cum_busy_{};
  std::uint64_t cum_barrier_ns_ = 0;
  std::uint64_t cum_section_ns_ = 0;   ///< busy + barrier.
  double imbalance_sum_ = 0.0;
  std::uint64_t imbalance_epochs_ = 0;
  std::uint64_t merge_rounds_ = 0;
  std::uint64_t merge_sampled_rounds_ = 0;
  std::uint64_t merge_scan_ns_ = 0;

  // Health totals (owner thread only; counted at every profiling level).
  std::uint64_t health_epochs_ = 0;
  std::uint64_t health_sections_ = 0;
  std::uint64_t health_tasks_ = 0;
  std::uint64_t health_stolen_ = 0;
  std::uint64_t health_ranges_ = 0;
  std::uint64_t health_overlapped_ = 0;

  struct Handles;
  std::unique_ptr<Handles> handles_;  ///< Lazily bound registry metrics.
  void ensure_handles();
};

}  // namespace delta::obs::prof
