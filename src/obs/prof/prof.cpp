#include "obs/prof/prof.hpp"

#include <algorithm>
#include <cassert>

#include "obs/prof/metrics.hpp"

namespace delta::obs::prof {

const char* to_string(ProfLevel lvl) {
  switch (lvl) {
    case ProfLevel::kOff: return "off";
    case ProfLevel::kPhases: return "phases";
    case ProfLevel::kFull: return "full";
  }
  return "?";
}

bool parse_prof_level(std::string_view s, ProfLevel* out) {
  if (s == "off") {
    *out = ProfLevel::kOff;
  } else if (s == "phases") {
    *out = ProfLevel::kPhases;
  } else if (s == "full") {
    *out = ProfLevel::kFull;
  } else {
    return false;
  }
  return true;
}

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kEpoch: return "epoch";
    case Phase::kPolicy: return "policy";
    case Phase::kSerialAccess: return "serial_access";
    case Phase::kAccounting: return "accounting";
    case Phase::kStage: return "stage";
    case Phase::kApply: return "apply";
    case Phase::kReduce: return "reduce";
    case Phase::kPipeline: return "pipeline";
    case Phase::kSerialTail: return "serial_tail";
    case Phase::kBarrier: return "barrier";
    case Phase::kSweepJob: return "sweep_job";
    case Phase::kCount: break;
  }
  return "?";
}

std::string_view site_name(Site s) {
  switch (s) {
    case Site::kAccessBatch: return "access_batch";
    case Site::kStageCore: return "stage_core";
    case Site::kApplyBank: return "apply_bank";
    case Site::kReduceCore: return "reduce_core";
    case Site::kCount: break;
  }
  return "?";
}

std::uint64_t ProfSnapshot::phase_ns(Phase p) const {
  std::uint64_t total = 0;
  for (const Span& s : spans)
    if (s.phase == p) total += s.dur_ns;
  return total;
}

Profiler& Profiler::instance() {
  static Profiler p;
  return p;
}

Profiler::ThreadBuf& Profiler::local_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    const common::LockGuard lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    buf = bufs_.back().get();
    buf->tid = static_cast<std::uint32_t>(bufs_.size() - 1);
  }
  return *buf;
}

void Profiler::record_span(Phase p, std::uint64_t start_ns, std::uint64_t dur_ns,
                           std::uint64_t arg) {
  ThreadBuf& buf = local_buf();
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const common::LockGuard lock(buf.mu);
  if (buf.spans.size() >= kMaxSpansPerThread) {
    ++buf.dropped;
    return;
  }
  buf.spans.push_back(Span{seq, start_ns, dur_ns, arg, buf.tid, p});
}

bool Profiler::count_site(Site s) {
  std::atomic<std::uint64_t>& calls = local_buf().site_calls[static_cast<std::size_t>(s)];
  // A single writer needs no read-modify-write.
  const std::uint64_t n = calls.load(std::memory_order_relaxed);
  calls.store(n + 1, std::memory_order_relaxed);
  return s != Site::kAccessBatch || n % kAccessBatchTimedEvery == 0;
}

void Profiler::add_site(Site s, std::uint64_t dur_ns) {
  ThreadBuf& buf = local_buf();
  const common::LockGuard lock(buf.mu);
  SiteTotal& t = buf.sites[static_cast<std::size_t>(s)];
  ++t.calls;
  t.ns += dur_ns;
  t.hist.add(dur_ns);
}

std::uint32_t Profiler::thread_slot() { return local_buf().tid; }

ProfSnapshot Profiler::snapshot() const {
  ProfSnapshot out;
  out.level = level();
  // Copy the buffer list under the registry lock, then drain each buffer
  // under its own lock — recording threads only ever contend on their own
  // buffer's mutex, never on the registry's.
  std::vector<const ThreadBuf*> bufs;
  {
    const common::LockGuard lock(mu_);
    bufs.reserve(bufs_.size());
    for (const auto& b : bufs_) bufs.push_back(b.get());
  }
  std::array<std::uint64_t, static_cast<std::size_t>(Site::kCount)> timed{};
  for (const ThreadBuf* b : bufs) {
    const common::LockGuard lock(b->mu);
    out.spans.insert(out.spans.end(), b->spans.begin(), b->spans.end());
    out.dropped_spans += b->dropped;
    for (std::size_t s = 0; s < out.sites.size(); ++s) {
      out.sites[s].calls += b->site_calls[s].load(std::memory_order_relaxed);
      timed[s] += b->sites[s].calls;
      out.sites[s].ns += b->sites[s].ns;
      out.sites[s].hist.merge(b->sites[s].hist);
    }
  }
  // kAccessBatch times one call in kAccessBatchTimedEvery: scale its time up
  // to every call it counted.
  for (std::size_t s = 0; s < out.sites.size(); ++s) {
    SiteTotal& t = out.sites[s];
    if (timed[s] > 0 && timed[s] != t.calls)
      t.ns = static_cast<std::uint64_t>(static_cast<double>(t.ns) *
                                        static_cast<double>(t.calls) /
                                        static_cast<double>(timed[s]));
  }
  std::sort(out.spans.begin(), out.spans.end(),
            [](const Span& a, const Span& b) { return a.seq < b.seq; });
  return out;
}

void Profiler::clear() {
  std::vector<ThreadBuf*> bufs;
  {
    const common::LockGuard lock(mu_);
    bufs.reserve(bufs_.size());
    for (const auto& b : bufs_) bufs.push_back(b.get());
  }
  for (ThreadBuf* b : bufs) {
    const common::LockGuard lock(b->mu);
    b->spans.clear();
    b->dropped = 0;
    for (SiteTotal& t : b->sites) {
      t.calls = 0;
      t.ns = 0;
      t.hist.reset();
    }
    for (std::atomic<std::uint64_t>& calls : b->site_calls)
      calls.store(0, std::memory_order_relaxed);
  }
}

/// Registry handles the engine profile publishes derived metrics through.
struct EngineProfile::Handles {
  Counter& epochs;
  Gauge& barrier_frac;
  Gauge& imbalance;
  Gauge& merge_frac;
  HistogramMetric& epoch_imbalance_milli;
  HistogramMetric& epoch_barrier_ppm;
  HistogramMetric& occupancy;
  Counter& occupancy_pairs;
  Counter& occupancy_nonzero;
  // Engine-health counters (structural; counted at every profiling level).
  Counter& engine_epochs;
  Counter& pool_sections;
  Counter& barrier_crossings;
  Counter& tasks;
  Counter& tasks_stolen;
  Counter& apply_ranges;
  Counter& apply_ranges_overlapped;
  Gauge& barriers_per_epoch;
  Gauge& steal_fraction;
  Gauge& overlap_fraction;

  explicit Handles(MetricsRegistry& reg)
      : epochs(reg.counter("delta_intra_epochs_total",
                           "Epochs executed by the intra-run engine")),
        barrier_frac(reg.gauge(
            "delta_intra_barrier_wait_fraction",
            "Cumulative done-barrier wait / total worker section time")),
        imbalance(reg.gauge(
            "delta_intra_worker_imbalance_ratio",
            "Mean over epochs of max/mean per-worker busy time")),
        merge_frac(reg.gauge(
            "delta_intra_merge_serial_fraction",
            "Sampled cursor-merge scan time / apply-phase busy time")),
        epoch_imbalance_milli(reg.histogram(
            "delta_intra_epoch_imbalance_milli",
            "Per-epoch worker-imbalance ratio, in thousandths")),
        epoch_barrier_ppm(reg.histogram(
            "delta_intra_epoch_barrier_wait_ppm",
            "Per-epoch barrier-wait fraction, in parts per million")),
        occupancy(reg.histogram(
            "delta_intra_bank_buffer_occupancy",
            "Staged accesses per nonzero (core,bank) index list")),
        occupancy_pairs(reg.counter("delta_intra_bank_buffer_pairs_total",
                                    "(core,bank) staging lists examined")),
        occupancy_nonzero(
            reg.counter("delta_intra_bank_buffer_pairs_nonzero",
                        "(core,bank) staging lists holding any access")),
        engine_epochs(reg.counter("delta_intra_engine_epochs_total",
                                  "Epochs with engine-health accounting")),
        pool_sections(reg.counter("delta_intra_pool_sections_total",
                                  "Worker-pool sections run by the engine")),
        barrier_crossings(
            reg.counter("delta_intra_barrier_crossings_total",
                        "Pool barrier crossings (2 per section)")),
        tasks(reg.counter("delta_intra_tasks_total",
                          "Scheduler tasks executed (stage+apply+reduce)")),
        tasks_stolen(reg.counter(
            "delta_intra_tasks_stolen_total",
            "Tasks executed by a worker outside its static home range")),
        apply_ranges(reg.counter("delta_intra_apply_ranges_total",
                                 "(bank, round-range) apply tasks executed")),
        apply_ranges_overlapped(reg.counter(
            "delta_intra_apply_ranges_overlapped_total",
            "Apply ranges claimed while staging was still in flight")),
        barriers_per_epoch(
            reg.gauge("delta_intra_barriers_per_epoch",
                      "Pool barrier crossings per engine epoch")),
        steal_fraction(reg.gauge("delta_intra_steal_fraction",
                                 "Stolen tasks / all scheduler tasks")),
        overlap_fraction(reg.gauge(
            "delta_intra_stage_apply_overlap_fraction",
            "Apply ranges overlapped with staging / all apply ranges")) {}
};

EngineProfile::EngineProfile(unsigned workers)
    : workers_(workers == 0 ? 1 : workers),
      slots_(workers_),
      tasks_(workers_),
      merge_(workers_),
      epoch_busy_(workers_, 0) {}

EngineProfile::~EngineProfile() = default;

void EngineProfile::ensure_handles() {
  if (handles_ == nullptr)
    handles_ = std::make_unique<Handles>(MetricsRegistry::global());
}

void EngineProfile::begin_section(std::uint64_t epoch) {
  armed_ = enabled(ProfLevel::kPhases);
  full_ = armed_ && enabled(ProfLevel::kFull);
  if (!armed_) return;
  epoch_arg_ = epoch;
  for (WorkerSlot& s : slots_) s = WorkerSlot{};
  for (TaskSlot& t : tasks_) t = TaskSlot{};
}

void EngineProfile::section_begin(unsigned worker) {
  if (!armed_) return;
  slots_[static_cast<std::size_t>(worker)].begin_ns = now_ns();
}

void EngineProfile::flush_task(unsigned worker, std::uint64_t now) {
  TaskSlot& t = tasks_[static_cast<std::size_t>(worker)];
  if (!t.open) return;
  const std::uint64_t dur = now - t.start_ns;
  Profiler::instance().record_span(t.phase, t.start_ns, dur, epoch_arg_);
  t.task_ns[static_cast<std::size_t>(t.phase)] += dur;
  t.open = false;
}

void EngineProfile::task_begin(unsigned worker, Phase p) {
  if (!armed_) return;
  TaskSlot& t = tasks_[static_cast<std::size_t>(worker)];
  if (t.open && t.phase == p) return;  // Extend the run of same-kind tasks.
  const std::uint64_t now = now_ns();
  flush_task(worker, now);
  t.phase = p;
  t.start_ns = now;
  t.open = true;
}

void EngineProfile::work_done(unsigned worker) {
  if (!armed_) return;
  const std::uint64_t now = now_ns();
  flush_task(worker, now);
  slots_[static_cast<std::size_t>(worker)].done_ns = now;
}

void EngineProfile::end_section() {
  if (!armed_) return;
  // The done barrier has released the owner, so every slot is final.  A
  // worker's barrier wait is the gap from its own work_done to the last
  // work_done in the section — a lower bound that excludes only the condvar
  // wake-up latency.
  std::uint64_t last_done = 0;
  for (const WorkerSlot& s : slots_) last_done = std::max(last_done, s.done_ns);
  Profiler& prof = Profiler::instance();
  for (unsigned w = 0; w < workers_; ++w) {
    const WorkerSlot& s = slots_[w];
    if (s.done_ns < s.begin_ns || s.begin_ns == 0) continue;  // Idle party.
    const std::uint64_t busy = s.done_ns - s.begin_ns;
    const std::uint64_t wait = last_done - s.done_ns;
    prof.record_span(Phase::kPipeline, s.begin_ns, busy, epoch_arg_);
    if (wait > 0) prof.record_span(Phase::kBarrier, s.done_ns, wait, epoch_arg_);
    cum_busy_[static_cast<std::size_t>(Phase::kPipeline)] += busy;
    cum_barrier_ns_ += wait;
    cum_section_ns_ += busy + wait;
    epoch_busy_[w] += busy;
    // Fold the worker's per-kind task time (fused kPipeline sections record
    // stage/apply/reduce attribution through task_begin) into the run
    // totals, so busy_ns(kStage/kApply/kReduce) keeps working.
    TaskSlot& t = tasks_[w];
    for (std::size_t p = 0; p < t.task_ns.size(); ++p) {
      cum_busy_[p] += t.task_ns[p];
      t.task_ns[p] = 0;
    }
  }
}

void EngineProfile::add_occupancy(std::uint64_t staged, std::uint64_t pairs_total,
                                  std::uint64_t pairs_nonzero) {
  ensure_handles();
  if (staged > 0) handles_->occupancy.observe(staged);
  handles_->occupancy_pairs.add(pairs_total);
  handles_->occupancy_nonzero.add(pairs_nonzero);
}

void EngineProfile::end_epoch() {
  if (!armed_) return;
  ensure_handles();
  handles_->epochs.add(1);

  std::uint64_t max_busy = 0, sum_busy = 0;
  for (std::uint64_t b : epoch_busy_) {
    max_busy = std::max(max_busy, b);
    sum_busy += b;
  }
  if (sum_busy > 0) {
    const double mean =
        static_cast<double>(sum_busy) / static_cast<double>(workers_);
    const double ratio = static_cast<double>(max_busy) / mean;
    imbalance_sum_ += ratio;
    ++imbalance_epochs_;
    handles_->epoch_imbalance_milli.observe(
        static_cast<std::uint64_t>(ratio * 1000.0));
  }
  for (std::uint64_t& b : epoch_busy_) b = 0;

  for (MergeScratch& m : merge_) {
    merge_rounds_ += m.rounds;
    merge_sampled_rounds_ += m.sampled_rounds;
    merge_scan_ns_ += m.scan_ns;
    m = MergeScratch{};
  }

  if (cum_section_ns_ > 0)
    handles_->epoch_barrier_ppm.observe(
        static_cast<std::uint64_t>(barrier_wait_fraction() * 1e6));
  handles_->barrier_frac.set(barrier_wait_fraction());
  handles_->imbalance.set(worker_imbalance_ratio());
  handles_->merge_frac.set(merge_serial_fraction());
}

void EngineProfile::count_epoch(std::uint64_t pool_sections, std::uint64_t tasks,
                                std::uint64_t tasks_stolen,
                                std::uint64_t apply_ranges,
                                std::uint64_t apply_ranges_overlapped) {
  ensure_handles();
  ++health_epochs_;
  health_sections_ += pool_sections;
  health_tasks_ += tasks;
  health_stolen_ += tasks_stolen;
  health_ranges_ += apply_ranges;
  health_overlapped_ += apply_ranges_overlapped;
  handles_->engine_epochs.add(1);
  handles_->pool_sections.add(pool_sections);
  handles_->barrier_crossings.add(2 * pool_sections);
  handles_->tasks.add(tasks);
  handles_->tasks_stolen.add(tasks_stolen);
  handles_->apply_ranges.add(apply_ranges);
  handles_->apply_ranges_overlapped.add(apply_ranges_overlapped);
  handles_->barriers_per_epoch.set(barriers_per_epoch());
  handles_->steal_fraction.set(steal_fraction());
  handles_->overlap_fraction.set(stage_apply_overlap_fraction());
}

double EngineProfile::barriers_per_epoch() const {
  return health_epochs_ > 0 ? 2.0 * static_cast<double>(health_sections_) /
                                  static_cast<double>(health_epochs_)
                            : 0.0;
}

double EngineProfile::steal_fraction() const {
  return health_tasks_ > 0 ? static_cast<double>(health_stolen_) /
                                 static_cast<double>(health_tasks_)
                           : 0.0;
}

double EngineProfile::stage_apply_overlap_fraction() const {
  return health_ranges_ > 0 ? static_cast<double>(health_overlapped_) /
                                  static_cast<double>(health_ranges_)
                            : 0.0;
}

std::uint64_t EngineProfile::busy_ns(Phase p) const {
  return cum_busy_[static_cast<std::size_t>(p)];
}

double EngineProfile::barrier_wait_fraction() const {
  return cum_section_ns_ > 0 ? static_cast<double>(cum_barrier_ns_) /
                                   static_cast<double>(cum_section_ns_)
                             : 0.0;
}

double EngineProfile::worker_imbalance_ratio() const {
  return imbalance_epochs_ > 0
             ? imbalance_sum_ / static_cast<double>(imbalance_epochs_)
             : 0.0;
}

double EngineProfile::merge_serial_fraction() const {
  if (merge_sampled_rounds_ == 0) return 0.0;
  // Scale the sampled scan time up to all rounds, then take it against the
  // apply-phase busy time it is embedded in.
  const double est_scan =
      static_cast<double>(merge_scan_ns_) *
      (static_cast<double>(merge_rounds_) /
       static_cast<double>(merge_sampled_rounds_));
  const std::uint64_t apply = busy_ns(Phase::kApply);
  return apply > 0 ? est_scan / static_cast<double>(apply) : 0.0;
}

}  // namespace delta::obs::prof
