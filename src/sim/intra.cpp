#include "sim/intra.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <thread>

#include "sim/chip.hpp"
#include "sim/llc_kernel.hpp"

namespace delta::sim {

namespace {
/// Outer capacity reserved per (core,bank) slice list at construction, so
/// typical epochs never reallocate the slice spine on the hot path.
constexpr std::size_t kSliceSpineReserve = 16;
}  // namespace

IntraEngine::IntraEngine(Chip& chip, unsigned threads)
    : chip_(chip),
      pool_(threads),
      profile_(threads) {
  const std::size_t cores = static_cast<std::size_t>(chip_.cores());
  const std::size_t mcus = static_cast<std::size_t>(chip_.memsys().num_mcus());
  stages_.resize(cores);
  tallies_.resize(cores);
  remote_.resize(cores);
  wstats_.resize(pool_.parties());
  task_errors_.resize(pool_.parties());
  staged_slices_ = std::make_unique<std::atomic<std::uint32_t>[]>(cores);
  stage_claim_ = std::make_unique<std::atomic<std::uint8_t>[]>(cores);
  reduce_claim_ = std::make_unique<std::atomic<std::uint8_t>[]>(cores);
  apply_claim_ = std::make_unique<SeqClaim[]>(cores);
  mask_words_ = (cores + 63) / 64;
  for (std::size_t c = 0; c < cores; ++c) {
    staged_slices_[c].store(0, std::memory_order_relaxed);
    stage_claim_[c].store(0, std::memory_order_relaxed);
    reduce_claim_[c].store(0, std::memory_order_relaxed);
  }

  // Warm pass: worker w sizes the per-core and per-bank buffers of its
  // static home range, so they are allocated and first touched before the
  // first epoch instead of on its hot path.  The profile is not armed yet,
  // so the section records nothing.
  const unsigned parties = pool_.parties();
  pool_.run([&](unsigned w) {
    const IndexRange r = static_partition(cores, parties, w);
    for (std::size_t c = r.begin; c < r.end; ++c) {
      CoreStage& st = stages_[c];
      st.to_bank.resize(cores);
      for (auto& bank_lists : st.to_bank) bank_lists.reserve(kSliceSpineReserve);
    }
    for (std::size_t b = r.begin; b < r.end; ++b) {
      BankTally& t = tallies_[b];
      t.hits.resize(cores);
      t.misses.resize(cores);
      t.mcu_reqs.resize(mcus);
      t.merge.reserve(cores);
    }
  });
}

void IntraEngine::prepare_epoch() {
  const std::size_t cores = static_cast<std::size_t>(chip_.cores());
  constexpr std::uint64_t batch = Chip::kInterleaveBatch;
  std::uint64_t max_target = 0;
  for (std::size_t c = 0; c < cores; ++c)
    max_target = std::max(max_target, chip_.epoch_targets_[c]);
  const std::uint64_t rounds = (max_target + batch - 1) / batch;

  // Apply-task granularity: enough slices that work can spread and overlap
  // staging, few enough that claim/readiness polling stays in the noise.
  std::uint64_t slice_rounds =
      chip_.cfg_.intra_apply_rounds > 0
          ? static_cast<std::uint64_t>(chip_.cfg_.intra_apply_rounds)
          : std::clamp<std::uint64_t>(rounds / (4 * pool_.parties()), 8, 256);
  slice_accesses_ = slice_rounds * batch;
  num_slices_ = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (rounds + slice_rounds - 1) / slice_rounds));

  for (std::size_t c = 0; c < cores; ++c) {
    CoreStage& st = stages_[c];
    for (auto& bank_lists : st.to_bank)
      if (bank_lists.size() < num_slices_) bank_lists.resize(num_slices_);
  }
  const std::size_t mask_total = cores * num_slices_ * mask_words_;
  if (mask_total > core_masks_cap_) {
    core_masks_ = std::make_unique<std::atomic<std::uint64_t>[]>(mask_total);
    core_masks_cap_ = mask_total;
  }
  for (std::size_t i = 0; i < mask_total; ++i)
    core_masks_[i].store(0, std::memory_order_relaxed);
  for (std::size_t c = 0; c < cores; ++c) {
    staged_slices_[c].store(0, std::memory_order_relaxed);
    stage_claim_[c].store(0, std::memory_order_relaxed);
    reduce_claim_[c].store(0, std::memory_order_relaxed);
    apply_claim_[c].reset(0);
  }
  stage_done_.store(0, std::memory_order_relaxed);
  banks_done_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  for (WorkerStats& ws : wstats_) ws = WorkerStats{};
}

void IntraEngine::stage_core(CoreId c) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kStageCore);
  const AppSlot& s = chip_.slots_[static_cast<std::size_t>(c)];
  CoreStage& st = stages_[static_cast<std::size_t>(c)];
  const std::uint64_t target = chip_.epoch_targets_[static_cast<std::size_t>(c)];
  for (auto& bank_lists : st.to_bank)
    for (std::uint32_t sl = 0; sl < num_slices_; ++sl) bank_lists[sl].clear();
  st.acc.clear();
  std::atomic<std::uint32_t>& mark = staged_slices_[static_cast<std::size_t>(c)];
  if (!s.active || target == 0) {
    mark.store(UINT32_MAX, std::memory_order_release);
    return;
  }

  st.acc.resize(static_cast<std::size_t>(target));
  workload::TraceGen* const gen = s.gen.get();
  umon::Umon* const um = s.umon.get();
  const Scheme* const scheme = chip_.scheme_.get();
  const std::uint64_t per_slice = slice_accesses_;
  std::uint32_t published = 0;
  // Same two-stage pipeline as Chip::do_access_batch: generate one access
  // ahead and prefetch its UMON stack while the current one is mapped and
  // staged.  Component call order is unchanged, so staging stays
  // byte-identical to the serial loop.
  BlockAddr next_block = gen->next();
  for (std::uint64_t i = 0; i < target; ++i) {
    const BlockAddr block = next_block;
    um->access(block);
    if (i + 1 < target) {
      next_block = gen->next();
      um->prefetch(next_block);
    }
    const BankTarget t = scheme->map(chip_, c, block);
    Staged& a = st.acc[static_cast<std::size_t>(i)];
    a.block = block;
    a.set = t.set;
    a.bank = static_cast<std::uint16_t>(t.bank);
    const std::uint32_t slice = static_cast<std::uint32_t>(i / per_slice);
    auto& seg = st.to_bank[static_cast<std::size_t>(t.bank)][slice];
    // First access of this (bank, slice): mark the core active there.  The
    // slice's watermark release below publishes the bit with the segment.
    if (seg.empty()) {
      const std::uint64_t bit = std::uint64_t{1} << (static_cast<unsigned>(c) & 63u);
      slice_mask(t.bank, slice)[static_cast<std::size_t>(c) >> 6].fetch_or(
          bit, std::memory_order_relaxed);
    }
    seg.push_back(static_cast<std::uint32_t>(i));
    // Publish the slice watermark once its segments are final: appliers
    // acquire it and may then read everything staged below it.
    if ((i + 1) % per_slice == 0)
      mark.store(++published, std::memory_order_release);
  }
  mark.store(UINT32_MAX, std::memory_order_release);
}

void IntraEngine::apply_bank_slice(BankId b, std::uint32_t slice,
                                   obs::prof::EngineProfile::MergeScratch* ms) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kApplyBank);
  BankTally& tally = tallies_[static_cast<std::size_t>(b)];
  if (slice == 0) {
    std::fill(tally.hits.begin(), tally.hits.end(), 0);
    std::fill(tally.misses.begin(), tally.misses.end(), 0);
    std::fill(tally.mcu_reqs.begin(), tally.mcu_reqs.end(), 0);
  }
  // Expand the slice's core mask into one cursor per core that staged
  // anything here, in ascending core order.  The claiming worker's
  // staged_min() acquire made every bit (and the segments) visible, so
  // relaxed loads suffice.
  tally.merge.clear();
  const std::atomic<std::uint64_t>* const staged_by = slice_mask(b, slice);
  for (std::size_t w = 0; w < mask_words_; ++w) {
    for (std::uint64_t bits = staged_by[w].load(std::memory_order_relaxed); bits != 0;
         bits &= bits - 1) {
      const std::size_t c = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      CoreStage& st = stages_[c];
      const std::vector<std::uint32_t>& seg =
          st.to_bank[static_cast<std::size_t>(b)][slice];
      tally.merge.push_back(
          {static_cast<CoreId>(c), st.acc.data(), seg.data(), seg.data() + seg.size()});
    }
  }

  mem::SetAssocCache& bank = chip_.banks_[static_cast<std::size_t>(b)];
  Scheme* const scheme = chip_.scheme_.get();
  const LlcKernel kernel(chip_.banks_, chip_.mesh_, chip_.memsys_, chip_.cfg_);

  // Canonical merge: the serial loop issues round-robin batches of
  // Chip::kInterleaveBatch per core, so this bank saw its accesses in ascending
  // (round, core, index) order with round = index / batch.  Each per-core
  // segment is already ascending; walk them round by round.  Slices chunk
  // the very same order, so concatenating the slice chain reproduces the
  // serial sequence exactly.
  constexpr std::uint32_t kBatch = static_cast<std::uint32_t>(Chip::kInterleaveBatch);
  // The workers' scratch slots share cache lines, so the merge counts in a
  // local copy and writes it back once per slice.
  obs::prof::EngineProfile::MergeScratch local;
  if (ms != nullptr) local = *ms;
  for (;;) {
    // The round scan below is the serialization the merge pays for
    // determinism; at kFull profiling one round in eight is clocked (two
    // now_ns() reads) so the serial fraction can be estimated without
    // doubling the scan cost.
    const bool sample = ms != nullptr && (local.rounds & 7u) == 0;
    const std::uint64_t scan_t0 = sample ? obs::prof::now_ns() : 0;
    // Lowest unconsumed round across the active cores (within this slice).
    std::uint32_t round = UINT32_MAX;
    for (const MergeCursor& m : tally.merge)
      if (m.next != m.end) round = std::min(round, *m.next / kBatch);
    if (ms != nullptr) {
      ++local.rounds;
      if (sample) {
        local.scan_ns += obs::prof::now_ns() - scan_t0;
        ++local.sampled_rounds;
      }
    }
    if (round == UINT32_MAX) break;

    // Ascending core order within the round keeps the canonical order.
    for (MergeCursor& m : tally.merge) {
      const CoreId c = m.core;
      while (m.next != m.end && *m.next / kBatch == round) {
        Staged& a = m.acc[*m.next];
        ++m.next;
        // Pull the next staged access's set rows toward L1 while this one
        // computes its masks and latency (hint only — no state change).
        if (m.next != m.end) bank.prefetch_set(m.acc[*m.next].set);
        const mem::WayMask mask = scheme->insert_mask(chip_, c, b);
        const CoreId evict_pref = scheme->evict_preference(chip_, c, b);
        const LlcAccess r = kernel.access(b, a.set, a.block, c, mask, evict_pref);
        if (r.res.hit) {
          ++tally.hits[static_cast<std::size_t>(c)];
        } else {
          if (r.res.way >= 0) scheme->on_insertion(chip_, c, b, r.res);
          ++tally.misses[static_cast<std::size_t>(c)];
          ++tally.mcu_reqs[static_cast<std::size_t>(r.mcu)];
        }
        a.lat = static_cast<std::uint32_t>(r.lat);
      }
    }
  }
  if (ms != nullptr) *ms = local;
}

void IntraEngine::reduce_core(CoreId c, bool measuring) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kReduceCore);
  AppSlot& s = chip_.slots_[static_cast<std::size_t>(c)];
  const CoreStage& st = stages_[static_cast<std::size_t>(c)];
  const noc::Mesh& mesh = chip_.mesh_;
  std::uint64_t remote = 0;
  // Stream order == the order the serial loop fed this core's accumulators
  // (interleaving only reorders accesses *across* cores), so these in-place
  // double additions reproduce the serial rounding bit-for-bit.
  for (const Staged& a : st.acc) {
    const int hops = mesh.hops(c, a.bank);
    remote += hops > 0 ? 1 : 0;
    s.epoch_lat_sum += static_cast<double>(a.lat);
    if (measuring) {
      s.lat_sum += static_cast<double>(a.lat);
      s.hop_sum += static_cast<double>(hops);
    }
  }
  remote_[static_cast<std::size_t>(c)] = remote;
  s.epoch_accesses += st.acc.size();
}

void IntraEngine::record_buffer_occupancy() {
  std::uint64_t pairs = 0, nonzero = 0;
  for (const CoreStage& st : stages_) {
    for (const auto& bank_lists : st.to_bank) {
      std::uint64_t staged = 0;
      for (std::uint32_t sl = 0; sl < num_slices_; ++sl)
        staged += bank_lists[sl].size();
      ++pairs;
      if (staged > 0) {
        ++nonzero;
        profile_.add_occupancy(staged, 0, 0);
      }
    }
  }
  profile_.add_occupancy(0, pairs, nonzero);
}

std::uint32_t IntraEngine::staged_min() const {
  const std::size_t cores = static_cast<std::size_t>(chip_.cores());
  std::uint32_t m = UINT32_MAX;
  // One acquire load per core: reading core c's own watermark is what makes
  // core c's staged data visible to this thread, so the minimum must be
  // recomputed here rather than cached by another worker.
  for (std::size_t c = 0; c < cores; ++c)
    m = std::min(m, staged_slices_[c].load(std::memory_order_acquire));
  return m;
}

void IntraEngine::run_stage_tasks(unsigned w) {
  const std::size_t cores = static_cast<std::size_t>(chip_.cores());
  const IndexRange home = static_partition(cores, pool_.parties(), w);
  WorkerStats& ws = wstats_[static_cast<std::size_t>(w)];
  const auto try_core = [&](std::size_t c) {
    // Relaxed claim: only decides *which* worker stages the core; the
    // core's RNG/monitor state was last written in the previous epoch and
    // is published by the pool's barriers.
    if (stage_claim_[c].exchange(1, std::memory_order_relaxed) != 0) return;
    profile_.task_begin(w, obs::prof::Phase::kStage);
    stage_core(static_cast<CoreId>(c));
    ++ws.tasks;
    if (c < home.begin || c >= home.end) ++ws.stolen;
    stage_done_.fetch_add(1, std::memory_order_relaxed);
  };
  for (std::size_t c = home.begin; c < home.end; ++c) {
    if (failed_.load(std::memory_order_relaxed)) return;
    try_core(c);
  }
  // Steal order fixed by task id (ascending core), so two runs schedule the
  // same candidates in the same order — only the claim winner varies, and
  // that never affects results.
  for (std::size_t c = 0; c < cores; ++c) {
    if (failed_.load(std::memory_order_relaxed)) return;
    try_core(c);
  }
}

void IntraEngine::run_apply_tasks(unsigned w) {
  const std::size_t banks = static_cast<std::size_t>(chip_.cores());
  const std::size_t cores = banks;
  const IndexRange home = static_partition(banks, pool_.parties(), w);
  WorkerStats& ws = wstats_[static_cast<std::size_t>(w)];
  obs::prof::EngineProfile::MergeScratch* const ms =
      profile_.armed() && profile_.full() ? &profile_.merge_scratch(w) : nullptr;
  while (banks_done_.load(std::memory_order_acquire) <
         static_cast<std::uint32_t>(banks)) {
    if (failed_.load(std::memory_order_relaxed)) return;
    const std::uint32_t ready = staged_min();  // Slices safe to apply.
    bool progressed = false;
    for (std::size_t k = 0; k < banks; ++k) {
      const std::size_t b = (home.begin + k) % banks;
      SeqClaim& claim = apply_claim_[b];
      const std::uint32_t s = claim.next_unit();
      if (s >= num_slices_ || s >= ready) continue;
      if (!claim.try_claim(s)) continue;
      const bool overlapped =
          stage_done_.load(std::memory_order_relaxed) <
          static_cast<std::uint32_t>(cores);
      profile_.task_begin(w, obs::prof::Phase::kApply);
      apply_bank_slice(static_cast<BankId>(b), s, ms);
      claim.complete(s);
      ++ws.tasks;
      ++ws.ranges;
      if (overlapped) ++ws.overlapped;
      if (b < home.begin || b >= home.end) ++ws.stolen;
      if (s + 1 == num_slices_)
        banks_done_.fetch_add(1, std::memory_order_release);
      progressed = true;
    }
    if (!progressed) std::this_thread::yield();
  }
}

void IntraEngine::run_reduce_tasks(unsigned w, bool measuring) {
  // Entered only after this worker observed banks_done_ == banks with an
  // acquire load, which (through the per-bank SeqClaim release chains)
  // happens-after every apply write — and transitively every stage write.
  const std::size_t cores = static_cast<std::size_t>(chip_.cores());
  const IndexRange home = static_partition(cores, pool_.parties(), w);
  WorkerStats& ws = wstats_[static_cast<std::size_t>(w)];
  const auto try_core = [&](std::size_t c) {
    if (reduce_claim_[c].exchange(1, std::memory_order_relaxed) != 0) return;
    profile_.task_begin(w, obs::prof::Phase::kReduce);
    reduce_core(static_cast<CoreId>(c), measuring);
    ++ws.tasks;
    if (c < home.begin || c >= home.end) ++ws.stolen;
  };
  for (std::size_t c = home.begin; c < home.end; ++c) {
    if (failed_.load(std::memory_order_relaxed)) return;
    try_core(c);
  }
  for (std::size_t c = 0; c < cores; ++c) {
    if (failed_.load(std::memory_order_relaxed)) return;
    try_core(c);
  }
}

void IntraEngine::worker_run(unsigned w, bool measuring) {
  profile_.section_begin(w);
  try {
    run_stage_tasks(w);
    if (!failed_.load(std::memory_order_relaxed)) run_apply_tasks(w);
    if (!failed_.load(std::memory_order_relaxed)) run_reduce_tasks(w, measuring);
  } catch (...) {
    task_errors_[static_cast<std::size_t>(w)] = std::current_exception();
    failed_.store(true, std::memory_order_relaxed);
  }
  profile_.work_done(w);
}

void IntraEngine::rethrow_task_errors() {
  for (std::size_t w = 0; w < task_errors_.size(); ++w) {
    if (task_errors_[w]) {
      const std::exception_ptr e = task_errors_[w];
      for (auto& slot : task_errors_) slot = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void IntraEngine::run_epoch_accesses(bool measuring) {
  const std::size_t cores = static_cast<std::size_t>(chip_.cores());
  const std::uint64_t epoch = chip_.epoch_;
  prepare_epoch();

  // One fused pool section per epoch: two barrier crossings where the
  // three-phase lockstep paid six.
  profile_.begin_section(epoch);
  pool_.run([&](unsigned w) { worker_run(w, measuring); });
  profile_.end_section();
  rethrow_task_errors();
  if (profile_.armed() && profile_.full()) record_buffer_occupancy();

  const obs::prof::ScopedSpan tail_span(obs::prof::Phase::kSerialTail, epoch);
  // Serial reduction of the integer tallies in fixed bank order.
  std::uint64_t total_remote = 0, total_misses = 0;
  for (std::size_t c = 0; c < cores; ++c) total_remote += remote_[c];
  for (std::size_t c = 0; c < cores; ++c) {
    std::uint64_t hits = 0, misses = 0;
    for (const BankTally& t : tallies_) {
      hits += t.hits[c];
      misses += t.misses[c];
    }
    total_misses += misses;
    if (measuring) {
      AppSlot& s = chip_.slots_[c];
      s.llc_hits += hits;
      s.llc_misses += misses;
    }
  }
  chip_.traffic_.count(noc::MsgType::kLlcRequest, total_remote);
  chip_.traffic_.count(noc::MsgType::kLlcResponse, total_remote);
  chip_.traffic_.count(noc::MsgType::kMemRequest, total_misses);
  chip_.traffic_.count(noc::MsgType::kMemResponse, total_misses);
  const int mcus = chip_.memsys_.num_mcus();
  for (int m = 0; m < mcus; ++m) {
    std::uint64_t reqs = 0;
    for (const BankTally& t : tallies_) reqs += t.mcu_reqs[static_cast<std::size_t>(m)];
    chip_.memsys_.mcu(m).add_requests(reqs);
  }
  profile_.end_epoch();

  // Machine-independent engine-health accounting (any profiling level).
  std::uint64_t tasks = 0, stolen = 0, ranges = 0, overlapped = 0;
  for (const WorkerStats& s : wstats_) {
    tasks += s.tasks;
    stolen += s.stolen;
    ranges += s.ranges;
    overlapped += s.overlapped;
  }
  profile_.count_epoch(/*pool_sections=*/1, tasks, stolen, ranges, overlapped);
}

std::unique_ptr<IntraEngine> make_intra_engine(Chip& chip, int intra_jobs) {
  unsigned n = intra_jobs <= 0 ? std::thread::hardware_concurrency()
                               : static_cast<unsigned>(intra_jobs);
  // More shards than banks cannot help.  An unknown hardware count (0)
  // also means no engine.
  n = std::min(n, static_cast<unsigned>(chip.cores()));
  if (n <= 1) return nullptr;
  return std::make_unique<IntraEngine>(chip, n);
}

}  // namespace delta::sim
