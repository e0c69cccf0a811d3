#include "sim/chip.hpp"

#include <algorithm>
#include <cassert>

#include "common/rng.hpp"
#include "mem/address.hpp"
#include "obs/prof/prof.hpp"
#include "sim/intra.hpp"
#include "sim/llc_kernel.hpp"

namespace delta::sim {

Chip::Chip(const MachineConfig& cfg, const std::vector<std::string>& apps,
           std::unique_ptr<Scheme> scheme)
    : cfg_(cfg),
      mesh_(cfg.mesh_width, cfg.mesh_height),
      memsys_(cfg.num_mcus, cfg.mesh_width, cfg.mesh_height, cfg.mcu),
      scheme_(std::move(scheme)) {
  assert(mesh_.tiles() == cfg_.cores);
  assert(static_cast<int>(apps.size()) == cfg_.cores);
  banks_.reserve(static_cast<std::size_t>(cfg_.cores));
  for (int b = 0; b < cfg_.cores; ++b)
    banks_.emplace_back(static_cast<std::uint32_t>(cfg_.sets_per_bank()),
                        cfg_.ways_per_bank);

  slots_.resize(static_cast<std::size_t>(cfg_.cores));
  std::uint64_t seed_state = cfg_.seed;
  for (int c = 0; c < cfg_.cores; ++c) {
    AppSlot& s = slots_[static_cast<std::size_t>(c)];
    s.app_name = apps[static_cast<std::size_t>(c)];
    const std::uint64_t core_seed = splitmix64(seed_state);
    if (s.app_name.empty() || s.app_name == "idle") continue;
    s.profile = &workload::spec_profile(s.app_name);
    // Disjoint 16 GB address windows per program instance.
    const Addr base = (static_cast<Addr>(c) + 1) << 34;
    s.gen = std::make_unique<workload::TraceGen>(*s.profile, base, core_seed);
    s.umon = std::make_unique<umon::Umon>(cfg_.umon);
    s.active = true;
    s.process_id = static_cast<std::uint32_t>(c) + 1;  // Multi-programmed: distinct.
    const workload::Phase& ph = s.profile->phases.front();
    s.cpi_est = ph.cpi_base + ph.apki / 1000.0 * 100.0 / ph.mlp;
  }
  epoch_targets_.resize(static_cast<std::size_t>(cfg_.cores));
  prev_hits_.resize(static_cast<std::size_t>(cfg_.cores));
  prev_misses_.resize(static_cast<std::size_t>(cfg_.cores));
  scheme_->reset(*this);
  intra_ = make_intra_engine(*this, cfg_.intra_jobs);
}

Chip::~Chip() = default;

unsigned Chip::intra_threads() const { return intra_ ? intra_->threads() : 1; }

void Chip::do_access_batch(CoreId c, std::uint64_t count, bool measuring) {
  // Profiled at batch granularity only (a per-access timer would dominate
  // the work it measures); disabled cost is one relaxed load.
  const obs::prof::ScopedSite prof_timer(obs::prof::Site::kAccessBatch);
  // Hot path: everything loop-invariant — the slot, its generator/monitor,
  // the scheme pointer, the cost-model view — is hoisted out of the
  // per-access loop, and per-access statistics accumulate in locals that
  // are folded into the slot and traffic counters once per batch.
  AppSlot& s = slots_[static_cast<std::size_t>(c)];
  workload::TraceGen* const gen = s.gen.get();
  umon::Umon* const um = s.umon.get();
  Scheme* const scheme = scheme_.get();
  const LlcKernel kernel(banks_, mesh_, memsys_, cfg_);

  std::uint64_t hits = 0, misses = 0, remote = 0;

  // Two-stage software pipeline: the next access's block is generated (and
  // its UMON stack prefetched) while the current access still has its mesh
  // and mask arithmetic ahead, and the mapped set's SoA rows are prefetched
  // right after map() so the tag row is L1-resident by the time access()
  // compares it.  Every component call stays in the historical per-access
  // order — the generator, monitor, scheme and bank each see exactly the
  // serial sequence, so results are byte-identical; only prefetch hints
  // (side-effect-free) overlap iterations.
  BlockAddr next_block = count != 0 ? gen->next() : BlockAddr{0};
  for (std::uint64_t i = 0; i < count; ++i) {
    const BlockAddr block = next_block;
    um->access(block);

    const BankTarget t = scheme->map(*this, c, block);
    bank(t.bank).prefetch_set(t.set);
    if (i + 1 < count) {
      next_block = gen->next();
      um->prefetch(next_block);
    }
    const int hops = mesh_.hops(c, t.bank);
    remote += hops > 0 ? 1 : 0;

    const mem::WayMask mask = scheme->insert_mask(*this, c, t.bank);
    const CoreId evict_pref = scheme->evict_preference(*this, c, t.bank);
    const LlcAccess a = kernel.access(t.bank, t.set, block, c, mask, evict_pref);
    if (a.res.hit) {
      ++hits;
    } else {
      if (a.res.way >= 0) scheme->on_insertion(*this, c, t.bank, a.res);
      memsys_.mcu(a.mcu).add_requests(1);
      ++misses;
    }

    // The double accumulators stay per-access in-place additions so every
    // sum sees the same values in the same order as the historical scalar
    // loop — floating-point results must not drift under the refactor.
    s.epoch_lat_sum += static_cast<double>(a.lat);
    if (measuring) {
      s.lat_sum += static_cast<double>(a.lat);
      s.hop_sum += static_cast<double>(hops);
    }
  }

  traffic_.count(noc::MsgType::kLlcRequest, remote);
  traffic_.count(noc::MsgType::kLlcResponse, remote);
  traffic_.count(noc::MsgType::kMemRequest, misses);
  traffic_.count(noc::MsgType::kMemResponse, misses);
  s.epoch_accesses += count;
  if (measuring) {
    s.llc_hits += hits;
    s.llc_misses += misses;
  }
}

void Chip::run_one_epoch(bool measuring) {
  const obs::prof::ScopedSpan epoch_span(obs::prof::Phase::kEpoch, epoch_);
  obs::prof::ScopedSpan policy_span(obs::prof::Phase::kPolicy, epoch_);
  // Phase selection + per-core access budget for this epoch.
  for (int c = 0; c < cfg_.cores; ++c) {
    AppSlot& s = slots_[static_cast<std::size_t>(c)];
    if (!s.active) {
      epoch_targets_[static_cast<std::size_t>(c)] = 0;
      continue;
    }
    s.gen->set_epoch(epoch_);
    const workload::Phase& ph = s.gen->phase();
    // cpi_est feeds performance back into the access budget, so counts
    // diverge across schemes.  Lockstep mode pins the budget to the
    // profile's nominal CPI instead, making per-app access streams
    // scheme-identical — the property the differential oracle checks.
    const double cpi = cfg_.lockstep_accesses
                           ? ph.cpi_base + ph.apki / 1000.0 * 100.0 / ph.mlp
                           : s.cpi_est;
    const double instr = static_cast<double>(cfg_.epoch_cycles) / cpi;
    epoch_targets_[static_cast<std::size_t>(c)] =
        static_cast<std::uint64_t>(instr * ph.apki / 1000.0);
    s.epoch_accesses = 0;
    s.epoch_lat_sum = 0.0;
  }

  // Reconfiguration hook (reads last epoch's monitors), then monitor decay
  // at the inter-bank cadence so pain/gain track phase changes.
  scheme_->begin_epoch(*this, epoch_);
  if (cfg_.delta.inter_interval_epochs > 0 &&
      epoch_ % static_cast<std::uint64_t>(cfg_.delta.inter_interval_epochs) == 0) {
    for (auto& s : slots_)
      if (s.umon) s.umon->decay(0.5);
  }
  // Invariant sweep over the post-reconfiguration state (way conservation,
  // CBT coverage, residency agreement, ...) before any access runs on it.
  if (checker_ != nullptr) checker_->on_epoch(*this, epoch_);
  policy_span.stop();

  // Interleaved issue: round-robin batches until every budget is drained.
  // The intra-run engine (sim/intra.hpp) replays this exact interleaving
  // from staged per-core streams when cfg_.intra_jobs asked for threads.
  if (intra_ != nullptr) {
    intra_->run_epoch_accesses(measuring);
  } else {
    const obs::prof::ScopedSpan access_span(obs::prof::Phase::kSerialAccess,
                                            epoch_);
    bool work_left = true;
    while (work_left) {
      work_left = false;
      for (int c = 0; c < cfg_.cores; ++c) {
        AppSlot& s = slots_[static_cast<std::size_t>(c)];
        std::uint64_t& target = epoch_targets_[static_cast<std::size_t>(c)];
        if (!s.active || s.epoch_accesses >= target) continue;
        const std::uint64_t batch =
            std::min<std::uint64_t>(kInterleaveBatch, target - s.epoch_accesses);
        do_access_batch(c, batch, measuring);
        if (s.epoch_accesses < target) work_left = true;
      }
    }
  }

  {
    const obs::prof::ScopedSpan acct_span(obs::prof::Phase::kAccounting, epoch_);
    memsys_.end_epoch(cfg_.epoch_cycles);
    finish_epoch_accounting(measuring);
    if (measuring && obs_ != nullptr && obs_->timeline_enabled())
      sample_timeline();
  }
  ++epoch_;
}

void Chip::sample_timeline() {
  obs::TimelineSampler& tl = obs_->timeline();
  for (int c = 0; c < cfg_.cores; ++c) {
    AppSlot& s = slots_[static_cast<std::size_t>(c)];
    if (!s.active) continue;
    const std::uint64_t hits = s.llc_hits - prev_hits_[static_cast<std::size_t>(c)];
    const std::uint64_t misses =
        s.llc_misses - prev_misses_[static_cast<std::size_t>(c)];
    prev_hits_[static_cast<std::size_t>(c)] = s.llc_hits;
    prev_misses_[static_cast<std::size_t>(c)] = s.llc_misses;
    const double avg_lat =
        s.epoch_accesses > 0
            ? s.epoch_lat_sum / static_cast<double>(s.epoch_accesses)
            : 0.0;
    tl.add_core(epoch_, c, s.app_name, s.cpi_est > 0.0 ? 1.0 / s.cpi_est : 0.0,
                scheme_->allocated_ways(*this, c), hits + misses, misses, avg_lat);
  }
  for (int m = 0; m < memsys_.num_mcus(); ++m) {
    const noc::MemoryController& mc = memsys_.mcu(m);
    tl.add_mcu(epoch_, m, mc.queue_delay(), mc.utilization());
  }
  tl.add_chip(epoch_, traffic_.control_messages() - prev_traffic_.control_messages(),
              traffic_.demand_messages() - prev_traffic_.demand_messages(),
              traffic_.invalidation_messages() - prev_traffic_.invalidation_messages(),
              invalidated_lines_ - prev_invalidated_lines_);
  prev_traffic_ = traffic_;
  prev_invalidated_lines_ = invalidated_lines_;
}

void Chip::finish_epoch_accounting(bool measuring) {
  for (int c = 0; c < cfg_.cores; ++c) {
    AppSlot& s = slots_[static_cast<std::size_t>(c)];
    if (!s.active) continue;
    const workload::Phase& ph = s.gen->phase();
    const double avg_lat =
        s.epoch_accesses > 0
            ? s.epoch_lat_sum / static_cast<double>(s.epoch_accesses)
            : 0.0;
    const double cpi = ph.cpi_base + ph.apki / 1000.0 * avg_lat / ph.mlp;
    s.cpi_est = cpi;
    // Performance-counter MLP estimate: total memory latency vs the stall
    // cycles the core actually paid this epoch (Little's law).
    s.mlp_estimator.observe(s.epoch_accesses, s.epoch_lat_sum,
                            s.epoch_lat_sum / ph.mlp);
    if (measuring) {
      s.instructions += static_cast<double>(cfg_.epoch_cycles) / cpi;
      s.cycles += cfg_.epoch_cycles;
      s.ways_sum += static_cast<double>(scheme_->allocated_ways(*this, c));
      ++s.ways_samples;
    }
  }
}

void Chip::run_epochs(int n, bool measuring) {
  for (int i = 0; i < n; ++i) run_one_epoch(measuring);
}

std::uint64_t Chip::invalidate_core_chunks(CoreId core, BankId old_bank,
                                           const std::vector<int>& chunks) {
  if (chunks.empty()) return 0;
  bool in_set[mem::kNumChunks] = {};
  for (int c : chunks) in_set[static_cast<std::size_t>(c)] = true;
  const int sets_log2 = cfg_.sets_log2;
  const bool reverse = cfg_.delta.reverse_chunk_bits;
  const std::uint64_t n = bank(old_bank).invalidate_if(
      [&](BlockAddr block, CoreId owner) {
        return owner == core &&
               in_set[static_cast<std::size_t>(mem::chunk_of(block, sets_log2, reverse))];
      });
  traffic_.count(noc::MsgType::kInvalidation);
  invalidated_lines_ += n;
  if (obs::EventRecorder* rec = event_sink())
    rec->record(obs::EventKind::kBulkInvalidation, epoch_, core, old_bank,
                /*other=*/-1, n, static_cast<double>(chunks.size()));
  return n;
}

MixResult Chip::run(const std::string& mix_name) {
  run_epochs(cfg_.warmup_epochs, /*measuring=*/false);
  traffic_.reset();
  invalidated_lines_ = 0;
  prev_traffic_.reset();
  prev_invalidated_lines_ = 0;
  run_epochs(cfg_.measure_epochs, /*measuring=*/true);

  MixResult mr;
  mr.mix = mix_name;
  mr.scheme = std::string(scheme_->name());
  mr.traffic = traffic_;
  mr.control = control_breakdown(traffic_);
  mr.invalidated_lines = invalidated_lines_;
  mr.measured_epochs = static_cast<std::uint64_t>(cfg_.measure_epochs);
  for (int c = 0; c < cfg_.cores; ++c) {
    const AppSlot& s = slots_[static_cast<std::size_t>(c)];
    AppResult a;
    a.app = s.app_name;
    a.core = c;
    if (s.active && s.cycles > 0) {
      a.instructions = static_cast<std::uint64_t>(s.instructions);
      a.ipc = s.instructions / static_cast<double>(s.cycles);
      a.cpi = a.ipc > 0.0 ? 1.0 / a.ipc : 0.0;
      a.llc_accesses = s.llc_hits + s.llc_misses;
      a.llc_misses = s.llc_misses;
      a.miss_rate = a.llc_accesses
                        ? static_cast<double>(s.llc_misses) /
                              static_cast<double>(a.llc_accesses)
                        : 0.0;
      a.mpki = s.instructions > 0.0
                   ? static_cast<double>(s.llc_misses) / (s.instructions / 1000.0)
                   : 0.0;
      a.avg_latency =
          a.llc_accesses ? s.lat_sum / static_cast<double>(a.llc_accesses) : 0.0;
      a.avg_hops =
          a.llc_accesses ? s.hop_sum / static_cast<double>(a.llc_accesses) : 0.0;
      a.avg_ways = s.ways_samples
                       ? s.ways_sum / static_cast<double>(s.ways_samples)
                       : 0.0;
    }
    mr.apps.push_back(std::move(a));
  }
  mr.geomean_ipc = workload_geomean_ipc(mr);
  return mr;
}

}  // namespace delta::sim
