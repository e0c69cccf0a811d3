#include "trace.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>

#include "sim/chip.hpp"
#include "support.hpp"

namespace perfbench {

namespace ds = delta::sim;

Tracer::Id Tracer::open(const char* name, Id parent, std::uint64_t batch) {
  spans_.push_back(Span{name, now_ns(), 0, parent, batch});
  return static_cast<Id>(spans_.size() - 1);
}

void Tracer::close(Id id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

std::uint64_t Tracer::duration_ns(Id id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end_ns - s.start_ns;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,name,start_ns,end_ns,parent,batch\n");
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%llu,%llu,%lld,%llu\n", i, s.name,
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.batch));
  }
  return std::fclose(f) == 0;
}

namespace {

/// Forwards every Scheme hook to the wrapped scheme; begin_epoch also gets
/// a span, child of the epoch span traced_chip_run sets before each epoch.
class TimedScheme final : public ds::Scheme {
 public:
  TimedScheme(std::unique_ptr<ds::Scheme> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void set_parent(Tracer::Id span) { parent_ = span; }
  /// Duration of the latest begin_epoch call.
  double last_tick_s() const { return last_tick_s_; }

  std::string_view name() const override { return inner_->name(); }
  void reset(ds::Chip& chip) override { inner_->reset(chip); }
  void begin_epoch(ds::Chip& chip, std::uint64_t epoch) override {
    const Tracer::Id span = tracer_.open("policy.begin_epoch", parent_, epoch);
    inner_->begin_epoch(chip, epoch);
    tracer_.close(span);
    last_tick_s_ = static_cast<double>(tracer_.duration_ns(span)) * 1e-9;
  }
  ds::BankTarget map(const ds::Chip& chip, delta::CoreId core,
                     delta::BlockAddr block) const override {
    return inner_->map(chip, core, block);
  }
  delta::mem::WayMask insert_mask(const ds::Chip& chip, delta::CoreId core,
                                  delta::BankId bank) const override {
    return inner_->insert_mask(chip, core, bank);
  }
  delta::CoreId evict_preference(const ds::Chip& chip, delta::CoreId core,
                                 delta::BankId bank) const override {
    return inner_->evict_preference(chip, core, bank);
  }
  void on_insertion(ds::Chip& chip, delta::CoreId owner, delta::BankId bank,
                    const delta::mem::AccessResult& result) override {
    inner_->on_insertion(chip, owner, bank, result);
  }
  int allocated_ways(const ds::Chip& chip, delta::CoreId core) const override {
    return inner_->allocated_ways(chip, core);
  }
  const delta::core::WpUnit* wp_unit(delta::BankId bank) const override {
    return inner_->wp_unit(bank);
  }
  const delta::core::Cbt* cbt_of(delta::CoreId core) const override {
    return inner_->cbt_of(core);
  }
  std::int64_t tracked_occupancy(delta::BankId bank, delta::CoreId core) const override {
    return inner_->tracked_occupancy(bank, core);
  }
  bool debug_drop_way(delta::BankId bank, int way) override {
    return inner_->debug_drop_way(bank, way);
  }

 private:
  std::unique_ptr<ds::Scheme> inner_;
  Tracer& tracer_;
  Tracer::Id parent_ = Tracer::kNone;
  double last_tick_s_ = 0.0;
};

/// The MixResult Chip::run would return, read from the chip's public state
/// after warm-up + measured epochs.  `warmup_invalidated` is the chip's
/// invalidated-line count when the measured window began.
ds::MixResult assemble_result(ds::Chip& chip, const std::string& mix_name,
                              std::uint64_t warmup_invalidated) {
  ds::MixResult mr;
  mr.mix = mix_name;
  mr.scheme = std::string(chip.scheme().name());
  mr.traffic = chip.traffic();
  mr.control = ds::control_breakdown(chip.traffic());
  mr.invalidated_lines = chip.invalidated_lines() - warmup_invalidated;
  mr.measured_epochs = static_cast<std::uint64_t>(chip.config().measure_epochs);
  for (int c = 0; c < chip.cores(); ++c) {
    const ds::AppSlot& s = chip.slot(c);
    ds::AppResult a;
    a.app = s.app_name;
    a.core = c;
    if (s.active && s.cycles > 0) {
      a.instructions = static_cast<std::uint64_t>(s.instructions);
      a.ipc = s.instructions / static_cast<double>(s.cycles);
      a.cpi = a.ipc > 0.0 ? 1.0 / a.ipc : 0.0;
      a.llc_accesses = s.llc_hits + s.llc_misses;
      a.llc_misses = s.llc_misses;
      a.miss_rate = a.llc_accesses ? static_cast<double>(s.llc_misses) /
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
  mr.geomean_ipc = ds::workload_geomean_ipc(mr);
  return mr;
}

double seconds_of(const Tracer& tracer, Tracer::Id id) {
  return static_cast<double>(tracer.duration_ns(id)) * 1e-9;
}

}  // namespace

ChipTrace traced_chip_run(const ChipJob& job, Tracer& tracer, Tracer::Id parent) {
  ChipTrace out;
  auto timed = std::make_unique<TimedScheme>(ds::make_scheme(job.kind), tracer);
  TimedScheme* const policy = timed.get();
  const Tracer::Id ctor = tracer.open("chip.ctor", parent, 0);
  ds::Chip chip(job.cfg, job.mix.apps, std::move(timed));
  tracer.close(ctor);
  out.ctor_s = seconds_of(tracer, ctor);

  const int warmup = job.cfg.warmup_epochs;
  const int epochs = warmup + job.cfg.measure_epochs;
  std::uint64_t warmup_invalidated = 0;
  for (int e = 0; e < epochs; ++e) {
    if (e == warmup) {  // Chip::run's switch to the measured window.
      warmup_invalidated = chip.invalidated_lines();
      chip.traffic().reset();
    }
    const Tracer::Id span = tracer.open("chip.epoch", parent, static_cast<std::uint64_t>(e));
    policy->set_parent(span);
    chip.run_epochs(1, /*measuring=*/e >= warmup);
    tracer.close(span);
    out.epoch_s.push_back(seconds_of(tracer, span));
    out.tick_s.push_back(policy->last_tick_s());

    std::vector<std::uint64_t>& counts = out.accesses_by_epoch.emplace_back();
    for (int c = 0; c < chip.cores(); ++c) {
      const ds::AppSlot& s = chip.slot(c);
      counts.push_back(s.active ? s.epoch_accesses : 0);
      out.accesses += counts.back();
    }
    for (int m = 0; m < chip.memsys().num_mcus(); ++m)
      out.mcu_queue_cycles_sum += static_cast<double>(chip.memsys().mcu(m).queue_delay());
    out.mcu_queue_samples += static_cast<std::uint64_t>(chip.memsys().num_mcus());
  }
  out.run_s = sum(out.epoch_s);
  out.digest = digest(assemble_result(chip, job.mix.name, warmup_invalidated));
  return out;
}

void LayerCosts::fit_mem(double* hit_ns, double* miss_fill_ns) const {
  const double det = shh * smm - shm * shm;
  if (det > 1e-9 * shh * smm && det > 0.0) {
    *hit_ns = (sth * smm - stm * shm) / det;
    *miss_fill_ns = (stm * shh - sth * shm) / det;
    return;
  }
  // All-hit or all-miss batches (or proportional mixes): no split possible.
  const double per_access =
      accesses ? static_cast<double>(mem_ns) / static_cast<double>(accesses) : 0.0;
  *hit_ns = hits > 0 ? per_access : 0.0;
  *miss_fill_ns = hits < accesses ? per_access : 0.0;
}

void replay_layers(const ChipJob& job, const ChipTrace& trace, Tracer& tracer,
                   Tracer::Id parent, LayerCosts& costs) {
  ds::Chip chip(job.cfg, job.mix.apps, ds::make_scheme(job.kind));
  ds::Scheme& scheme = chip.scheme();
  const delta::noc::Mesh& mesh = chip.mesh();
  delta::noc::MemorySystem& memsys = chip.memsys();
  const delta::Cycles fixed_lat = job.cfg.llc_tag_latency + job.cfg.llc_data_latency;

  std::array<delta::BlockAddr, kReplayBatch> blocks{};
  std::array<ds::BankTarget, kReplayBatch> targets{};
  std::array<delta::mem::WayMask, kReplayBatch> masks{};
  std::array<delta::CoreId, kReplayBatch> prefs{};
  std::array<delta::mem::AccessResult, kReplayBatch> results{};
  delta::Cycles latency_sum = 0;
  std::uint64_t batch_id = 0;

  for (std::size_t e = 0; e < trace.accesses_by_epoch.size(); ++e) {
    const std::vector<std::uint64_t>& counts = trace.accesses_by_epoch[e];
    for (int c = 0; c < chip.cores(); ++c) {
      const std::uint64_t n = counts[static_cast<std::size_t>(c)];
      if (n == 0) continue;
      ds::AppSlot& slot = chip.slot(c);
      slot.gen->set_epoch(e);
      for (std::uint64_t done = 0; done < n;) {
        const std::size_t k =
            static_cast<std::size_t>(std::min<std::uint64_t>(kReplayBatch, n - done));
        done += k;
        const std::uint64_t id = batch_id++;
        const Tracer::Id batch = tracer.open("replay.batch", parent, id);

        Tracer::Id span = tracer.open("workload", batch, id);
        for (std::size_t i = 0; i < k; ++i) blocks[i] = slot.gen->next();
        tracer.close(span);
        costs.workload_ns += tracer.duration_ns(span);

        const std::uint64_t sampled_before = slot.umon->sampled_accesses();
        span = tracer.open("umon", batch, id);
        for (std::size_t i = 0; i < k; ++i) slot.umon->access(blocks[i]);
        tracer.close(span);
        costs.umon_ns += tracer.duration_ns(span);
        costs.umon_sampled += slot.umon->sampled_accesses() - sampled_before;

        span = tracer.open("scheme", batch, id);
        for (std::size_t i = 0; i < k; ++i) {
          targets[i] = scheme.map(chip, c, blocks[i]);
          masks[i] = scheme.insert_mask(chip, c, targets[i].bank);
          prefs[i] = scheme.evict_preference(chip, c, targets[i].bank);
        }
        tracer.close(span);
        costs.scheme_ns += tracer.duration_ns(span);

        std::uint64_t hits = 0;
        span = tracer.open("mem", batch, id);
        for (std::size_t i = 0; i < k; ++i) {
          results[i] = chip.bank(targets[i].bank)
                           .access(targets[i].set, blocks[i], c, masks[i], prefs[i]);
          hits += results[i].hit ? 1 : 0;
        }
        tracer.close(span);
        const double mem_ns = static_cast<double>(tracer.duration_ns(span));
        const double h = static_cast<double>(hits);
        const double m = static_cast<double>(k - hits);
        costs.mem_ns += tracer.duration_ns(span);
        costs.shh += h * h;
        costs.smm += m * m;
        costs.shm += h * m;
        costs.sth += mem_ns * h;
        costs.stm += mem_ns * m;

        span = tracer.open("scheme.on_insertion", batch, id);
        for (std::size_t i = 0; i < k; ++i)
          if (!results[i].hit && results[i].way >= 0)
            scheme.on_insertion(chip, c, targets[i].bank, results[i]);
        tracer.close(span);
        costs.scheme_ns += tracer.duration_ns(span);

        span = tracer.open("noc", batch, id);
        for (std::size_t i = 0; i < k; ++i) {
          delta::Cycles lat = mesh.round_trip(c, targets[i].bank) + fixed_lat;
          if (!results[i].hit) {
            const int mcu = memsys.mcu_for(blocks[i]);
            lat += mesh.round_trip(targets[i].bank, memsys.attach_tile(mcu)) +
                   memsys.mcu(mcu).request_latency();
          }
          latency_sum += lat;
        }
        tracer.close(span);
        costs.noc_ns += tracer.duration_ns(span);

        tracer.close(batch);
        costs.accesses += k;
        costs.hits += hits;
      }
    }
    memsys.end_epoch(job.cfg.epoch_cycles);
  }
  // Consume the latencies so the noc loop cannot be optimised away.
  costs.latency_cycles += latency_sum;
}

}  // namespace perfbench
