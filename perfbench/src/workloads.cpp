#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <thread>

#include "obs/prof/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "sim/runner.hpp"

namespace perfbench {

namespace ds = delta::sim;
namespace prof = delta::obs::prof;

namespace {

// ---- Run lengths (part of each workload's definition). ----

constexpr int kWarmupEpochs = 60;
// 200 epochs per 64-tile run: the epoch and policy-tick p95 have 10
// samples beyond them.
constexpr int kW13MeasureEpochs = 140;
constexpr int kShootoutMeasureEpochs = 60;
// MtConfig's default run length.
constexpr std::uint64_t kMtAccessesPerThread = 60'000;
constexpr std::array<const char*, 4> kMtProfiles = {"cholesky", "fft", "ocean.cont",
                                                    "water.nsq"};
constexpr std::array<const char*, 2> kShootoutMixes = {"w9", "wi1"};

constexpr std::size_t kMinReps = 3;

// ---- Jobs. ----

ChipJob w13_job(std::uint64_t seed, int intra_jobs) {
  ChipJob j;
  j.cfg = ds::config64();
  j.cfg.seed = seed;
  j.cfg.warmup_epochs = kWarmupEpochs;
  j.cfg.measure_epochs = kW13MeasureEpochs;
  j.cfg.intra_jobs = intra_jobs;
  j.mix = ds::mix_for_config(j.cfg, "w13");
  j.kind = ds::SchemeKind::kDelta;
  j.key = "w13_64/w13/delta";
  return j;
}

ds::MachineConfig shootout_config(std::uint64_t seed) {
  ds::MachineConfig cfg = ds::config16();
  cfg.seed = seed;
  cfg.warmup_epochs = kWarmupEpochs;
  cfg.measure_epochs = kShootoutMeasureEpochs;
  return cfg;
}

std::vector<delta::workload::Mix> shootout_mixes(const ds::MachineConfig& cfg) {
  std::vector<delta::workload::Mix> mixes;
  for (const char* m : kShootoutMixes) mixes.push_back(ds::mix_for_config(cfg, m));
  return mixes;
}

/// Mix-major, kAllSchemeKinds order: the order run_schemes_sweep returns.
std::vector<ChipJob> shootout_jobs(std::uint64_t seed) {
  const ds::MachineConfig cfg = shootout_config(seed);
  std::vector<ChipJob> jobs;
  for (const delta::workload::Mix& mix : shootout_mixes(cfg)) {
    for (ds::SchemeKind kind : ds::kAllSchemeKinds) {
      ChipJob j;
      j.cfg = cfg;
      j.mix = mix;
      j.kind = kind;
      j.key = "shootout16/" + mix.name + "/" + std::string(ds::to_string(kind));
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::vector<MtJob> mt_jobs(std::uint64_t seed) {
  std::vector<MtJob> jobs;
  for (const char* name : kMtProfiles) {
    for (ds::SchemeKind kind : {ds::SchemeKind::kDelta, ds::SchemeKind::kSnuca}) {
      MtJob j;
      j.cfg = ds::config16();
      j.profile = &delta::workload::splash_profile(name);
      j.kind = kind;
      j.mt.accesses_per_thread = kMtAccessesPerThread;
      j.mt.seed = seed;
      j.key = "splash16_mt/" + std::string(name) + "/" + std::string(ds::to_string(kind));
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

// ---- End-to-end metrics. ----

/// Timed repetitions of a workload's simulations.
struct Reps {
  std::vector<double> wall_s, cpu_s, maccess_per_s;
  void add(double wall, double cpu, std::uint64_t accesses) {
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
    maccess_per_s.push_back(static_cast<double>(accesses) * 1e-6 / wall);
  }
};

/// Calls `rep` (which adds one repetition) until `seconds` have passed and
/// at least kMinReps repetitions ran.
template <typename Rep>
Reps repeat_for(double seconds, Rep&& rep) {
  Reps reps;
  const double t0 = wall_now();
  while (reps.wall_s.size() < kMinReps || wall_now() - t0 < seconds) {
    rep(reps);
    std::fprintf(stderr, "perfbench: rep %zu wall %.4f s cpu %.4f s\n", reps.wall_s.size(),
                 reps.wall_s.back(), reps.cpu_s.back());
  }
  return reps;
}

std::vector<Metric> end_to_end(const Reps& reps) {
  return {
      {"wall_s", median(reps.wall_s), "s"},
      {"sim_maccess_per_s", median(reps.maccess_per_s), "Maccess/s"},
      {"cpu_s", median(reps.cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

double setup_w13_serial(const Context& ctx) { return time_chip_setup(w13_job(ctx.seed, 1)); }

double setup_w13_intra(const Context& ctx) {
  return time_chip_setup(w13_job(ctx.seed, static_cast<int>(ctx.threads)));
}

double setup_shootout(const Context& ctx) {
  double s = 0.0;
  for (const ChipJob& j : shootout_jobs(ctx.seed)) s += time_chip_setup(j);
  return s;
}

std::vector<Metric> measure_w13(const Context& ctx, Ledger& ledger, int intra_jobs) {
  const ChipJob job = w13_job(ctx.seed, intra_jobs);
  std::string reference;
  if (intra_jobs > 1) {
    const ChipRun serial = run_chip(w13_job(ctx.seed, 1));
    ledger.check(job.key, serial.digest);
    reference = serial.digest;
  }
  const Reps reps = repeat_for(ctx.seconds, [&](Reps& r) {
    const ChipRun run = run_chip(job);
    ledger.check(job.key, run.digest, reference);
    if (reference.empty()) reference = run.digest;
    r.add(run.wall_s, run.cpu_s, run.accesses);
  });
  return end_to_end(reps);
}

std::vector<Metric> measure_w13_serial(const Context& ctx, Ledger& ledger) {
  return measure_w13(ctx, ledger, 1);
}

std::vector<Metric> measure_w13_intra(const Context& ctx, Ledger& ledger) {
  return measure_w13(ctx, ledger, static_cast<int>(ctx.threads));
}

std::vector<Metric> measure_shootout(const Context& ctx, Ledger& ledger) {
  const std::vector<ChipJob> jobs = shootout_jobs(ctx.seed);
  std::vector<std::string> serial;
  std::uint64_t accesses = 0;
  for (const ChipJob& j : jobs) {
    const ChipRun run = run_chip(j);
    ledger.check(j.key, run.digest);
    serial.push_back(run.digest);
    accesses += run.accesses;
  }
  const ds::MachineConfig cfg = shootout_config(ctx.seed);
  const std::vector<delta::workload::Mix> mixes = shootout_mixes(cfg);
  const Reps reps = repeat_for(ctx.seconds, [&](Reps& r) {
    const Stopwatch sw;
    const auto results = ds::run_schemes_sweep(cfg, mixes, ds::kAllSchemeKinds, ctx.threads);
    const double wall = sw.wall(), cpu = sw.cpu();
    std::size_t i = 0;
    for (const auto& per_mix : results)
      for (const ds::MixResult& res : per_mix) {
        ledger.check(jobs[i].key, digest(res), serial[i]);
        ++i;
      }
    r.add(wall, cpu, accesses);
  });
  return end_to_end(reps);
}

// ---- Per-layer metrics. ----

/// Every per-layer metric; a layer the workload does not reach stays 0.
struct LayerReport {
  double workload_ns = 0, umon_ns = 0, umon_sampled_frac = 0, scheme_ns = 0;
  double mem_hit_ns = 0, mem_miss_fill_ns = 0, mem_hit_ratio = 0;
  double noc_ns = 0, noc_mcu_queue_cycles = 0;
  double policy_tick_us_p50 = 0, policy_tick_us_p95 = 0, policy_share = 0;
  double chip_ctor_ms = 0, chip_epoch_ms_p50 = 0, chip_epoch_ms_p95 = 0;
  double chip_ns_per_access = 0, chip_unattributed_share = 0;
  double intra_speedup = 0, intra_steal = 0, intra_overlap = 0, intra_barrier = 0;
  double intra_imbalance = 0, intra_merge = 0, intra_pairs_nonzero = 0;
  double sweep_job_s_p50 = 0, sweep_job_s_max = 0, sweep_efficiency = 0;
  double sweep_lpt_bound_s = 0;
  double mt_ns_per_access = 0, mt_reclassifications = 0, mt_flip_lines = 0;
  double trace_overhead_share = 0;

  /// Chip, policy and access-layer metrics from traced chip runs and the
  /// replay of their streams.
  void add_chips(const std::vector<ChipTrace>& traces, const LayerCosts& costs) {
    std::vector<double> epochs, ticks, ctors;
    double run_s = 0.0, queue_sum = 0.0;
    std::uint64_t accesses = 0, queue_samples = 0;
    for (const ChipTrace& t : traces) {
      epochs.insert(epochs.end(), t.epoch_s.begin(), t.epoch_s.end());
      ticks.insert(ticks.end(), t.tick_s.begin(), t.tick_s.end());
      ctors.push_back(t.ctor_s);
      run_s += t.run_s;
      accesses += t.accesses;
      queue_sum += t.mcu_queue_cycles_sum;
      queue_samples += t.mcu_queue_samples;
    }
    chip_ctor_ms = median(ctors) * 1e3;
    chip_epoch_ms_p50 = percentile(epochs, 50) * 1e3;
    chip_epoch_ms_p95 = percentile(epochs, 95) * 1e3;
    chip_ns_per_access = run_s * 1e9 / static_cast<double>(accesses);
    policy_tick_us_p50 = percentile(ticks, 50) * 1e6;
    policy_tick_us_p95 = percentile(ticks, 95) * 1e6;
    policy_share = sum(ticks) / run_s;
    noc_mcu_queue_cycles = queue_sum / static_cast<double>(queue_samples);

    const double n = static_cast<double>(costs.accesses);
    workload_ns = static_cast<double>(costs.workload_ns) / n;
    umon_ns = static_cast<double>(costs.umon_ns) / n;
    umon_sampled_frac = static_cast<double>(costs.umon_sampled) / n;
    scheme_ns = static_cast<double>(costs.scheme_ns) / n;
    costs.fit_mem(&mem_hit_ns, &mem_miss_fill_ns);
    mem_hit_ratio = static_cast<double>(costs.hits) / n;
    noc_ns = static_cast<double>(costs.noc_ns) / n;
    const double layers = workload_ns + umon_ns + scheme_ns +
                          static_cast<double>(costs.mem_ns) / n + noc_ns;
    chip_unattributed_share = 1.0 - layers / chip_ns_per_access;
  }

  std::vector<Metric> metrics() const {
    return {
        {"workload.ns_per_access", workload_ns, "ns"},
        {"umon.ns_per_access", umon_ns, "ns"},
        {"umon.sampled_frac", umon_sampled_frac, "ratio"},
        {"scheme.ns_per_access", scheme_ns, "ns"},
        {"mem.hit_ns", mem_hit_ns, "ns"},
        {"mem.miss_fill_ns", mem_miss_fill_ns, "ns"},
        {"mem.hit_ratio", mem_hit_ratio, "ratio"},
        {"noc.ns_per_access", noc_ns, "ns"},
        {"noc.mcu_queue_cycles", noc_mcu_queue_cycles, "cycles"},
        {"policy.tick_us_p50", policy_tick_us_p50, "us"},
        {"policy.tick_us_p95", policy_tick_us_p95, "us"},
        {"policy.share", policy_share, "ratio"},
        {"chip.ctor_ms", chip_ctor_ms, "ms"},
        {"chip.epoch_ms_p50", chip_epoch_ms_p50, "ms"},
        {"chip.epoch_ms_p95", chip_epoch_ms_p95, "ms"},
        {"chip.ns_per_access", chip_ns_per_access, "ns"},
        {"chip.unattributed_share", chip_unattributed_share, "ratio"},
        {"intra.speedup_vs_serial", intra_speedup, "x"},
        {"intra.steal_fraction", intra_steal, "ratio"},
        {"intra.stage_apply_overlap", intra_overlap, "ratio"},
        {"intra.barrier_wait_fraction", intra_barrier, "ratio"},
        {"intra.worker_imbalance", intra_imbalance, "x"},
        {"intra.merge_serial_fraction", intra_merge, "ratio"},
        {"intra.buffer_pairs_nonzero_frac", intra_pairs_nonzero, "ratio"},
        {"sweep.job_s_p50", sweep_job_s_p50, "s"},
        {"sweep.job_s_max", sweep_job_s_max, "s"},
        {"sweep.efficiency", sweep_efficiency, "ratio"},
        {"sweep.lpt_bound_s", sweep_lpt_bound_s, "s"},
        {"mt.ns_per_access", mt_ns_per_access, "ns"},
        {"mt.reclassifications", mt_reclassifications, "count"},
        {"mt.flip_invalidated_lines", mt_flip_lines, "count"},
        {"trace.overhead_share", trace_overhead_share, "ratio"},
    };
  }
};

double registry_value(const prof::RegistrySnapshot& snap, const char* name) {
  const prof::MetricSample* m = snap.find(name);
  return m != nullptr ? m->value : 0.0;
}

/// Replays each traced job's streams and folds everything into `report`.
void add_chip_layers(const std::vector<ChipJob>& jobs,
                     const std::vector<ChipTrace>& traces, Tracer& tracer,
                     LayerReport& report) {
  LayerCosts costs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Tracer::Id span = tracer.open("replay", Tracer::kNone, i);
    replay_layers(jobs[i], traces[i], tracer, span, costs);
    tracer.close(span);
  }
  report.add_chips(traces, costs);
}

/// The mt layer.  run_multithreaded has no end-to-end workload of its own
/// (its host time swung too widely from run to run on a shared host; see
/// README.md), so the serial workload's traced run measures it.  Each job
/// runs once untraced and once inside a span; the two digests must agree.
void add_mt_layer(const Context& ctx, Ledger& ledger, Tracer& tracer,
                  LayerReport& report) {
  const std::vector<MtJob> jobs = mt_jobs(ctx.seed);
  double traced_s = 0.0;
  std::uint64_t accesses = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string untraced = run_mt(jobs[i]).digest;
    ledger.check(jobs[i].key, untraced);
    const Tracer::Id span = tracer.open("mt.job", Tracer::kNone, i);
    const MtRun run = run_mt(jobs[i]);
    tracer.close(span);
    ledger.check(jobs[i].key, run.digest, untraced);
    traced_s += static_cast<double>(tracer.duration_ns(span)) * 1e-9;
    accesses += jobs[i].accesses();
    report.mt_reclassifications += static_cast<double>(run.result.reclassifications);
    report.mt_flip_lines += static_cast<double>(run.result.page_invalidation_lines);
  }
  report.mt_ns_per_access = traced_s * 1e9 / static_cast<double>(accesses);
}

LayerReport trace_w13(const Context& ctx, Ledger& ledger, Tracer& tracer,
                      int intra_jobs) {
  LayerReport report;
  const ChipJob job = w13_job(ctx.seed, intra_jobs);
  const ChipRun serial = run_chip(w13_job(ctx.seed, 1));
  ledger.check(job.key, serial.digest);
  double untraced_s = serial.wall_s;
  if (intra_jobs > 1) {
    const ChipRun parallel = run_chip(job);
    ledger.check(job.key, parallel.digest, serial.digest);
    untraced_s = parallel.wall_s;
    report.intra_speedup = serial.wall_s / parallel.wall_s;
    // The engine's derived metrics need the profiler armed before the
    // chip (and its worker pool) is built.
    prof::MetricsRegistry::global().reset_values();
    prof::set_level(prof::ProfLevel::kFull);
  }
  const Tracer::Id root = tracer.open("job", Tracer::kNone, 0);
  const ChipTrace trace = traced_chip_run(job, tracer, root);
  tracer.close(root);
  ledger.check(job.key, trace.digest, serial.digest);
  if (intra_jobs > 1) {
    prof::set_level(prof::ProfLevel::kOff);
    const prof::RegistrySnapshot snap = prof::MetricsRegistry::global().snapshot();
    prof::Profiler::instance().clear();
    report.intra_steal = registry_value(snap, "delta_intra_steal_fraction");
    report.intra_overlap = registry_value(snap, "delta_intra_stage_apply_overlap_fraction");
    report.intra_barrier = registry_value(snap, "delta_intra_barrier_wait_fraction");
    report.intra_imbalance = registry_value(snap, "delta_intra_worker_imbalance_ratio");
    report.intra_merge = registry_value(snap, "delta_intra_merge_serial_fraction");
    const double pairs = registry_value(snap, "delta_intra_bank_buffer_pairs_total");
    report.intra_pairs_nonzero =
        pairs > 0 ? registry_value(snap, "delta_intra_bank_buffer_pairs_nonzero") / pairs
                  : 0.0;
  }
  report.trace_overhead_share = (trace.run_s - untraced_s) / untraced_s;
  add_chip_layers({job}, {trace}, tracer, report);
  return report;
}

std::vector<Metric> trace_w13_serial(const Context& ctx, Ledger& ledger, Tracer& tracer) {
  LayerReport report = trace_w13(ctx, ledger, tracer, 1);
  add_mt_layer(ctx, ledger, tracer, report);
  return report.metrics();
}

std::vector<Metric> trace_w13_intra(const Context& ctx, Ledger& ledger, Tracer& tracer) {
  return trace_w13(ctx, ledger, tracer, static_cast<int>(ctx.threads)).metrics();
}

std::vector<Metric> trace_shootout(const Context& ctx, Ledger& ledger, Tracer& tracer) {
  LayerReport report;
  const std::vector<ChipJob> jobs = shootout_jobs(ctx.seed);
  // Serial per-job times through run_mix: the sweep's job sizes.
  std::vector<double> job_s;
  std::vector<std::string> serial;
  for (const ChipJob& j : jobs) {
    const Stopwatch sw;
    const ds::MixResult res = ds::run_mix(j.cfg, j.mix, j.kind);
    job_s.push_back(sw.wall());
    serial.push_back(digest(res));
    ledger.check(j.key, serial.back());
  }
  const ds::MachineConfig cfg = shootout_config(ctx.seed);
  const Stopwatch sweep_sw;
  const auto results =
      ds::run_schemes_sweep(cfg, shootout_mixes(cfg), ds::kAllSchemeKinds, ctx.threads);
  const double sweep_s = sweep_sw.wall();
  std::size_t i = 0;
  for (const auto& per_mix : results)
    for (const ds::MixResult& res : per_mix) {
      ledger.check(jobs[i].key, digest(res), serial[i]);
      ++i;
    }
  report.sweep_job_s_p50 = median(job_s);
  report.sweep_job_s_max = percentile(job_s, 100);
  report.sweep_efficiency = sum(job_s) / (static_cast<double>(ctx.threads) * sweep_s);
  report.sweep_lpt_bound_s = lpt_makespan(job_s, ctx.threads);

  std::vector<ChipTrace> traces;
  double traced_s = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Tracer::Id span = tracer.open("sweep.job", Tracer::kNone, j);
    traces.push_back(traced_chip_run(jobs[j], tracer, span));
    tracer.close(span);
    ledger.check(jobs[j].key, traces.back().digest, serial[j]);
    traced_s += traces.back().ctor_s + traces.back().run_s;
  }
  report.trace_overhead_share = (traced_s - sum(job_s)) / sum(job_s);
  add_chip_layers(jobs, traces, tracer, report);
  return report.metrics();
}


}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"w13_64_serial", 1, setup_w13_serial, measure_w13_serial, trace_w13_serial},
      // Two workers: the intra pipeline spins at every epoch boundary, so on
      // a shared host four workers on four vCPUs wait whenever one vCPU is
      // descheduled, and the run-to-run spread of wall_s exceeded 0.25.
      {"w13_64_intra", 2, setup_w13_intra, measure_w13_intra, trace_w13_intra},
      {"shootout16_sweep", 4, setup_shootout, measure_shootout, trace_shootout},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

unsigned threads_for(const Workload& w) {
  return std::clamp(std::thread::hardware_concurrency(), 1u, w.max_threads);
}

std::vector<std::pair<std::string, std::string>> serial_digests(std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> out;
  const ChipJob w13 = w13_job(seed, 1);
  out.emplace_back(w13.key, run_chip(w13).digest);
  for (const ChipJob& j : shootout_jobs(seed)) out.emplace_back(j.key, run_chip(j).digest);
  for (const MtJob& j : mt_jobs(seed)) out.emplace_back(j.key, run_mt(j).digest);
  return out;
}

}  // namespace perfbench
