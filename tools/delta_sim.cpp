// delta_sim — command-line driver for arbitrary partitioning experiments.
//
//   delta_sim --mix w2 --scheme all                    # 16-core, all schemes
//   delta_sim --cores 64 --mix w13 --scheme delta
//   delta_sim --mix w6 --scheme delta --epochs 600 --warmup 100 --csv
//   delta_sim --apps "mc,po,xa,na,ze,hm,ga,gr,li,de,om,bw,so,ca,pe,Ge"
//   delta_sim --mix w2 --scheme ideal --central-ms 100  # Fig. 13 style
//   delta_sim --mix w2 --scheme delta --trace-out t.json  # Perfetto trace
//   delta_sim --mix w2 --scheme all --timeline-csv tl.csv --json summary.json
//   delta_sim --list                                    # apps and mixes
//
// Prints per-application and workload-level results; `--csv` switches to a
// machine-readable format for scripting sweeps.  The observability flags
// (--trace-out / --timeline-csv / --json / --obs-level) are documented in
// docs/observability.md.
//
// Exit codes: 0 on success (and for --help), 2 for bad input (an unknown
// flag, scheme, mix, app or level, or an out-of-range number), 1 when an
// output file cannot be written.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/prof/frontend.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/irregular.hpp"
#include "workload/mixes.hpp"
#include "workload/spec.hpp"

namespace {

using namespace delta;

// Sanity ceilings for the range-checked integer flags.
constexpr std::int64_t kMaxEpochs = 1'000'000;
constexpr std::int64_t kMaxThreads = 1024;

void list_everything() {
  std::printf("applications (Table III):\n");
  for (const auto& p : workload::spec_profiles())
    std::printf("  %-4s %-12s class %-2s\n", p.short_name.c_str(), p.name.c_str(),
                to_string(p.cls).c_str());
  std::printf("\napplications (irregular family):\n");
  for (const auto& p : workload::irregular_profiles())
    std::printf("  %-4s %-12s class %-2s\n", p.short_name.c_str(), p.name.c_str(),
                to_string(p.cls).c_str());
  std::printf("\nmixes (Table IV):\n");
  for (const auto& m : workload::table4_mixes()) {
    std::printf("  %-4s (%s): ", m.name.c_str(), m.composition.c_str());
    for (const auto& a : m.apps) std::printf("%s ", a.c_str());
    std::printf("\n");
  }
  std::printf("\nmixes (irregular):\n");
  for (const auto& m : workload::irregular_mixes()) {
    std::printf("  %-4s (%s): ", m.name.c_str(), m.composition.c_str());
    for (const auto& a : m.apps) std::printf("%s ", a.c_str());
    std::printf("\n");
  }
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

void print_result(const sim::MixResult& r, const sim::MixResult* baseline, bool csv,
                  std::FILE* text_out) {
  if (csv) {
    std::fputs(sim::csv_rows(r).c_str(), stdout);
    return;
  }
  std::fputs(sim::text_report(r, baseline).c_str(), text_out);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::vector<std::string> known = {
      "mix",        "apps",         "scheme",   "cores",       "epochs",
      "warmup",     "seed",         "csv",      "list",        "central-ms",
      "trace-out",  "timeline-csv", "json",     "obs-level",   "jobs",
      "intra-jobs", "prof-out",     "prof-level", "metrics-out", "help",
  };
  if (!args.unknown_flags(known).empty() || args.has("help")) {
    for (const auto& f : args.unknown_flags(known))
      std::fprintf(stderr, "unknown flag: --%s\n", f.c_str());
    std::fprintf(stderr,
                 "usage: delta_sim [--mix wN | --apps a,b,...] [--scheme "
                 "snuca|private|ideal|delta|carma|lfoc|all]\n"
                 "                 [--cores 16|64] [--epochs N] [--warmup N] "
                 "[--seed S] [--central-ms M] [--csv] [--list]\n"
                 "                 [--trace-out trace.json] [--timeline-csv ts.csv]\n"
                 "                 [--json [summary.json]] "
                 "[--obs-level off|summary|timeline|full]\n"
                 "                 [--jobs N]   (parallel scheme fan-out for "
                 "--scheme all; 0 = all hw threads)\n"
                 "                 [--intra-jobs N]   (threads inside each "
                 "simulation; 1 = serial, 0 = auto;\n"
                 "                                     byte-identical results "
                 "at any value)\n"
                 "                 [--prof-out prof.json]   (engine "
                 "self-profiling flamegraph, Chrome trace format)\n"
                 "                 [--metrics-out m.json|m.prom]   (metrics "
                 "dump; .prom/.txt = Prometheus text)\n"
                 "                 [--prof-level off|phases|full]\n");
    return args.has("help") ? 0 : 2;
  }
  if (args.has("list")) {
    list_everything();
    return 0;
  }

  // Self-profiling is armed before chips are constructed, so every span of
  // the run lands in the same timeline.
  const obs::prof::ProfSession prof(args);

  const std::string cores = args.get("cores", "16");
  if (cores != "16" && cores != "64") {
    std::fprintf(stderr, "--cores must be 16 or 64, got '%s'\n", cores.c_str());
    return 2;
  }
  sim::MachineConfig cfg = cores == "64" ? sim::config64() : sim::config16();
  cfg.measure_epochs =
      static_cast<int>(args.get_int_in("epochs", cfg.measure_epochs, 1, kMaxEpochs));
  cfg.warmup_epochs =
      static_cast<int>(args.get_int_in("warmup", cfg.warmup_epochs, 0, kMaxEpochs));
  cfg.seed = static_cast<std::uint64_t>(
      args.get_int_in("seed", static_cast<std::int64_t>(cfg.seed), 0,
                      std::numeric_limits<std::int64_t>::max()));
  // Intra-run engine threads (sim/intra.hpp): results are byte-identical at
  // any value, so this is safe to combine with every other flag.
  cfg.intra_jobs = static_cast<int>(args.get_int_in("intra-jobs", 1, 0, kMaxThreads));

  workload::Mix mix;
  if (args.has("apps")) {
    mix.name = "custom";
    mix.apps = split_csv(args.get("apps"));
    if (static_cast<int>(mix.apps.size()) != cfg.cores) {
      std::fprintf(stderr, "--apps needs exactly %d entries\n", cfg.cores);
      return 2;
    }
    for (const auto& a : mix.apps) {
      if (!workload::has_spec_profile(a) && a != "idle") {
        std::fprintf(stderr, "unknown app '%s' (try --list)\n", a.c_str());
        return 2;
      }
    }
  } else {
    try {
      mix = sim::mix_for_config(cfg, args.get("mix", "w2"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s (try --list)\n", e.what());
      return 2;
    }
  }

  sim::SchemeOptions opts;
  // One epoch is 0.1 ms; a shorter interval would truncate to zero epochs
  // and silently switch the ideal scheme's reconfiguration off.
  opts.central_interval_epochs = static_cast<int>(
      args.get_double_in("central-ms", 1.0, 0.1, kMaxEpochs / 10.0) * 10);

  const std::optional<obs::ObsLevel> obs_level = obs::prof::resolve_obs_level(args);
  const bool wants_obs = obs_level.has_value();
  std::unique_ptr<obs::Observer> observer;
  if (wants_obs) observer = std::make_unique<obs::Observer>(*obs_level);

  const std::string scheme = args.get("scheme", "all");
  const bool csv = args.has("csv");
  // JSON on stdout must stay parseable, so the human report yields to stderr.
  const bool json_stdout = args.has("json") && args.get("json").empty();
  std::FILE* text_out = json_stdout ? stderr : stdout;
  if (csv) std::printf("%s\n", sim::csv_header().c_str());

  // --jobs N fans the four --scheme all runs over N threads (0 = every
  // hardware thread); results are byte-identical to the serial default.
  // With observability outputs each job records into its own observer and
  // the per-job traces are merged back in scheme order — run-major, which
  // is exactly the order a serial observed execution emits (nothing in a
  // trace carries wall time), so the exported files match the serial ones.
  const unsigned jobs =
      static_cast<unsigned>(args.get_int_in("jobs", 1, 0, kMaxThreads));

  std::vector<sim::MixResult> results;
  if (scheme == "all") {
    // All six schemes (snuca, private, ideal, delta, carma, lfoc), printed
    // against the snuca baseline with ANTT/STP fairness vs private.
    std::vector<sim::MixResult> r;
    if (jobs != 1 && wants_obs) {
      std::vector<sim::SweepJob> sweep_jobs;
      std::vector<std::unique_ptr<obs::Observer>> job_obs;
      std::vector<obs::Observer*> obs_ptrs;
      for (sim::SchemeKind kind : sim::kAllSchemeKinds) {
        sweep_jobs.push_back(sim::SweepJob{cfg, mix, kind, opts});
        job_obs.push_back(std::make_unique<obs::Observer>(observer->level()));
        obs_ptrs.push_back(job_obs.back().get());
      }
      r = sim::run_sweep_observed(sweep_jobs, obs_ptrs, jobs);
      for (const auto& jo : job_obs) observer->merge_from(*jo);
    } else if (jobs != 1) {
      r = sim::run_schemes_sweep(cfg, {mix}, sim::kAllSchemeKinds, jobs, opts)
              .front();
    } else {
      for (sim::SchemeKind kind : sim::kAllSchemeKinds)
        r.push_back(sim::run_mix(cfg, mix, kind, opts, observer.get()));
    }
    for (const sim::MixResult& one : r) print_result(one, &r[0], csv, text_out);
    if (!csv) {
      const sim::MixResult& priv = r[1];
      std::fprintf(text_out,
                   "\nANTT/STP vs private: ideal %.3f/%.2f, delta %.3f/%.2f, "
                   "carma %.3f/%.2f, lfoc %.3f/%.2f\n",
                   sim::antt(r[2], priv), sim::stp(r[2], priv),
                   sim::antt(r[3], priv), sim::stp(r[3], priv),
                   sim::antt(r[4], priv), sim::stp(r[4], priv),
                   sim::antt(r[5], priv), sim::stp(r[5], priv));
    }
    results = r;
  } else {
    sim::SchemeKind kind;
    if (scheme == "snuca") {
      kind = sim::SchemeKind::kSnuca;
    } else if (scheme == "private") {
      kind = sim::SchemeKind::kPrivate;
    } else if (scheme == "ideal") {
      kind = sim::SchemeKind::kIdealCentralized;
    } else if (scheme == "delta") {
      kind = sim::SchemeKind::kDelta;
    } else if (scheme == "carma") {
      kind = sim::SchemeKind::kCarma;
    } else if (scheme == "lfoc") {
      kind = sim::SchemeKind::kLfoc;
    } else {
      std::fprintf(stderr, "unknown scheme '%s'\n", scheme.c_str());
      return 2;
    }
    const sim::MixResult r = sim::run_mix(cfg, mix, kind, opts, observer.get());
    print_result(r, nullptr, csv, text_out);
    results = {r};
  }

  using obs::prof::write_or_complain;
  bool io_ok = true;
  if (args.has("trace-out"))
    io_ok &= write_or_complain(args.get("trace-out"),
                               obs::chrome_trace_json(observer.get(), nullptr));
  if (args.has("timeline-csv"))
    io_ok &= write_or_complain(args.get("timeline-csv"),
                               obs::timeline_csv(*observer));
  if (args.has("json")) {
    const std::string summary = sim::json_summary(results, observer.get());
    const std::string path = args.get("json");
    if (path.empty()) {
      std::fputs(summary.c_str(), stdout);
    } else {
      io_ok &= write_or_complain(path, summary);
    }
  }
  io_ok &= prof.write_outputs(observer.get());
  return io_ok ? 0 : 1;
}
