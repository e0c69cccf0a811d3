// delta_fuzz: deterministic seeded fuzzing of the simulator under the
// chip-wide invariant checker and the differential-scheme oracle.
//
//   delta_fuzz --seeds 25 --threads 2          # fuzz batch + determinism
//   delta_fuzz --repro 983378                  # re-run one failing seed
//   delta_fuzz --seeds 50 --out-dir fuzz-out   # write artifacts for CI
//
// Exit status is 0 only when every case is violation-free and the batch is
// reproducible byte-for-byte across thread counts.  See docs/testing.md.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "common/args.hpp"
#include "obs/prof/frontend.hpp"

namespace {

constexpr const char* kUsage = R"(delta_fuzz - invariant fuzz harness

Options:
  --seeds N           Number of fuzz cases (default 25).
  --seed-base S       First seed; case i uses S+i (default 983378).
  --threads N         Worker threads for the batch (default 1).
  --intra-jobs N      Worker threads inside each simulation (default 1;
                      0 = hardware threads).  Byte-identical at any value,
                      so combined with the determinism check this drives
                      the intra-run engine end to end.
  --repro SEED        Run exactly one seed, verbose, and exit.
  --sweep-interval N  Residency-sweep cadence in epochs (default 4, 0 = off).
  --out-dir DIR       Write summary JSON + per-failure reports into DIR.
  --no-invariants     Skip the per-epoch invariant checker.
  --no-differential   Skip the cross-scheme oracle.
  --no-determinism    Skip the 1-vs-N-thread byte-identity check.
  --no-lockstep       Use the measured-CPI feedback loop (disables the
                      cross-scheme access-equality assertion).
  --prof-out F        Engine self-profiling flamegraph (Chrome trace JSON).
  --metrics-out F     Metrics dump (.prom/.txt = Prometheus text, else JSON).
  --prof-level L      off|phases|full (default: implied by the outputs).
  --help              This text.
)";

void print_case_failure(const delta::check::FuzzCaseResult& c) {
  std::printf("FAIL seed %llu (mix: %s): %zu violation(s)\n",
              static_cast<unsigned long long>(c.seed), c.mix_desc.c_str(),
              c.violations.size());
  for (const auto& v : c.violations)
    std::printf("  %s\n", delta::check::to_string(v).c_str());
}

void write_artifacts(const std::string& dir,
                     const delta::check::FuzzReport& report,
                     const delta::check::DeterminismReport& det,
                     bool det_checked) {
  std::filesystem::create_directories(dir);
  std::ofstream summary(dir + "/fuzz-summary.json");
  summary << "{\n  \"cases\": " << report.cases.size()
          << ",\n  \"failures\": " << report.failures
          << ",\n  \"deterministic\": "
          << (det_checked ? (det.ok ? "true" : "false") : "null")
          << ",\n  \"failing_seeds\": [";
  bool first = true;
  for (const auto& c : report.cases) {
    if (c.ok) continue;
    summary << (first ? "" : ", ") << c.seed;
    first = false;
  }
  summary << "]\n}\n";

  for (const auto& c : report.cases) {
    if (c.ok) continue;
    std::ofstream f(dir + "/seed-" + std::to_string(c.seed) + ".txt");
    f << "seed: " << c.seed << "\nmix: " << c.mix_desc << "\n\n";
    for (const auto& v : c.violations) f << delta::check::to_string(v) << "\n";
    f << "\n--- json summary ---\n" << c.json;
  }
  if (det_checked && !det.ok)
    std::ofstream(dir + "/determinism.txt") << det.detail << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  delta::ArgParser args(argc, argv);
  const std::vector<std::string> known = {
      "seeds",          "seed-base",      "threads",       "intra-jobs",
      "repro",          "sweep-interval", "out-dir",       "no-invariants",
      "no-differential","no-determinism", "no-lockstep",   "prof-out",
      "metrics-out",    "prof-level",     "help"};
  const auto unknown = args.unknown_flags(known);
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag: --%s\n", f.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (args.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  const delta::obs::prof::ProfSession prof(args);

  constexpr std::int64_t kMaxSeed = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMaxThreads = 1024;
  constexpr std::int64_t kMaxCount = 1'000'000;
  delta::check::FuzzOptions opt;
  opt.base_seed =
      static_cast<std::uint64_t>(args.get_int_in("seed-base", 0xF0552, 0, kMaxSeed));
  opt.cases = static_cast<int>(args.get_int_in("seeds", 25, 1, kMaxCount));
  opt.threads = static_cast<unsigned>(args.get_int_in("threads", 1, 0, kMaxThreads));
  opt.intra_jobs = static_cast<int>(args.get_int_in("intra-jobs", 1, 0, kMaxThreads));
  opt.sweep_interval =
      static_cast<int>(args.get_int_in("sweep-interval", 4, 0, kMaxCount));
  opt.lockstep = !args.has("no-lockstep");
  opt.check_invariants = !args.has("no-invariants");
  opt.differential = !args.has("no-differential") && opt.lockstep;

  if (args.has("repro")) {
    const auto seed =
        static_cast<std::uint64_t>(args.get_int_in("repro", 0, 0, kMaxSeed));
    const auto c = delta::check::run_fuzz_case(seed, opt);
    std::printf("seed %llu mix: %s\n", static_cast<unsigned long long>(seed),
                c.mix_desc.c_str());
    if (c.ok) {
      std::printf("OK: no violations\n");
      return 0;
    }
    print_case_failure(c);
    return 1;
  }

  const delta::check::FuzzReport report = delta::check::run_fuzz(opt);
  for (const auto& c : report.cases)
    if (!c.ok) print_case_failure(c);
  std::printf("fuzz: %zu case(s), %d failure(s)\n", report.cases.size(),
              report.failures);

  delta::check::DeterminismReport det;
  const bool det_checked = !args.has("no-determinism");
  if (det_checked) {
    // 1 worker vs the requested count: catches cross-thread divergence, and
    // (since each batch reruns every seed) run-to-run nondeterminism too.
    const unsigned many = opt.threads > 1 ? opt.threads : 2;
    det = delta::check::verify_determinism(opt, 1, many);
    if (det.ok)
      std::printf("determinism: OK (1 vs %u threads, byte-identical)\n", many);
    else
      std::printf("determinism: FAIL %s\n", det.detail.c_str());
  }

  const std::string out_dir = args.get("out-dir");
  if (!out_dir.empty()) write_artifacts(out_dir, report, det, det_checked);

  const bool io_ok = prof.write_outputs();
  return report.ok() && (!det_checked || det.ok) && io_ok ? 0 : 1;
}
