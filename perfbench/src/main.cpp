// perfbench: host-time benchmark of the DELTA simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expected FILE] [--corrupt-expected] [--out-dir DIR]
//   perfbench --workload NAME --seed N --setup-only
//   perfbench --record --seed N      # print `<seed> <job> <digest>` lines
//
// A run prints a provenance line and then the result: {"correct",
// "attempted", "failed", "metrics"}.  --trace 0 gives the end-to-end
// metrics except setup_s, which perfbench/run.py measures with
// --setup-only in fresh processes; --trace 1 gives the per-layer metrics
// and writes the spans to DIR/NAME-spans.csv.  run.py builds this binary,
// runs it and prints the final result; see perfbench/README.md.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "support.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;
  bool corrupt_expected = false;
  std::string out_dir = ".bench_out";
  bool setup_only = false;
  bool record = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--expected FILE] [--corrupt-expected]\n"
               "                 [--out-dir DIR]\n"
               "       perfbench --workload NAME --seed N --setup-only\n"
               "       perfbench --record --seed N\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* s) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
    usage(flag + " needs a non-negative integer, got '" + s + "'");
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value());
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value());
      if (s == 0 || s > 3600) usage("--seconds must be in 1..3600");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace must be 0 or 1");
      a.trace = t == "1";
    } else if (flag == "--expected") {
      a.expected = value();
    } else if (flag == "--corrupt-expected") {
      a.corrupt_expected = true;
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--setup-only") {
      a.setup_only = true;
    } else if (flag == "--record") {
      a.record = true;
    } else {
      usage("unknown argument '" + flag + "'");
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.record) {
    for (const auto& [job, hex] : serial_digests(args.seed))
      std::printf("%llu %s %s\n", static_cast<unsigned long long>(args.seed),
                  job.c_str(), hex.c_str());
    return 0;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");

  Context ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.threads = threads_for(*w);
  if (args.setup_only) {
    std::printf("{\"setup_s\": %s}\n", json_number(w->setup(ctx)).c_str());
    return 0;
  }

  std::map<std::string, std::string> expected;
  if (!args.expected.empty()) {
    if (!std::filesystem::exists(args.expected)) usage("no such file: " + args.expected);
    expected = load_expected(args.expected, args.seed);
  }
  if (args.corrupt_expected) {
    // Self-test hook: every recorded digest gets one wrong hex digit.
    for (auto& [job, hex] : expected) hex.back() = hex.back() == '0' ? '1' : '0';
  }

  Provenance prov = collect_provenance(args.seed);
  for (const Workload& wl : workloads()) prov.threads[wl.name] = threads_for(wl);

  Ledger ledger(std::move(expected));
  Tracer tracer;
  const std::vector<Metric> metrics =
      args.trace ? w->trace(ctx, ledger, tracer) : w->measure(ctx, ledger);
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/" + w->name + "-spans.csv";
    if (!tracer.write_csv(path))
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }

  std::printf("{\"provenance\": %s, \"recorded_checks\": %llu, \"spans\": %zu}\n",
              provenance_json(prov).c_str(),
              static_cast<unsigned long long>(ledger.recorded_checks()), tracer.size());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()),
              metrics_json(metrics).c_str());
  return 0;
}
