// Irregular-access mixes (wi1..wi3): all six schemes on the flat-miss-curve
// workload family — gather/scatter (spmv), hash-join build/probe, and
// graph-traversal kernels.  Not a paper figure; this probes the failure mode
// the DELTA gain threshold exists for: capacity buys these kernels nothing,
// so a good allocator must starve them and keep the ways for the cache-
// sensitive co-runners (docs/performance.md, EXPERIMENTS.md "irregular").
//
// Usage: ext_irregular [--jobs N] [--quick] [--out FILE]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/export.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace delta;

void irregular_at(const sim::MachineConfig& base, const char* title,
                  const std::vector<std::string>& names, bool quick,
                  unsigned jobs, std::string& report) {
  sim::MachineConfig cfg = base;
  if (quick) {
    cfg.warmup_epochs = 5;
    cfg.measure_epochs = 15;
  }
  std::vector<workload::Mix> mixes;
  for (const std::string& n : names) mixes.push_back(sim::mix_for_config(cfg, n));

  const auto rs = sim::run_schemes_sweep(cfg, mixes, sim::kAllSchemeKinds, jobs);

  TextTable table({"mix", "private", "ideal", "delta", "carma", "lfoc"});
  TextTable fair({"mix", "delta antt", "delta stp", "carma antt", "carma stp",
                  "lfoc antt", "lfoc stp"});
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const std::vector<sim::MixResult>& r = rs[m];
    const sim::MixResult& snuca = r[0];
    const sim::MixResult& priv = r[1];
    std::vector<std::string> row = {names[m]};
    for (std::size_t k = 1; k < r.size(); ++k)
      row.push_back(fmt(sim::speedup(r[k], snuca), 3));
    table.add_row(row);
    std::vector<std::string> frow = {names[m]};
    for (std::size_t k = 3; k < r.size(); ++k) {  // delta, carma, lfoc
      frow.push_back(fmt(sim::antt(r[k], priv), 3));
      frow.push_back(fmt(sim::stp(r[k], priv), 2));
    }
    fair.add_row(frow);
  }

  report += "\n== ";
  report += title;
  report += " ==\nSpeedup over unpartitioned S-NUCA (1.000 = parity):\n";
  report += table.str();
  report += "\nFairness/throughput vs private (ANTT lower / STP higher is "
            "better):\n";
  report += fair.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ProfScope prof(argc, argv);
  bench::print_header("Irregular-access mixes — six schemes on flat miss curves",
                      "extension experiment (EXPERIMENTS.md, docs/workloads.md)");

  std::string out_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) out_path = argv[++i];
    if (a == "--quick") quick = true;
  }
  const unsigned jobs = bench::parse_jobs(argc, argv);

  std::vector<std::string> names = bench::irregular_mix_names();
  if (quick && names.size() > 2) names.resize(2);

  std::string report;
  irregular_at(sim::config16(), "16 tiles", names, quick, jobs, report);
  if (!quick) irregular_at(sim::config64(), "64 tiles", names, quick, jobs, report);

  std::printf("%s\n", report.c_str());
  if (!out_path.empty()) {
    if (!obs::write_text_file(out_path, report))
      std::perror(("writing " + out_path).c_str());
    else
      std::printf("report written to %s\n", out_path.c_str());
  }
  return 0;
}
