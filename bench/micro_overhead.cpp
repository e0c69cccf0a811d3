// Overhead gate for the simulator's self-reporting paths: the observer
// (src/obs) and the self-profiler (src/obs/prof) must stay cheap.  Budgets:
//
//   observer attached at level off  < 2%  every emission site runs its
//                                         pointer test, nothing is collected
//   profiler disabled               < 2%  computed bound, see below
//   profiler at level full          < 8%  on the serial loop and on the
//                                         intra engine at 2 workers
//
// Seven chips run the same 16-core delta simulation of mix w6 (labels in
// kLabel).  The four serial chips carry the per-batch access site, the
// profiler's hottest; the three intra chips carry the worker, barrier and
// task spans and the stage_core/apply_bank/reduce_core sites.  The chips
// advance in lockstep, kChunk epochs at a time, and each chunk is timed in
// process CPU time (every thread's), so a busy host slows the chunks of one
// step alike.  The order rotates by one chip per step and flips direction
// every kConfigs steps, so each chip runs in each position equally often.
//
// A chip's overhead in one step is its chunk time over the mean of its
// engine's two base chunks, minus one (base again is taken over base alone:
// the A/A noise floor).  The verdict uses the median over all steps of all
// rounds; quartiles are printed beside it.  The disabled profiler cannot be
// raced against an uninstrumented twin in one binary, so its bound is
// computed per engine: the price of one disabled site times the sites an
// untimed full-level run executes, over the median base run.
//
// Exits 1 when any budget is exceeded.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "obs/observer.hpp"
#include "obs/prof/prof.hpp"
#include "sim/chip.hpp"

namespace {

using namespace delta;
using Clock = std::chrono::steady_clock;
namespace prof = obs::prof;

enum Config : std::size_t {
  kBase, kBaseAgain, kObsOff, kProfFull,    // Serial epoch loop.
  kIntraBase, kIntraBaseAgain, kIntraFull,  // Intra engine, 2 workers.
  kConfigs
};
constexpr const char* kLabel[kConfigs] = {
    "serial base",          "serial A/A (base again)", "serial observer off",
    "serial profiler full", "intra base",              "intra A/A (base again)",
    "intra profiler full"};

bool is_intra(Config c) { return c >= kIntraBase; }

constexpr int kRounds = 10;  ///< Whole runs of each chip.
constexpr int kChunk = 5;    ///< Epochs per timed step.

double cpu_ms() { return 1e3 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC; }

/// Prices one disabled instrumentation site: the loop body differs from the
/// baseline only by a ScopedSite whose gate check fails, so the per-
/// iteration delta is the relaxed load + branch every disabled site pays.
/// The volatile sink keeps both loops from collapsing.
double disabled_site_cost_ns() {
  constexpr std::uint64_t kIters = 20'000'000;
  volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) sink = sink + 1;
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    const prof::ScopedSite site(prof::Site::kAccessBatch);
    sink = sink + 1;
  }
  const auto t2 = Clock::now();
  const double base_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  const double site_ns = std::chrono::duration<double, std::nano>(t2 - t1).count();
  return std::max(0.0, (site_ns - base_ns) / static_cast<double>(kIters));
}

/// The q-quantile of `v`, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool verdict(const char* label, double pct, double budget) {
  const bool ok = pct < budget;
  std::printf("%-30s %+.3f%% vs budget %.1f%% - %s\n", label, pct, budget,
              ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ProfScope prof_scope(argc, argv);
  bench::print_header(
      "Self-reporting overhead (delta, mix w6, 16 cores, serial and 2 intra workers)",
      "budgets: observer off < 2%, profiler disabled < 2%, profiler full < 8%");

  sim::MachineConfig serial_cfg = sim::config16();
  serial_cfg.warmup_epochs = 20;
  serial_cfg.measure_epochs = 120;
  sim::MachineConfig intra_cfg = serial_cfg;
  intra_cfg.intra_jobs = 2;
  const workload::Mix mix = sim::mix_for_config(serial_cfg, "w6");
  const int epochs = serial_cfg.warmup_epochs + serial_cfg.measure_epochs;
  const auto make_chip = [&](Config c) {
    return std::make_unique<sim::Chip>(is_intra(c) ? intra_cfg : serial_cfg, mix.apps,
                                       sim::make_scheme(sim::SchemeKind::kDelta));
  };

  // step_ms[c][s]: chip c's CPU time in step s; run_ms[c][r]: whole round r.
  std::array<std::vector<double>, kConfigs> step_ms, run_ms;
  obs::Observer off(obs::ObsLevel::kOff);
  for (int round = 0; round < kRounds; ++round) {
    std::array<std::unique_ptr<sim::Chip>, kConfigs> chips;
    for (std::size_t c = 0; c < kConfigs; ++c) {
      chips[c] = make_chip(static_cast<Config>(c));
      run_ms[c].push_back(0.0);
    }
    off.begin_run("delta");
    chips[kObsOff]->set_observer(&off);
    prof::Profiler::instance().clear();  // Bounds the span log's memory.
    for (int step = 0; step * kChunk < epochs; ++step) {
      const auto s = static_cast<std::size_t>(step);
      const bool reversed = (s / kConfigs) % 2 == 1;
      for (std::size_t i = 0; i < kConfigs; ++i) {
        const auto c = static_cast<Config>((s + (reversed ? kConfigs - 1 - i : i)) %
                                           kConfigs);
        const bool full = c == kProfFull || c == kIntraFull;
        prof::set_level(full ? prof::ProfLevel::kFull : prof::ProfLevel::kOff);
        const double t0 = cpu_ms();
        chips[c]->run_epochs(kChunk, step * kChunk >= serial_cfg.warmup_epochs);
        const double dt = cpu_ms() - t0;
        prof::set_level(prof::ProfLevel::kOff);
        step_ms[c].push_back(dt);
        run_ms[c].back() += dt;
      }
    }
  }

  std::printf("\n%d rounds of %zu steps of %d epochs; median base run %.1f ms serial, "
              "%.1f ms intra (CPU time)\n\n%-30s %10s %10s %10s %9s\n",
              kRounds, step_ms[kBase].size() / kRounds, kChunk,
              quantile(run_ms[kBase], 0.5), quantile(run_ms[kIntraBase], 0.5),
              "overhead vs base", "median", "q1", "q3", "iqr");
  std::array<double, kConfigs> median{};
  for (const Config c : {kBaseAgain, kObsOff, kProfFull, kIntraBaseAgain, kIntraFull}) {
    const Config base = is_intra(c) ? kIntraBase : kBase;
    const Config again = is_intra(c) ? kIntraBaseAgain : kBaseAgain;
    std::vector<double> pct;
    for (std::size_t s = 0; s < step_ms[c].size(); ++s) {
      const double ref = c == again ? step_ms[base][s]
                                    : 0.5 * (step_ms[base][s] + step_ms[again][s]);
      pct.push_back((step_ms[c][s] / ref - 1.0) * 100.0);
    }
    median[c] = quantile(pct, 0.5);
    const double q1 = quantile(pct, 0.25), q3 = quantile(pct, 0.75);
    std::printf("%-30s %+9.2f%% %+9.2f%% %+9.2f%% %9.2f\n", kLabel[c], median[c], q1,
                q3, q3 - q1);
  }

  // A full-level run's snapshot holds the exact instrumentation-event count
  // any run of that engine executes; an off run takes the disabled branch of
  // each.
  const double site_ns = disabled_site_cost_ns();
  double disabled = 0.0;
  std::printf("\n");
  for (const Config c : {kBase, kIntraBase}) {
    const auto chip = make_chip(c);
    prof::Profiler::instance().clear();
    prof::set_level(prof::ProfLevel::kFull);
    chip->run_epochs(serial_cfg.warmup_epochs, false);
    chip->run_epochs(serial_cfg.measure_epochs, true);
    prof::set_level(prof::ProfLevel::kOff);
    const prof::ProfSnapshot snap = prof::Profiler::instance().snapshot();
    std::uint64_t sites = snap.spans.size() + snap.dropped_spans;
    for (const prof::SiteTotal& site : snap.sites) sites += site.calls;
    const double pct = site_ns * static_cast<double>(sites) /
                       (quantile(run_ms[c], 0.5) * 1e6) * 100.0;
    std::printf("%s: disabled-site cost %.2f ns x %llu sites/run = %+.3f%%\n",
                kLabel[c], site_ns, static_cast<unsigned long long>(sites), pct);
    disabled = std::max(disabled, pct);
  }
  std::printf("\n");

  bool ok = verdict("observer off", median[kObsOff], 2.0);
  ok &= verdict("profiler disabled (computed)", disabled, 2.0);
  ok &= verdict("serial profiler full", median[kProfFull], 8.0);
  ok &= verdict("intra profiler full", median[kIntraFull], 8.0);
  return ok ? 0 : 1;
}
