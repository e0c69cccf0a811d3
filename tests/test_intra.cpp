// Intra-run engine determinism: Chip's bank-sharded parallel epoch engine
// (sim/intra.hpp) must be byte-identical to the serial loop at every thread
// count.  These tests compare full JSON summaries — every per-app double,
// traffic counter and control-message count — because "close" is not the
// contract; bit-equal is.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace delta {
namespace {

sim::MachineConfig quick16(int intra_jobs) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 10;
  cfg.measure_epochs = 30;
  cfg.intra_jobs = intra_jobs;
  return cfg;
}

sim::MachineConfig quick64(int intra_jobs) {
  sim::MachineConfig cfg = sim::config64();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  cfg.intra_jobs = intra_jobs;
  return cfg;
}

std::string run_summary(const sim::MachineConfig& cfg, const std::string& mix,
                        sim::SchemeKind kind) {
  const sim::MixResult r =
      sim::run_mix(cfg, sim::mix_for_config(cfg, mix), kind);
  return sim::json_summary({&r, 1});
}

constexpr sim::SchemeKind kAllSchemes[] = {
    sim::SchemeKind::kSnuca,  sim::SchemeKind::kPrivate,
    sim::SchemeKind::kIdealCentralized, sim::SchemeKind::kDelta,
    sim::SchemeKind::kCarma,  sim::SchemeKind::kLfoc};

TEST(Intra, ByteIdenticalAllSchemes16Core) {
  for (const sim::SchemeKind kind : kAllSchemes) {
    const std::string serial = run_summary(quick16(1), "w2", kind);
    // 2, 4, and auto (hardware threads): one shard per thread, every
    // partitioning of the cores/banks must replay the same interleaving.
    EXPECT_EQ(serial, run_summary(quick16(2), "w2", kind))
        << "intra-jobs 2 diverged for " << sim::to_string(kind);
    EXPECT_EQ(serial, run_summary(quick16(4), "w2", kind))
        << "intra-jobs 4 diverged for " << sim::to_string(kind);
    EXPECT_EQ(serial, run_summary(quick16(0), "w2", kind))
        << "intra-jobs auto diverged for " << sim::to_string(kind);
  }
}

TEST(Intra, ByteIdentical64Tile) {
  // The 64-tile machine has 4x the banks and the replicated mix; keep the
  // run short but cover the schemes with during-epoch machinery (delta's
  // distributed controller, carma's auction enforcement, lfoc's slice
  // resizing) plus the S-NUCA baseline.  8 jobs oversubscribes a small CI
  // host, which is exactly the regime where stolen schedules differ most
  // between runs — and must still not differ in results.
  for (const sim::SchemeKind kind :
       {sim::SchemeKind::kDelta, sim::SchemeKind::kSnuca,
        sim::SchemeKind::kCarma, sim::SchemeKind::kLfoc}) {
    const std::string serial = run_summary(quick64(1), "w13", kind);
    EXPECT_EQ(serial, run_summary(quick64(4), "w13", kind))
        << "64-tile intra-jobs 4 diverged for " << sim::to_string(kind);
    EXPECT_EQ(serial, run_summary(quick64(8), "w13", kind))
        << "64-tile intra-jobs 8 diverged for " << sim::to_string(kind);
  }
}

TEST(Intra, ByteIdenticalAcrossApplySliceSizes) {
  // The apply-task slice size is pure scheduling: any value (including the
  // degenerate one-round slices) must reproduce the serial bytes.
  const std::string serial = run_summary(quick16(1), "w2", sim::SchemeKind::kDelta);
  for (const int rounds : {1, 3, 1000}) {
    sim::MachineConfig cfg = quick16(4);
    cfg.intra_apply_rounds = rounds;
    EXPECT_EQ(serial, run_summary(cfg, "w2", sim::SchemeKind::kDelta))
        << "intra_apply_rounds " << rounds << " diverged";
  }
  // 64 tiles exercise the per-(bank, slice) core masks of the sparse merge
  // at their edges.  DELTA keeps each app near its home bank, so masks are
  // sparse and change from slice to slice; S-NUCA spreads every core over
  // every bank, so masks are dense up to core 63, the last bit of the word.
  for (const sim::SchemeKind kind : {sim::SchemeKind::kDelta, sim::SchemeKind::kSnuca}) {
    const std::string serial64 = run_summary(quick64(1), "w13", kind);
    for (const int rounds : {1, 3, 1000}) {
      sim::MachineConfig cfg = quick64(4);
      cfg.intra_apply_rounds = rounds;
      EXPECT_EQ(serial64, run_summary(cfg, "w13", kind))
          << "64-tile " << sim::to_string(kind) << " intra_apply_rounds " << rounds
          << " diverged";
    }
  }
}

TEST(Intra, FuzzBatchThroughIntraEngine) {
  // Randomized configs (both enforcement flavours, both chunk encodings,
  // idle cores, tight cadences) through the parallel engine, with the
  // chip-wide invariant checker attached and the serial run as oracle.
  check::FuzzOptions serial;
  serial.cases = 3;
  serial.intra_jobs = 1;
  check::FuzzOptions par = serial;
  par.intra_jobs = 2;
  const check::FuzzReport a = check::run_fuzz(serial);
  const check::FuzzReport b = check::run_fuzz(par);
  ASSERT_EQ(a.cases.size(), b.cases.size());
  EXPECT_EQ(b.failures, 0);
  for (std::size_t i = 0; i < a.cases.size(); ++i)
    EXPECT_EQ(a.cases[i].json, b.cases[i].json)
        << "fuzz seed " << a.cases[i].seed << " diverged under intra-jobs 2";
}

TEST(Intra, SweepBudgetSplitPreservesResults) {
  // intra_jobs = 0 inside a sweep resolves to the leftover thread budget;
  // whatever the split turns out to be, results must match the all-serial
  // sweep byte for byte.
  const std::vector<workload::Mix> mixes = {
      sim::mix_for_config(quick16(1), "w2")};
  std::vector<sim::SweepJob> auto_jobs, serial_jobs;
  for (const sim::SchemeKind kind : kAllSchemes) {
    auto_jobs.push_back({quick16(0), mixes[0], kind, {}});
    serial_jobs.push_back({quick16(1), mixes[0], kind, {}});
  }
  const auto swept_auto = sim::run_sweep(auto_jobs, 2);
  const auto swept_serial = sim::run_sweep(serial_jobs, 1);
  ASSERT_EQ(swept_auto.size(), swept_serial.size());
  EXPECT_EQ(sim::json_summary(swept_auto), sim::json_summary(swept_serial));
}

TEST(Intra, ObservedSweepMergesToSerialTrace) {
  // delta_sim's --jobs + observability path: per-job observers merged in
  // scheme order must export the same trace/timeline a serial observed
  // comparison produces.
  const sim::MachineConfig cfg = quick16(1);
  const workload::Mix mix = sim::mix_for_config(cfg, "w2");

  obs::Observer serial_obs(obs::ObsLevel::kFull);
  for (const sim::SchemeKind kind : kAllSchemes)
    (void)sim::run_mix(cfg, mix, kind, {}, &serial_obs);

  std::vector<sim::SweepJob> jobs;
  std::vector<std::unique_ptr<obs::Observer>> job_obs;
  std::vector<obs::Observer*> ptrs;
  for (const sim::SchemeKind kind : kAllSchemes) {
    jobs.push_back({cfg, mix, kind, {}});
    job_obs.push_back(std::make_unique<obs::Observer>(obs::ObsLevel::kFull));
    ptrs.push_back(job_obs.back().get());
  }
  (void)sim::run_sweep_observed(jobs, ptrs, 4);
  obs::Observer merged(obs::ObsLevel::kFull);
  for (const auto& jo : job_obs) merged.merge_from(*jo);

  EXPECT_EQ(serial_obs.run_names(), merged.run_names());
  EXPECT_EQ(obs::chrome_trace_json(&serial_obs, nullptr),
            obs::chrome_trace_json(&merged, nullptr));
  EXPECT_EQ(obs::timeline_csv(serial_obs), obs::timeline_csv(merged));
}

}  // namespace
}  // namespace delta
