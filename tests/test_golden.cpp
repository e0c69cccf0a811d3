// Golden results: absolute values of short reference runs, pinned so a
// change to the per-access cost model cannot drift unnoticed.  The identity
// tests (test_intra) only compare serial against parallel, which a change
// that moves both paths at once would pass; these rows are the fixed point.
//
// Counters compare exactly and doubles by bit pattern.  A Chip row pins the
// geomean IPC, total LLC accesses and misses, invalidated lines and an
// FNV-1a-64 digest over every MixResult field; an mt row pins every
// MtResult field.  On a mismatch gtest prints the actual row — if a result
// change is intended, paste it over the old one and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "sim/mt_sim.hpp"
#include "sim/runner.hpp"
#include "workload/splash.hpp"

namespace delta {
namespace {

using Row = std::vector<std::uint64_t>;

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char ch : s) add(static_cast<unsigned char>(ch));
  }
};

Row chip_row(const sim::MixResult& r) {
  Fnv f;
  f.add(r.mix);
  f.add(r.scheme);
  f.add(bits(r.geomean_ipc));
  for (int t = 0; t < static_cast<int>(noc::MsgType::kCount); ++t)
    f.add(r.traffic.total(static_cast<noc::MsgType>(t)));
  f.add(r.invalidated_lines);
  f.add(r.measured_epochs);
  std::uint64_t accesses = 0, misses = 0;
  for (const sim::AppResult& a : r.apps) {
    f.add(a.app);
    f.add(static_cast<std::uint64_t>(a.core));
    for (const double d : {a.ipc, a.cpi, a.mpki, a.miss_rate, a.avg_latency,
                           a.avg_hops, a.avg_ways})
      f.add(bits(d));
    for (const std::uint64_t n : {a.instructions, a.llc_accesses, a.llc_misses}) f.add(n);
    accesses += a.llc_accesses;
    misses += a.llc_misses;
  }
  return {bits(r.geomean_ipc), accesses, misses, r.invalidated_lines, f.h};
}

Row mt_row(const sim::MtResult& r) {
  return {bits(r.roi_cycles),  bits(r.mean_ipc),  bits(r.miss_rate),
          bits(r.mean_hops),   r.private_pages,   r.shared_pages,
          r.reclassifications, r.page_invalidation_lines};
}

// 16-tile w9, 10 warm-up + 30 measured epochs, serial loop; one row per
// scheme in kAllSchemeKinds order (snuca private ideal delta carma lfoc).
const Row kW9Rows16[] = {
    {0x3fe152ebfa472480, 590988, 220564, 0, 0x990c925386bef7ca},
    {0x3fe1adab450dd4fc, 595632, 229648, 0, 0xff768b6511f89258},
    {0x3fe1fb966f93deee, 609681, 211741, 29260, 0xbc74b5ba01dba975},
    {0x3fe1cb8f54eb9b12, 600514, 223413, 30087, 0xdc2e00258eca04af},
    {0x3fe1d1e142aa8267, 602084, 221258, 38287, 0x4883056d1939d042},
    {0x3fe152ebfa472480, 590988, 220564, 0, 0x28c075a512410277},
};

// 64-tile w13 under delta, 5 warm-up + 10 measured epochs, serial loop.
const Row kW13Row64 = {0x3fdc553252a2bb02, 1096147, 651640, 19007, 0x1ea016dfbd1a5aa5};

// SPLASH-2 profiles at 20'000 accesses per thread, MtConfig's default seed;
// one row per kind in kMtKinds order.  kPrivate is the only user of the MESIF
// directory path; ocean.cont (halo pages) flips far more pages than cholesky,
// so it carries most of the page-flip invalidation weight.
const sim::SchemeKind kMtKinds[] = {sim::SchemeKind::kDelta, sim::SchemeKind::kSnuca,
                                    sim::SchemeKind::kPrivate};
struct MtGolden {
  const char* app;
  Row rows[std::size(kMtKinds)];
};
const MtGolden kMtGolden[] = {
    {"cholesky",
     {{0x413c9e2855555555, 0x3ff577d13454fbfe, 0x3fc49a858793dd98, 0x3feb336113404ea5,
       496, 304, 304, 439},
      {0x413e2dfc55555556, 0x3ff48bc15fffc74b, 0x3fc46dab9f559b3c, 0x40040921ff2e48e9,
       496, 304, 304, 0},
      {0x413c64f600000000, 0x3ff5a0c0531876d2, 0x3fd808db8bac710c, 0x0000000000000000,
       496, 304, 304, 0}}},
    {"ocean.cont",
     {{0x413050c6b6db6db7, 0x3ff59faac976b259, 0x3fc38d6a161e4f78, 0x3fe42d42c3c9eecc,
       304, 496, 496, 2087},
      {0x4131860bb6db6db7, 0x3ff45dd92d0a3110, 0x3fc2d63886594af4, 0x4004311b71758e22,
       304, 496, 496, 0},
      {0x412fb0606db6db6e, 0x3ff620b6b53a7548, 0x3fc3f62b6ae7d568, 0x0000000000000000,
       304, 496, 496, 0}}},
};

TEST(Golden, Chip16TileW9AllSchemes) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 10;
  cfg.measure_epochs = 30;
  for (std::size_t i = 0; i < sim::kAllSchemeKinds.size(); ++i) {
    const sim::SchemeKind kind = sim::kAllSchemeKinds[i];
    EXPECT_EQ(chip_row(sim::run_mix(cfg, sim::mix_for_config(cfg, "w9"), kind)),
              kW9Rows16[i])
        << sim::to_string(kind);
  }
}

TEST(Golden, Chip64TileW13Delta) {
  sim::MachineConfig cfg = sim::config64();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  EXPECT_EQ(chip_row(sim::run_mix(cfg, sim::mix_for_config(cfg, "w13"),
                                  sim::SchemeKind::kDelta)),
            kW13Row64);
}

TEST(Golden, MultithreadedSplash) {
  sim::MtConfig mtc;
  mtc.accesses_per_thread = 20'000;
  for (const MtGolden& g : kMtGolden) {
    const auto& p = workload::splash_profile(g.app);
    for (std::size_t i = 0; i < std::size(kMtKinds); ++i) {
      // run_multithreaded always runs its serial loop: intra_jobs selects
      // Chip's engine only and must not move an mt result.
      for (const int jobs : {1, 2}) {
        sim::MachineConfig cfg = sim::config16();
        cfg.intra_jobs = jobs;
        EXPECT_EQ(mt_row(sim::run_multithreaded(cfg, p, kMtKinds[i], mtc)), g.rows[i])
            << g.app << " " << sim::to_string(kMtKinds[i]) << " at intra_jobs " << jobs;
      }
    }
  }
}

}  // namespace
}  // namespace delta
