// One simulation of a workload ("job") and the untraced way to run it.
#pragma once

#include <cstdint>
#include <string>

#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/mt_sim.hpp"
#include "sim/scheme.hpp"
#include "workload/mixes.hpp"
#include "workload/splash.hpp"

namespace perfbench {

/// A multiprogrammed mix on one Chip under one scheme.
struct ChipJob {
  std::string key;  ///< Digest key, e.g. "w13_64/w13/delta".
  delta::sim::MachineConfig cfg;
  delta::workload::Mix mix;
  delta::sim::SchemeKind kind = delta::sim::SchemeKind::kDelta;
};

struct ChipRun {
  std::string digest;
  std::uint64_t accesses = 0;  ///< Simulated LLC accesses, warm-up included.
  double wall_s = 0.0;         ///< Chip::run only; construction excluded.
  double cpu_s = 0.0;
};

/// Builds the job's Chip (untimed), then times Chip::run — the same two
/// calls sim::run_mix makes.  The access count is read from the banks'
/// cumulative statistics, which span warm-up and measured epochs.
ChipRun run_chip(const ChipJob& job);

/// Host seconds to construct (and destroy) the job's Chip.
double time_chip_setup(const ChipJob& job);

/// One SPLASH-2 profile through sim::run_multithreaded.
struct MtJob {
  std::string key;  ///< Digest key, e.g. "splash16_mt/fft/delta".
  delta::sim::MachineConfig cfg;
  const delta::workload::SplashProfile* profile = nullptr;
  delta::sim::SchemeKind kind = delta::sim::SchemeKind::kDelta;
  delta::sim::MtConfig mt;
  std::uint64_t accesses() const {
    return static_cast<std::uint64_t>(profile->threads) * mt.accesses_per_thread;
  }
};

struct MtRun {
  delta::sim::MtResult result;
  std::string digest;
};

MtRun run_mt(const MtJob& job);

}  // namespace perfbench
