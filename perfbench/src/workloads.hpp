// The benchmark's workloads.  Each one is fixed by its machine, mixes,
// schemes and host thread count; run length per rep is fixed here too, and
// the seed and measuring time come from the command line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support.hpp"
#include "trace.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  unsigned threads = 1;  ///< Host threads of the workload: threads_for().
};

struct Workload {
  const char* name;
  /// Most host threads the workload runs on; see threads_for().
  unsigned max_threads;
  /// Host seconds to set up every simulation of the workload once, before
  /// its first epoch.  Meant for a fresh process, so that lazily built
  /// workload registries are part of it.
  double (*setup)(const Context&);
  /// Untraced run: medians over repeated runs of wall_s, sim_maccess_per_s
  /// and cpu_s, plus peak_rss_mb.  setup_s comes from setup() instead.
  std::vector<Metric> (*measure)(const Context&, Ledger&);
  /// Traced run: every per-layer metric (0 where the workload does not
  /// reach the layer) plus trace.overhead_share.
  std::vector<Metric> (*trace)(const Context&, Ledger&, Tracer&);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);
/// Host threads `w` runs on: max_threads, but no more than the hardware
/// threads.
unsigned threads_for(const Workload& w);

/// (job key, digest) of the serial result of every job of every workload,
/// for recording the expected digests of `seed`.
std::vector<std::pair<std::string, std::string>> serial_digests(std::uint64_t seed);

}  // namespace perfbench
