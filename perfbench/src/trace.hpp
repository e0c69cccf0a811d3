// The traced run: spans recorded by the benchmark around calls into the
// simulator's public functions, never inside the simulator itself.
//
//   * Chip spans — the Chip constructor and every run_epochs(1) call.
//   * Policy spans — Scheme::begin_epoch, timed by TimedScheme, a decorator
//     that forwards every virtual hook to the real scheme.
//   * Access-layer replay — the per-access layers are called inline by the
//     chip, so timing each call would cost more than the call.  Instead the
//     traced chip's per-core, per-epoch access counts are replayed on a
//     freshly built chip, one layer at a time, in batches of at most
//     kReplayBatch accesses; the layer spans of one batch share its id.
//
// Spans stay in memory and are written out as CSV once the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jobs.hpp"

namespace perfbench {

class Tracer {
 public:
  using Id = std::int64_t;
  static constexpr Id kNone = -1;

  /// Opens a span.  `name` must be a string literal (spans keep the
  /// pointer); `batch` groups the spans of one replay batch or names the
  /// epoch / job a span belongs to.
  Id open(const char* name, Id parent, std::uint64_t batch);
  void close(Id id);
  std::uint64_t duration_ns(Id id) const;
  std::size_t size() const { return spans_.size(); }
  /// `id,name,start_ns,end_ns,parent,batch` rows, start relative to the
  /// first span.  Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    Id parent = kNone;
    std::uint64_t batch = 0;
  };
  std::vector<Span> spans_;
};

/// Per-epoch observations of one traced chip run.
struct ChipTrace {
  std::string digest;  ///< Of the MixResult Chip::run would have returned.
  double ctor_s = 0.0;
  double run_s = 0.0;  ///< Sum of the run_epochs(1) spans.
  std::vector<double> epoch_s;
  std::vector<double> tick_s;   ///< begin_epoch, one per epoch.
  std::uint64_t accesses = 0;
  /// accesses_by_epoch[e][c]: LLC accesses core c issued in epoch e.
  std::vector<std::vector<std::uint64_t>> accesses_by_epoch;
  double mcu_queue_cycles_sum = 0.0;  ///< Summed per MCU per epoch.
  std::uint64_t mcu_queue_samples = 0;
};

/// Runs `job` with spans: constructor, one span per run_epochs(1) and a
/// child span per begin_epoch.  The result is assembled from the chip's
/// public state exactly as Chip::run does, so its digest must equal the
/// untraced run's.
ChipTrace traced_chip_run(const ChipJob& job, Tracer& tracer, Tracer::Id parent);

/// Accumulated cost of the per-access layers over replayed batches.
struct LayerCosts {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t umon_sampled = 0;
  std::uint64_t workload_ns = 0;
  std::uint64_t umon_ns = 0;
  std::uint64_t scheme_ns = 0;
  std::uint64_t mem_ns = 0;
  std::uint64_t noc_ns = 0;
  std::uint64_t latency_cycles = 0;  ///< Replayed latencies (kept live).
  // Least-squares sums for mem_ns(batch) = hit_ns * hits + miss_ns * misses.
  double shh = 0.0, smm = 0.0, shm = 0.0, sth = 0.0, stm = 0.0;

  /// Fitted per-hit and per-miss (miss + fill) cost, in ns.
  void fit_mem(double* hit_ns, double* miss_fill_ns) const;
};

inline constexpr std::uint64_t kReplayBatch = 1000;

/// Replays the access streams `trace` recorded for `job` through the
/// public per-access functions of a freshly built chip, one layer per span.
void replay_layers(const ChipJob& job, const ChipTrace& trace, Tracer& tracer,
                   Tracer::Id parent, LayerCosts& costs);

}  // namespace perfbench
