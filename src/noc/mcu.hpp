// Memory-controller model (paper Table II: 4 / 8 MCUs, one channel each,
// 80 ns idle latency, 12.6 GB/s per channel).
//
// The simulator advances in fixed epochs; within an epoch the controller
// charges every request the idle DRAM latency plus an M/M/1-style queueing
// delay derived from the *previous* epoch's channel utilisation.  This
// one-epoch feedback loop converges in a couple of epochs and captures the
// first-order effect that matters to cache partitioning: miss-heavy
// configurations see super-linear memory latency growth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace delta::noc {

struct McuConfig {
  Cycles idle_latency = 320;        ///< 80 ns at 4 GHz.
  double bytes_per_cycle = 3.15;    ///< 12.6 GB/s at 4 GHz.
  Cycles max_queue_delay = 2000;    ///< Saturation clamp.
};

class MemoryController {
 public:
  explicit MemoryController(McuConfig cfg = {}) : cfg_(cfg) {}

  /// Latency charged to a request arriving in the current epoch.
  Cycles request_latency() {
    ++epoch_requests_;
    ++total_requests_;
    return cfg_.idle_latency + queue_delay_;
  }

  /// The latency request_latency() would charge, without counting a
  /// request.  Constant within an epoch (queue_delay_ only moves at
  /// end_epoch), which is what lets the simulator's LLC access kernel
  /// price every miss with it and leave counting to each driver.
  Cycles current_request_latency() const { return cfg_.idle_latency + queue_delay_; }

  /// Bulk-counts `n` requests in the current epoch; paired with
  /// current_request_latency() it reproduces exactly what `n` serial
  /// request_latency() calls would have done.
  void add_requests(std::uint64_t n) {
    epoch_requests_ += n;
    total_requests_ += n;
  }

  /// Closes the epoch of length `epoch_cycles` and updates the queueing
  /// delay estimate used for the next epoch.
  void end_epoch(Cycles epoch_cycles) {
    const double service_cycles =
        static_cast<double>(kLineBytes) / cfg_.bytes_per_cycle;  // ~20.3 cy/line
    const double capacity = static_cast<double>(epoch_cycles) / service_cycles;
    const double rho =
        capacity > 0.0 ? static_cast<double>(epoch_requests_) / capacity : 1.0;
    double delay = 0.0;
    if (rho >= 0.98) {
      delay = static_cast<double>(cfg_.max_queue_delay);
    } else {
      delay = service_cycles * rho / (1.0 - rho);
    }
    queue_delay_ = static_cast<Cycles>(
        std::min(delay, static_cast<double>(cfg_.max_queue_delay)));
    last_utilization_ = std::min(rho, 1.0);
    epoch_requests_ = 0;
  }

  Cycles queue_delay() const { return queue_delay_; }
  double utilization() const { return last_utilization_; }
  std::uint64_t total_requests() const { return total_requests_; }

  void reset() {
    epoch_requests_ = 0;
    total_requests_ = 0;
    queue_delay_ = 0;
    last_utilization_ = 0.0;
  }

 private:
  McuConfig cfg_;
  std::uint64_t epoch_requests_ = 0;
  std::uint64_t total_requests_ = 0;
  Cycles queue_delay_ = 0;
  double last_utilization_ = 0.0;
};

/// The set of controllers on a chip plus their mesh attachment points.
class MemorySystem {
 public:
  /// Controllers are attached to tiles spread across the top and bottom
  /// mesh rows (the usual tiled-CMP floorplan).
  MemorySystem(int num_mcus, int mesh_width, int mesh_height, McuConfig cfg = {});

  int num_mcus() const { return static_cast<int>(mcus_.size()); }

  /// Address-interleaved controller choice.  Power-of-two controller counts
  /// (every Table II machine) use a mask instead of the per-access modulo.
  int mcu_for(BlockAddr block) const {
    if (count_mask_ != 0 || mcus_.size() == 1)
      return static_cast<int>(block & count_mask_);
    return static_cast<int>(block % static_cast<std::uint64_t>(mcus_.size()));
  }

  /// Mesh tile the controller is attached to (for hop accounting).
  int attach_tile(int mcu) const { return attach_tiles_[mcu]; }

  MemoryController& mcu(int i) { return mcus_[i]; }
  const MemoryController& mcu(int i) const { return mcus_[i]; }

  void end_epoch(Cycles epoch_cycles) {
    for (auto& m : mcus_) m.end_epoch(epoch_cycles);
  }

  void reset() {
    for (auto& m : mcus_) m.reset();
  }

 private:
  std::vector<MemoryController> mcus_;
  std::vector<int> attach_tiles_;
  std::uint64_t count_mask_ = 0;  ///< mcus_.size()-1 when a power of two, else 0.
};

}  // namespace delta::noc
