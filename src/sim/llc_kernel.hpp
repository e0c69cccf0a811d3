// The LLC access kernel: the one place the per-access cost model lives.
// An access costs the NoC round trip from the core to the bank plus tag and
// data latency; a miss adds the round trip from the bank to the line's
// memory controller plus its DRAM + queueing latency (DESIGN.md §5).  Chip's
// serial loop, the intra engine's apply step and run_multithreaded's access
// loop charge accesses here.
//
// A miss is priced with the controller's epoch-constant
// current_request_latency(); the kernel only reports which controller it
// went to, and each driver counts the request — serial loops at once,
// parallel engines as per-bank tallies after their section.  Both are exact
// because the queueing delay only moves at MemoryController::end_epoch.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "mem/cache.hpp"
#include "noc/mcu.hpp"
#include "noc/mesh.hpp"
#include "sim/config.hpp"

namespace delta::sim {

/// What one LLC access did and cost.
struct LlcAccess {
  mem::AccessResult res;
  Cycles lat = 0;
  int mcu = -1;  ///< Controller a miss went to; -1 on a hit.
};

/// A view of the chip state the cost model reads.  Cheap to build, so
/// drivers make one per batch or task and its calls inline into their loops.
class LlcKernel {
 public:
  LlcKernel(std::span<mem::SetAssocCache> banks, const noc::Mesh& mesh,
            const noc::MemorySystem& memsys, const MachineConfig& cfg)
      : banks_(banks),
        mesh_(mesh),
        memsys_(memsys),
        tag_data_(cfg.llc_tag_latency + cfg.llc_data_latency) {}

  /// The hit cost: NoC round trip core -> bank plus tag and data latency.
  Cycles hit_latency(CoreId c, BankId b) const {
    return mesh_.round_trip(c, b) + tag_data_;
  }

  /// The memory trip a miss leaving tile `from` adds: round trip to the
  /// line's controller plus its DRAM + queueing latency.  Sets `mcu`.
  Cycles miss_latency(int from, BlockAddr block, int& mcu) const {
    mcu = memsys_.mcu_for(block);
    return mesh_.round_trip(from, memsys_.attach_tile(mcu)) +
           memsys_.mcu(mcu).current_request_latency();
  }

  /// Core `c`'s demand access to `block` in set `set` of bank `b`: the tag
  /// access (fill on a miss, per `mask` / `evict_pref` as in
  /// SetAssocCache::access) and its latency.
  LlcAccess access(BankId b, std::uint32_t set, BlockAddr block, CoreId c,
                   mem::WayMask mask, CoreId evict_pref) const {
    // Initialised, not assigned: the AccessResult is built in place, which
    // keeps the hot loops free of a struct copy through memory.
    mem::SetAssocCache& bank = banks_[static_cast<std::size_t>(b)];
    LlcAccess r{bank.access(set, block, c, mask, evict_pref), hit_latency(c, b), -1};
    if (!r.res.hit) r.lat += miss_latency(b, block, r.mcu);
    return r;
  }

 private:
  std::span<mem::SetAssocCache> banks_;
  const noc::Mesh& mesh_;
  const noc::MemorySystem& memsys_;
  Cycles tag_data_;
};

}  // namespace delta::sim
