// Tiled-CMP simulator: epoch-driven multi-program execution over real LLC
// bank contents, a mesh NoC latency model and queued memory controllers.
//
// Timing model (see DESIGN.md "Simulator design notes"): the chip advances
// in 0.1 ms epochs.  Each core issues its post-L2 access stream for the
// epoch (target count derived from its current CPI estimate and the
// profile's accesses-per-kilo-instruction); streams of different cores are
// interleaved in small batches so set-level interference in shared
// configurations is modelled.  Per-access latency = NoC round trip to the
// bank + tag/data latency, plus MCU round trip + DRAM + queueing on a miss,
// charged by the LLC access kernel (sim/llc_kernel.hpp); each access
// contributes latency/MLP stall cycles (interval model).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/cache.hpp"
#include "noc/mcu.hpp"
#include "noc/mesh.hpp"
#include "noc/traffic.hpp"
#include "obs/observer.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/scheme.hpp"
#include "umon/mlp.hpp"
#include "umon/umon.hpp"
#include "workload/generator.hpp"
#include "workload/spec.hpp"

namespace delta::sim {

/// Per-core program state.  App name "idle" (or "") leaves the core idle.
struct AppSlot {
  std::string app_name;
  const workload::AppProfile* profile = nullptr;
  std::unique_ptr<workload::TraceGen> gen;
  std::unique_ptr<umon::Umon> umon;
  bool active = false;
  std::uint32_t process_id = 0;
  umon::MlpEstimator mlp_estimator;

  /// MLP fed to the allocation policy: the performance-counter estimate
  /// when MachineConfig::measured_mlp is set, else the profile's value.
  double policy_mlp(bool measured) const {
    if (!active) return 1.0;
    return measured && mlp_estimator.initialised() ? mlp_estimator.get()
                                                   : gen->phase().mlp;
  }

  // Cycle accounting.
  double cpi_est = 1.0;
  double instructions = 0.0;   ///< Measured window.
  Cycles cycles = 0;           ///< Measured window.

  // Measured-window stats.
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  double lat_sum = 0.0;
  double hop_sum = 0.0;
  double ways_sum = 0.0;       ///< Epoch-sampled allocation.
  std::uint64_t ways_samples = 0;

  // Per-epoch scratch.
  std::uint64_t epoch_accesses = 0;
  double epoch_lat_sum = 0.0;
};

class Chip;
class IntraEngine;

/// Epoch-boundary hook for chip-wide validation (src/check's
/// InvariantChecker implements it).  Defined here rather than in the check
/// library so Chip can invoke it without a dependency cycle.  `on_epoch`
/// runs right after the scheme's begin_epoch(), i.e. against the
/// post-reconfiguration state the epoch's accesses will see.
class EpochChecker {
 public:
  virtual ~EpochChecker() = default;
  virtual void on_epoch(Chip& chip, std::uint64_t epoch) = 0;
};

class Chip {
 public:
  /// Batch size for interleaving per-core access streams within an epoch:
  /// small enough that contending cores interact at fine grain, large
  /// enough to keep the issue loop cheap.  The intra-run engine reproduces
  /// this exact interleaving, so the value is part of the determinism
  /// contract — changing it changes results.  Both the serial issue loop
  /// and the intra-run engine read this one constant.
  static constexpr std::uint64_t kInterleaveBatch = 16;

  /// `apps` holds one profile short-name per core ("idle" => idle core).
  /// cfg.intra_jobs > 1 (or 0 = hardware threads) attaches the intra-run
  /// parallel epoch engine (sim/intra.hpp); results are byte-identical
  /// either way.
  Chip(const MachineConfig& cfg, const std::vector<std::string>& apps,
       std::unique_ptr<Scheme> scheme);
  ~Chip();

  /// Runs warmup + measured epochs and returns per-app results.
  MixResult run(const std::string& mix_name = "custom");

  /// Runs `n` epochs starting from the current state (building block for
  /// run(); exposed for fine-grained tests/examples).
  void run_epochs(int n, bool measuring);

  // ---- Accessors used by schemes and instrumentation. ----
  const MachineConfig& config() const { return cfg_; }
  const noc::Mesh& mesh() const { return mesh_; }
  noc::MemorySystem& memsys() { return memsys_; }
  mem::SetAssocCache& bank(BankId b) { return banks_[static_cast<std::size_t>(b)]; }
  const mem::SetAssocCache& bank(BankId b) const {
    return banks_[static_cast<std::size_t>(b)];
  }
  AppSlot& slot(CoreId c) { return slots_[static_cast<std::size_t>(c)]; }
  const AppSlot& slot(CoreId c) const { return slots_[static_cast<std::size_t>(c)]; }
  int cores() const { return cfg_.cores; }
  noc::TrafficStats& traffic() { return traffic_; }
  Scheme& scheme() { return *scheme_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t invalidated_lines() const { return invalidated_lines_; }

  /// Attaches an observability context (may be null; the chip does not own
  /// it).  Costs nothing on the access path: all hooks sit on epoch
  /// boundaries and reconfiguration events, and schemes re-wire their event
  /// sinks from here in begin_epoch().
  void set_observer(obs::Observer* o) { obs_ = o; }
  obs::Observer* observer() { return obs_; }
  /// Event sink for emission sites: null when tracing is off.
  obs::EventRecorder* event_sink() {
    return obs_ != nullptr ? obs_->event_sink() : nullptr;
  }

  /// Attaches an epoch-boundary checker (may be null; not owned).  Invoked
  /// every epoch after the scheme's reconfiguration hook.
  void set_checker(EpochChecker* c) { checker_ = c; }
  EpochChecker* checker() { return checker_; }

  /// Bulk-invalidation unit (Sec. II-C3): sweeps `old_bank` and drops
  /// `core`-owned lines whose CBT chunk is in `chunks`.  Returns the number
  /// of lines invalidated and counts one kInvalidation command message.
  std::uint64_t invalidate_core_chunks(CoreId core, BankId old_bank,
                                       const std::vector<int>& chunks);

  /// Worker threads the attached intra-run engine uses (1 == serial loop).
  unsigned intra_threads() const;

 private:
  // The intra-run engine is a pure reorganisation of run_one_epoch's access
  // loop; it reaches into the same private state the loop touches.
  friend class IntraEngine;

  void run_one_epoch(bool measuring);
  /// Issues `count` back-to-back accesses for core `c` with loop-invariant
  /// state (slot, generator, monitor, scheme dispatch target) hoisted and
  /// statistics folded into the slot once per batch.
  void do_access_batch(CoreId c, std::uint64_t count, bool measuring);
  void finish_epoch_accounting(bool measuring);
  /// Appends this epoch's core/MCU/chip rows to the observer's timeline.
  void sample_timeline();

  MachineConfig cfg_;
  noc::Mesh mesh_;
  noc::MemorySystem memsys_;
  std::vector<mem::SetAssocCache> banks_;
  std::vector<AppSlot> slots_;
  std::unique_ptr<Scheme> scheme_;
  std::unique_ptr<IntraEngine> intra_;  ///< Null => serial epoch loop.
  noc::TrafficStats traffic_;
  std::uint64_t epoch_ = 0;
  std::uint64_t invalidated_lines_ = 0;
  std::vector<std::uint64_t> epoch_targets_;  // Scratch: accesses per core.

  // Observability (nullable, not owned).  prev_* snapshots turn cumulative
  // counters into per-epoch deltas for the timeline sampler.
  obs::Observer* obs_ = nullptr;
  EpochChecker* checker_ = nullptr;  // Nullable, not owned.
  noc::TrafficStats prev_traffic_;
  std::uint64_t prev_invalidated_lines_ = 0;
  std::vector<std::uint64_t> prev_hits_, prev_misses_;
};

}  // namespace delta::sim
