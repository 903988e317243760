#pragma once
// QEC Decoder Generation Agent (paper Sec III-A, third agent).
//
// Given the target device topology, validates that a surface code of the
// requested distance embeds into it, synthesises the decoder, measures
// the resulting logical-error suppression, and derives the effective
// (post-QEC) noise model used to resimulate results — the paper's Fig 4
// methodology. The agent is topology-specific: non-lattice devices incur
// a retraining/synthesis cost, the scalability problem Sec V-E flags.
//
// A plan has two parts. The estimate (feasibility, synthesis cost,
// measured lifetime, effective noise) depends only on the device and the
// agent options; the ResourcePlan depends on the program. QecEstimates
// measures the estimate once per (device, options, decoder rung) and
// shares it across every program planned against it.

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <string>

#include "agents/degradation.hpp"
#include "agents/topology.hpp"
#include "common/json.hpp"
#include "qasm/analysis/resources.hpp"
#include "qec/decoder.hpp"
#include "qec/lifetime.hpp"
#include "qec/surface_code.hpp"

namespace qcgen::agents {

/// Fault-tolerant cost estimate for one program on one device, derived
/// from the static resource lattice (qasm/analysis) and the measured
/// logical-error suppression. All model constants are documented at the
/// computation site (qec_agent.cpp); the estimate is a planning figure,
/// not a compilation.
struct ResourcePlan {
  bool computed = false;

  // Program inputs (upper bounds from the static analysis).
  std::size_t logical_qubits = 0;  ///< qubits the program declares
  std::size_t circuit_depth = 0;
  std::size_t t_count = 0;  ///< explicit t/tdg gates
  std::size_t t_depth = 0;
  /// Magic states consumed: t_count + 7 per ccx (Toffoli decomposition)
  /// + a fixed synthesis budget per non-Clifford rotation.
  std::size_t t_equivalents = 0;
  std::size_t two_qubit_count = 0;

  // Code-distance solve against the target logical error rate, using
  // the measured per-round logical error at the probe distance and the
  // suppression-per-distance model Lambda = p_th / p.
  double target_logical_error = 0.0;
  int code_distance = 0;
  /// False when even the device's maximum distance misses the target.
  bool target_met = false;
  /// Projected per-round logical error at code_distance.
  double projected_error_per_round = 0.0;

  // Space: rotated surface code uses 2d^2 - 1 physical qubits per
  // logical tile; routing reserves lattice-surgery lanes, factories
  // occupy fixed tile footprints.
  std::size_t physical_qubits_per_logical = 0;
  std::size_t data_physical_qubits = 0;
  std::size_t routing_physical_qubits = 0;
  std::size_t factory_count = 0;
  std::size_t factory_physical_qubits = 0;
  std::size_t total_physical_qubits = 0;

  // Time: one logical layer costs d syndrome rounds; factories pipeline
  // magic states at factory_rounds_per_state per output.
  std::size_t factory_rounds_per_state = 0;
  std::size_t logical_time_rounds = 0;
  /// Extra cx from routing the program's two-qubit pairs over the
  /// device coupling map under the identity layout (3 per swap).
  std::size_t routing_extra_cx = 0;

  /// total_physical_qubits x logical_time_rounds (qubit-rounds).
  double space_time_volume = 0.0;
};

/// Output of the QEC agent for one device.
struct QecPlan {
  bool feasible = false;
  std::string reason;  ///< set when infeasible
  int distance = 0;
  qec::DecoderKind decoder = qec::DecoderKind::kMwpm;
  qec::LifetimeReport lifetime;
  sim::NoiseModel physical_noise;
  sim::NoiseModel effective_noise;
  /// Decoder synthesis cost in abstract work units; lattice devices host
  /// the code natively, heavy-hex devices pay the embedding/retraining
  /// overhead (ABL-TOPO measures this).
  double synthesis_cost = 0.0;
  /// Fault-tolerant cost estimate; computed only when plan_for received
  /// a program resource summary (and the plan is feasible).
  ResourcePlan resources;
};

class QecDecoderAgent {
 public:
  struct Options {
    int target_distance = 3;
    qec::DecoderKind decoder = qec::DecoderKind::kMwpm;
    std::size_t trials = 3000;
    std::uint64_t seed = 5;
    /// Per-round logical error rate the ResourcePlan distance solve
    /// targets (modest default: realistic near-term planning figure).
    double target_logical_error = 1e-6;
  };

  QecDecoderAgent() : QecDecoderAgent(Options()) {}
  explicit QecDecoderAgent(Options options);

  /// Plans QEC for a device; infeasible plans carry a reason. When a
  /// program resource summary is supplied (static analysis of the
  /// program about to run fault-tolerantly), the plan also carries a
  /// ResourcePlan cost estimate. Equal to estimate() followed by
  /// add_resources().
  QecPlan plan_for(const DeviceTopology& device,
                   const qasm::analysis::ResourceSummary* program =
                       nullptr) const;

  /// The per-configuration part of plan_for: feasibility, synthesis
  /// cost, the Monte-Carlo lifetime measurement and the effective noise.
  /// The result carries no ResourcePlan.
  QecPlan estimate(const DeviceTopology& device) const;

  /// The per-program part of plan_for: fills `plan.resources` from
  /// `program` when the plan (an estimate() of `device`) is feasible and
  /// the summary was computed; otherwise leaves the plan as it is.
  void add_resources(QecPlan& plan, const DeviceTopology& device,
                     const qasm::analysis::ResourceSummary* program) const;

  /// Constructs the decoders for a feasible plan (both stabilizer types).
  static std::pair<std::unique_ptr<qec::Decoder>,
                   std::unique_ptr<qec::Decoder>>
  build_decoders(const QecPlan& plan);

 private:
  Options options_;
};

/// The QEC estimates of one (device, options) pair, one slot per rung of
/// decoder_ladder(options.decoder, options.target_distance). A slot is
/// measured by the first plan_for call that reaches its rung, on that
/// caller's thread (its trace sink and request context record the work),
/// and is read-only after. Concurrent callers of an empty slot wait for
/// the one measuring it; a measurement that throws (a cancelled request)
/// leaves the slot empty for the next caller. serve::Server shares one
/// across its requests and eval::run_trial_matrix one across a
/// technique's trials.
class QecEstimates {
 public:
  QecEstimates(const QecDecoderAgent::Options& options, DeviceTopology device);

  QecEstimates(const QecEstimates&) = delete;
  QecEstimates& operator=(const QecEstimates&) = delete;

  /// The decoder rungs the slots stand for, full rung first.
  const Ladder& ladder() const noexcept { return ladder_; }

  /// Equal to QecDecoderAgent(options with rung's decoder)
  /// .plan_for(device, program); the estimate is measured at most once.
  QecPlan plan_for(std::size_t rung,
                   const qasm::analysis::ResourceSummary* program);

 private:
  struct Slot {
    QecDecoderAgent agent;
    std::mutex mutex;  ///< held while the estimate is measured
    std::atomic<bool> filled{false};
    QecPlan estimate;  ///< written once, under the mutex
  };

  DeviceTopology device_;
  Ladder ladder_;
  /// One per ladder rung.
  std::array<Slot, std::tuple_size_v<decltype(Ladder::decoders)>> slots_;
};

/// Extracts the per-round physical data-error probability from a device
/// noise model (two-qubit depolarizing dominates the error budget).
double physical_data_error(const sim::NoiseModel& noise);

/// Serialises a ResourcePlan for bench/eval JSON artifacts (all counts
/// as non-negative integers; null-free, deterministic key set).
Json resource_plan_to_json(const ResourcePlan& plan);

}  // namespace qcgen::agents
