#pragma once
// Test-only reference for the QEC Monte-Carlo trial loop.
//
// These are the straightforward per-trial kernels the library used before
// its trial loop became allocation-free: vector-per-round syndrome sampling,
// detection events from unpacked rounds, a std::map-based union-find
// decoder, a double-cost bitmask-DP matcher that allocates its table on
// every call, and correction frames built from qubit lists. The tests fuzz
// the library's kernels against them; nothing in src/ links this file.

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "qec/decoder.hpp"
#include "qec/logical_error.hpp"
#include "qec/pauli_frame.hpp"
#include "qec/surface_code.hpp"

namespace qcgen::qec::reference {

/// Samples `num_rounds` noisy rounds and one perfect round, drawing from
/// `rng` in the library's order: data qubits 0..n-1 per round, then every
/// X-syndrome flip, then every Z-syndrome flip.
SyndromeHistory sample_history(const SurfaceCode& code,
                               const PhenomenologicalNoise& noise,
                               std::size_t num_rounds, Rng& rng);

/// Detection events in (round, node) order.
std::vector<DetectionEvent> detection_events(const SyndromeHistory& history,
                                             PauliType stabilizer_type);

/// Data qubits to flip, in the order the decoder of `kind` lists them.
std::vector<std::size_t> decode(DecoderKind kind, const SurfaceCode& code,
                                PauliType stabilizer_type,
                                const std::vector<DetectionEvent>& events);

/// One reference trial: sample, detect, decode both species, correct.
struct Trial {
  SyndromeHistory history;
  std::vector<DetectionEvent> z_events;  ///< detect X errors
  std::vector<DetectionEvent> x_events;  ///< detect Z errors
  std::vector<std::size_t> z_fix;        ///< X corrections
  std::vector<std::size_t> x_fix;        ///< Z corrections
  PauliFrame residual;
  bool x_flip = false;
  bool z_flip = false;

  explicit Trial(std::size_t num_qubits)
      : history(num_qubits), residual(num_qubits) {}
};
Trial run_trial(const SurfaceCode& code, DecoderKind kind,
                const PhenomenologicalNoise& noise, std::size_t num_rounds,
                Rng& rng);

/// The reference Monte-Carlo estimate (failure counts only).
LogicalErrorEstimate estimate_logical_error(const SurfaceCode& code,
                                            DecoderKind kind,
                                            const LogicalErrorConfig& config);

}  // namespace qcgen::qec::reference
