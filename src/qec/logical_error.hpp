#pragma once
// Monte-Carlo logical-error-rate estimation: the quantitative backbone of
// the QEC agent's "effective error rate after correction" computation
// (paper Fig 4c uses exactly this resimulation trick).

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "qec/decoder.hpp"
#include "qec/pauli_frame.hpp"
#include "qec/surface_code.hpp"

namespace qcgen::qec {

/// Result of a logical-error Monte-Carlo experiment.
struct LogicalErrorEstimate {
  std::size_t trials = 0;
  std::size_t x_failures = 0;  ///< logical X flips (X-error chains)
  std::size_t z_failures = 0;  ///< logical Z flips
  std::size_t failures = 0;    ///< trials with either flip
  double logical_error_rate = 0.0;
  Interval confidence;  ///< Wilson 95% interval on the rate

  /// Per-round logical error rate (rate spread over the noisy rounds).
  double per_round_rate(std::size_t rounds) const;
};

/// Experiment configuration.
struct LogicalErrorConfig {
  PhenomenologicalNoise noise;
  std::size_t rounds = 0;  ///< 0 means `distance` rounds
  std::size_t trials = 2000;
  std::uint64_t seed = 1;
};

/// Runs `trials` decoding experiments with the given decoder kind and
/// returns failure statistics. Both error species are decoded (X errors
/// via Z stabilizers, Z errors via X stabilizers).
LogicalErrorEstimate estimate_logical_error(const SurfaceCode& code,
                                            DecoderKind kind,
                                            const LogicalErrorConfig& config);

/// Convenience: decodes one sampled history with both decoders and
/// reports whether a logical X/Z flip survived. Used by tests and the
/// Fig 2 walkthrough bench.
struct DecodeOutcome {
  bool x_flip = false;
  bool z_flip = false;
  std::size_t corrections_applied = 0;
};
DecodeOutcome decode_history(const SurfaceCode& code, Decoder& z_decoder,
                             Decoder& x_decoder,
                             const SyndromeHistory& history);

/// The decoding half of a Monte-Carlo trial, shared by
/// estimate_logical_error and decode_history: decodes both species,
/// XORs the corrections into a packed residual frame and checks it for
/// logical flips. Every trial opens two `qec.decode` spans and adds to
/// the `qec.detection_events` and `qec.corrections` counters. Buffers
/// are reused, so a trial allocates nothing once they have grown to the
/// largest event set seen.
class TrialDecoder {
 public:
  TrialDecoder(const SurfaceCode& code, Decoder& z_decoder,
               Decoder& x_decoder);

  /// `frame_x` / `frame_z` hold the true error, ceil(n / 64) words each
  /// (bit q % 64 of word q / 64);
  /// `z_events` / `x_events` are the Z- and X-stabilizer detection events.
  DecodeOutcome decode(std::span<const std::uint64_t> frame_x,
                       std::span<const std::uint64_t> frame_z,
                       std::span<const DetectionEvent> z_events,
                       std::span<const DetectionEvent> x_events);

  /// Residual error (true error xor correction) of the last decode().
  PauliFrame residual() const;

 private:
  /// Decodes one species into `residual`; returns the qubits listed.
  std::size_t correct(Decoder& decoder, std::span<const DetectionEvent> events,
                      std::vector<std::uint64_t>& residual);

  std::size_t num_qubits_;
  Decoder& z_decoder_;
  Decoder& x_decoder_;
  std::vector<std::uint64_t> logical_x_;  ///< logical X support, packed
  std::vector<std::uint64_t> logical_z_;  ///< logical Z support, packed
  std::vector<std::uint64_t> residual_x_;
  std::vector<std::uint64_t> residual_z_;
  std::vector<std::size_t> qubits_;
};

}  // namespace qcgen::qec
