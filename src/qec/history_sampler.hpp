#pragma once
// Allocation-free sampling of phenomenological syndrome histories.
//
// The error frame and the syndromes are packed into uint64_t words. Each
// data qubit carries a packed mask of the stabilizers it touches, so an
// error XORs its qubit's mask into the running noiseless syndrome instead
// of every round recomputing every stabilizer's parity. Each round's
// measured syndrome is XORed against the previous round's to emit
// detection events as the history is sampled. All buffers are sized at
// construction; sample() allocates nothing once the event lists have
// grown to the largest trial seen.
//
// The sampler consumes the Rng exactly as sample_history() specifies
// (which is built on it): per noisy round, data qubits 0..n-1, then every
// X-syndrome flip, then every Z-syndrome flip.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "qec/decoder.hpp"
#include "qec/pauli_frame.hpp"
#include "qec/surface_code.hpp"

namespace qcgen::qec {

class HistorySampler {
 public:
  /// `num_rounds` noisy rounds followed by one perfect round.
  HistorySampler(const SurfaceCode& code, std::size_t num_rounds);

  /// Samples a fresh history, replacing the previous one.
  void sample(const PhenomenologicalNoise& noise, Rng& rng);

  /// Detection events of the last history, in the order
  /// detection_events() lists them: by round, then by node.
  const std::vector<DetectionEvent>& events(PauliType stabilizer_type) const {
    return stabilizer_type == PauliType::kX ? x_events_ : z_events_;
  }
  /// The last history's true error frame: bit q % 64 of word q / 64.
  std::span<const std::uint64_t> frame_x() const { return frame_x_; }
  std::span<const std::uint64_t> frame_z() const { return frame_z_; }

  /// The last history, unpacked.
  SyndromeHistory history() const;

 private:
  /// Packed syndromes of one stabilizer type.
  struct Side {
    std::size_t bits = 0;   ///< stabilizers of the type
    std::size_t words = 0;  ///< words per syndrome
    /// Qubit q's stabilizers of this type: words [q * words, (q + 1) * words).
    std::vector<std::uint64_t> masks;
    /// Noiseless syndrome of the current frame.
    std::vector<std::uint64_t> clean;
    /// Row 0 is the all-zero reference, row r + 1 the measured syndrome
    /// of round r.
    std::vector<std::uint64_t> rows;

    void toggle(std::size_t qubit) {
      const std::uint64_t* mask = masks.data() + qubit * words;
      for (std::size_t w = 0; w < words; ++w) clean[w] ^= mask[w];
    }
    std::uint64_t* row(std::size_t round) {
      return rows.data() + (round + 1) * words;
    }
  };

  /// Copies the clean syndrome into the round's row, flips each bit with
  /// probability `meas_error` (in stabilizer order), and appends the
  /// round's detection events.
  static void measure(Side& side, std::size_t round, double meas_error,
                      Rng& rng);
  static void emit(const Side& side, std::size_t round,
                   std::vector<DetectionEvent>& events);

  std::size_t num_qubits_;
  std::size_t num_rounds_;
  std::size_t words_;  ///< frame words
  std::vector<std::uint64_t> frame_x_;
  std::vector<std::uint64_t> frame_z_;
  Side x_;  ///< X stabilizers: flipped by Z errors
  Side z_;  ///< Z stabilizers: flipped by X errors
  std::vector<DetectionEvent> x_events_;
  std::vector<DetectionEvent> z_events_;
};

}  // namespace qcgen::qec
