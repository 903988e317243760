#pragma once
// Decoder interface and detection-event extraction.
//
// A decoder for stabilizer type T consumes the space-time detection
// events of T's syndrome history and returns the set of data qubits on
// which to apply a Pauli of type other(T) as the correction. (Z-type
// stabilizers detect X errors and vice versa.)

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "qec/matching_graph.hpp"
#include "qec/pauli_frame.hpp"
#include "qec/surface_code.hpp"

namespace qcgen::qec {

/// One space-time detection event: syndrome of `node` changed at `round`.
struct DetectionEvent {
  std::size_t node = 0;   ///< plaquette position within the type's list
  std::size_t round = 0;  ///< extraction round (0-based)
  friend bool operator==(const DetectionEvent&,
                         const DetectionEvent&) = default;
};

/// Extracts detection events for one stabilizer type from a syndrome
/// history: an event fires at (node, r) whenever the syndrome bit differs
/// from the previous round (round 0 compares against the all-zero
/// reference of a |0...0>-type preparation).
std::vector<DetectionEvent> detection_events(const SyndromeHistory& history,
                                             PauliType stabilizer_type);

/// Abstract syndrome decoder, bound to one code and stabilizer type.
class Decoder {
 public:
  virtual ~Decoder() = default;
  /// Short identifier ("lookup", "greedy", "mwpm", "union-find").
  virtual std::string name() const = 0;
  /// Stabilizer type this instance decodes.
  virtual PauliType stabilizer_type() const = 0;
  /// Data qubits to flip (with a Pauli of other(stabilizer_type())).
  /// A qubit listed an even number of times cancels out.
  std::vector<std::size_t> decode(const std::vector<DetectionEvent>& events);
  /// Appends what decode() returns to `qubits`. Decoders keep their
  /// working memory between calls, so once it has grown to the largest
  /// event set seen, a call allocates nothing.
  virtual void decode_into(std::span<const DetectionEvent> events,
                           std::vector<std::size_t>& qubits) = 0;
};

/// Matched detection events: (i, j) pairs event i with event j, or with
/// the lattice boundary when j is the number of events.
using Pairing = std::vector<std::pair<std::size_t, std::size_t>>;

/// A decoder that pairs events up and corrects along the shortest
/// spatial path of each pair: the matching graph's path between the two
/// plaquettes, or a boundary path.
class MatchingDecoder : public Decoder {
 public:
  PauliType stabilizer_type() const override { return graph_.type(); }
  const MatchingGraph& graph() const noexcept { return graph_; }
  /// Replaces `pairs` with the decoder's pairing of `events`; every event
  /// appears in exactly one pair. Every event's node must be a node of
  /// graph() (decode_into checks this).
  virtual void match(std::span<const DetectionEvent> events,
                     Pairing& pairs) = 0;
  void decode_into(std::span<const DetectionEvent> events,
                   std::vector<std::size_t>& qubits) final;

 protected:
  MatchingDecoder(const SurfaceCode& code, PauliType stabilizer_type)
      : graph_(code, stabilizer_type) {}
  /// Space-time distance of two events: spatial graph distance plus
  /// temporal separation (uniform weights).
  std::uint32_t cost(const DetectionEvent& a,
                     const DetectionEvent& b) const noexcept {
    const std::size_t temporal =
        a.round > b.round ? a.round - b.round : b.round - a.round;
    return graph_.distance_row(a.node)[b.node] +
           static_cast<std::uint32_t>(temporal);
  }

  MatchingGraph graph_;

 private:
  Pairing pairs_;
};

/// Available decoder implementations (ablation ABL-DEC in DESIGN.md).
enum class DecoderKind { kLookup, kGreedy, kMwpm, kUnionFind };

std::string_view decoder_kind_name(DecoderKind kind);

/// Factory. Lookup is restricted to distance 3.
std::unique_ptr<Decoder> make_decoder(DecoderKind kind,
                                      const SurfaceCode& code,
                                      PauliType stabilizer_type);

/// Space-time distance helper shared by the matching-based decoders:
/// spatial graph distance plus temporal separation (uniform weights).
std::size_t spacetime_distance(const MatchingGraph& graph,
                               const DetectionEvent& a,
                               const DetectionEvent& b);

/// Turns a decoded qubit list into a correction frame of the right Pauli
/// type (X corrections for Z-stabilizer decoders and vice versa).
PauliFrame correction_frame(const SurfaceCode& code, PauliType stabilizer_type,
                            const std::vector<std::size_t>& qubits);

}  // namespace qcgen::qec
