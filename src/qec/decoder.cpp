#include "qec/decoder.hpp"

#include "common/error.hpp"
#include "qec/lookup_decoder.hpp"
#include "qec/mwpm_decoder.hpp"
#include "qec/union_find_decoder.hpp"

namespace qcgen::qec {

std::vector<DetectionEvent> detection_events(const SyndromeHistory& history,
                                             PauliType stabilizer_type) {
  std::vector<DetectionEvent> events;
  const auto& get = [&](std::size_t round) -> const std::vector<std::uint8_t>& {
    return stabilizer_type == PauliType::kX ? history.rounds[round].x
                                            : history.rounds[round].z;
  };
  for (std::size_t r = 0; r < history.rounds.size(); ++r) {
    const auto& current = get(r);
    for (std::size_t node = 0; node < current.size(); ++node) {
      const std::uint8_t prev = r == 0 ? 0 : get(r - 1)[node];
      if (current[node] != prev) {
        events.push_back(DetectionEvent{node, r});
      }
    }
  }
  return events;
}

std::vector<std::size_t> Decoder::decode(
    const std::vector<DetectionEvent>& events) {
  std::vector<std::size_t> qubits;
  decode_into(events, qubits);
  return qubits;
}

void MatchingDecoder::decode_into(std::span<const DetectionEvent> events,
                                  std::vector<std::size_t>& qubits) {
  if (events.empty()) return;
  for (const DetectionEvent& e : events) {
    require(e.node < graph_.num_nodes(), "decode: event node out of range");
  }
  match(events, pairs_);
  for (const auto& [i, j] : pairs_) {
    if (j == events.size()) {
      graph_.append_boundary_path(events[i].node, qubits);
    } else {
      graph_.append_path(events[i].node, events[j].node, qubits);
    }
  }
}

std::string_view decoder_kind_name(DecoderKind kind) {
  switch (kind) {
    case DecoderKind::kLookup: return "lookup";
    case DecoderKind::kGreedy: return "greedy";
    case DecoderKind::kMwpm: return "mwpm";
    case DecoderKind::kUnionFind: return "union-find";
  }
  return "?";
}

std::unique_ptr<Decoder> make_decoder(DecoderKind kind, const SurfaceCode& code,
                                      PauliType stabilizer_type) {
  switch (kind) {
    case DecoderKind::kLookup:
      return std::make_unique<LookupDecoder>(code, stabilizer_type);
    case DecoderKind::kGreedy:
      return std::make_unique<MwpmDecoder>(code, stabilizer_type,
                                           /*exact_threshold=*/0);
    case DecoderKind::kMwpm:
      return std::make_unique<MwpmDecoder>(code, stabilizer_type,
                                           MwpmDecoder::kDefaultExactThreshold);
    case DecoderKind::kUnionFind:
      return std::make_unique<UnionFindDecoder>(code, stabilizer_type);
  }
  throw InvalidArgumentError("make_decoder: unknown kind");
}

std::size_t spacetime_distance(const MatchingGraph& graph,
                               const DetectionEvent& a,
                               const DetectionEvent& b) {
  const std::size_t spatial = graph.distance(a.node, b.node);
  const std::size_t temporal =
      a.round > b.round ? a.round - b.round : b.round - a.round;
  return spatial + temporal;
}

PauliFrame correction_frame(const SurfaceCode& code, PauliType stabilizer_type,
                            const std::vector<std::size_t>& qubits) {
  PauliFrame frame(code.num_data_qubits());
  for (std::size_t q : qubits) {
    require(q < code.num_data_qubits(), "correction_frame: qubit range");
    if (stabilizer_type == PauliType::kZ) {
      frame.x[q] ^= 1;  // Z stabilizers detect X errors
    } else {
      frame.z[q] ^= 1;
    }
  }
  return frame;
}

}  // namespace qcgen::qec
