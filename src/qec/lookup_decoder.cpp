#include "qec/lookup_decoder.hpp"

#include "common/error.hpp"

namespace qcgen::qec {

LookupDecoder::LookupDecoder(const SurfaceCode& code, PauliType stabilizer_type)
    : type_(stabilizer_type) {
  require(code.distance() == 3, "LookupDecoder supports distance 3 only");
  num_nodes_ = code.num_stabilizers(type_);
  require(num_nodes_ <= 16, "LookupDecoder: too many stabilizers");

  const std::size_t num_syndromes = 1ULL << num_nodes_;
  const std::size_t num_qubits = code.num_data_qubits();
  table_.assign(num_syndromes, {});
  std::vector<bool> found(num_syndromes, false);
  found[0] = true;  // trivial syndrome -> empty correction

  // Syndrome bitmask produced by an error pattern of other(type_).
  const auto syndrome_of = [&](std::uint64_t error_mask) {
    std::size_t syn = 0;
    for (std::size_t q = 0; q < num_qubits; ++q) {
      if (!((error_mask >> q) & 1ULL)) continue;
      for (std::size_t pos : code.stabilizers_on_qubit(type_, q)) {
        syn ^= 1ULL << pos;
      }
    }
    return syn;
  };

  // Enumerate error patterns in increasing weight; first hit is minimal.
  std::size_t remaining = num_syndromes - 1;
  for (std::size_t weight = 1; weight <= num_qubits && remaining > 0;
       ++weight) {
    // Iterate all masks of the given popcount via combination walking.
    std::vector<std::size_t> combo(weight);
    for (std::size_t i = 0; i < weight; ++i) combo[i] = i;
    for (;;) {
      std::uint64_t mask = 0;
      for (std::size_t q : combo) mask |= 1ULL << q;
      const std::size_t syn = syndrome_of(mask);
      if (!found[syn]) {
        found[syn] = true;
        table_[syn].assign(combo.begin(), combo.end());
        if (--remaining == 0) break;
      }
      // Next combination.
      std::size_t i = weight;
      while (i-- > 0) {
        if (combo[i] + 1 <= num_qubits - (weight - i)) {
          ++combo[i];
          for (std::size_t j = i + 1; j < weight; ++j) {
            combo[j] = combo[j - 1] + 1;
          }
          break;
        }
        if (i == 0) {
          i = weight + 1;  // sentinel: exhausted
          break;
        }
      }
      if (i == weight + 1) break;
    }
  }
  ensure(remaining == 0, "LookupDecoder: unreachable syndromes exist");
}

void LookupDecoder::decode_into(std::span<const DetectionEvent> events,
                                std::vector<std::size_t>& qubits) {
  // Reconstruct the final cumulative syndrome: the parity of detection
  // events per node over all rounds equals the last round's syndrome
  // (events are syndrome differences, and the final round is noiseless).
  std::size_t syn = 0;
  for (const DetectionEvent& e : events) {
    require(e.node < num_nodes_, "LookupDecoder: event node out of range");
    syn ^= 1ULL << e.node;
  }
  qubits.insert(qubits.end(), table_[syn].begin(), table_[syn].end());
}

const std::vector<std::size_t>& LookupDecoder::correction_for(
    std::size_t syndrome) const {
  require(syndrome < table_.size(), "LookupDecoder: syndrome out of range");
  return table_[syndrome];
}

}  // namespace qcgen::qec
