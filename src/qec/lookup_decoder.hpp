#pragma once
// Exhaustive lookup-table decoder for distance-3 codes.
//
// Precomputes the minimum-weight correction for every possible syndrome
// of one stabilizer type, assuming perfect measurement. With noisy
// syndromes it decodes the *final cumulative* syndrome only, so its
// accuracy degrades with measurement noise — exactly the behaviour the
// decoder ablation (ABL-DEC) measures.

#include <vector>

#include "qec/decoder.hpp"

namespace qcgen::qec {

class LookupDecoder final : public Decoder {
 public:
  /// Throws InvalidArgumentError unless code.distance() == 3.
  LookupDecoder(const SurfaceCode& code, PauliType stabilizer_type);

  std::string name() const override { return "lookup"; }
  PauliType stabilizer_type() const override { return type_; }
  void decode_into(std::span<const DetectionEvent> events,
                   std::vector<std::size_t>& qubits) override;

  /// Direct table access for tests: correction for a syndrome bitmask.
  const std::vector<std::size_t>& correction_for(std::size_t syndrome) const;

 private:
  PauliType type_;
  std::size_t num_nodes_ = 0;
  std::vector<std::vector<std::size_t>> table_;  ///< syndrome -> qubits
};

}  // namespace qcgen::qec
