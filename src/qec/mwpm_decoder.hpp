#pragma once
// Minimum-weight perfect matching decoder.
//
// Detection events are matched pairwise (or to the boundary) so the total
// space-time path cost is minimal. Small event sets are solved exactly by
// bitmask dynamic programming; larger sets fall back to greedy matching
// (cheapest available pair first). Constructing with exact_threshold = 0
// yields the pure-greedy decoder used as a baseline in ABL-DEC.

#include <cstddef>
#include <cstdint>

#include "qec/decoder.hpp"

namespace qcgen::qec {

class MwpmDecoder final : public MatchingDecoder {
 public:
  /// Exact matching is used when the event count is <= exact_threshold.
  static constexpr std::size_t kDefaultExactThreshold = 14;

  MwpmDecoder(const SurfaceCode& code, PauliType stabilizer_type,
              std::size_t exact_threshold = kDefaultExactThreshold);

  std::string name() const override {
    return exact_threshold_ == 0 ? "greedy" : "mwpm";
  }
  void match(std::span<const DetectionEvent> events, Pairing& pairs) override;

 private:
  void match_exact(std::span<const DetectionEvent> events, Pairing& pairs);
  void match_greedy(std::span<const DetectionEvent> events, Pairing& pairs);

  struct Candidate {
    std::uint32_t cost;
    std::uint32_t i;
    std::uint32_t j;  ///< events.size() means boundary
  };

  std::size_t exact_threshold_;
  // Working memory reused across calls. The DP tables hold 2^n entries
  // for n events: best[mask] is the cheapest matching of the events in
  // mask, partner[mask] the partner of mask's lowest event (n: boundary).
  std::vector<std::uint32_t> pair_cost_;  ///< n x n
  std::vector<std::uint32_t> boundary_cost_;
  std::vector<std::uint32_t> best_;
  std::vector<std::uint8_t> partner_;
  std::vector<Candidate> candidates_;
  std::vector<std::uint8_t> matched_;
};

}  // namespace qcgen::qec
