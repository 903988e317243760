#pragma once
// Union-Find decoder (Delfosse-Nickerson style cluster growth; Delfosse &
// Nickerson, "Almost-linear time decoding algorithm for topological
// codes", arXiv:1709.06218).
//
// Detection events seed clusters on the space-time detector graph.
// Odd clusters grow by half-edges each step; clusters merge on contact
// and neutralise when their event parity becomes even or they touch the
// lattice boundary. Within each neutral cluster the events are then
// paired greedily (an approximation of peeling that preserves the
// decoder's clustering behaviour, which is its distinguishing feature
// versus global matching).

#include <cstddef>
#include <cstdint>

#include "qec/decoder.hpp"

namespace qcgen::qec {

class UnionFindDecoder final : public MatchingDecoder {
 public:
  UnionFindDecoder(const SurfaceCode& code, PauliType stabilizer_type);

  std::string name() const override { return "union-find"; }
  void match(std::span<const DetectionEvent> events, Pairing& pairs) override;

 private:
  std::uint32_t find(std::uint32_t v);
  void unite(std::uint32_t a, std::uint32_t b);
  bool is_odd(std::uint32_t root) const {
    return parity_[root] % 2 == 1 && !touches_boundary_[root];
  }

  // Spatial graph, flattened: node u's neighbours are entries
  // neighbour_begin_[u] .. neighbour_begin_[u + 1] of neighbour_node_ and
  // neighbour_edge_, in MatchingGraph::neighbours order. Edge ids number
  // the distinct neighbour pairs 0..num_edges_-1.
  std::vector<std::uint32_t> neighbour_begin_;
  std::vector<std::uint32_t> neighbour_node_;
  std::vector<std::uint32_t> neighbour_edge_;
  std::vector<std::uint8_t> has_boundary_;
  std::size_t num_edges_ = 0;

  // Per-decode state over space-time nodes id = node * rounds + round,
  // reused across calls. Each cluster's members form a cycle through
  // next_member_, so a merge splices two cycles.
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> parity_;
  std::vector<std::uint8_t> touches_boundary_;
  std::vector<std::uint32_t> next_member_;
  std::vector<std::uint8_t> spatial_growth_;   ///< round * num_edges_ + edge
  std::vector<std::uint8_t> temporal_growth_;  ///< id: edge id -> id + 1
  std::vector<std::uint8_t> boundary_growth_;  ///< id
  std::vector<std::uint32_t> odd_roots_;
  std::vector<std::uint32_t> listed_;  ///< step stamp per id, dedups roots
  std::vector<std::uint32_t> frontier_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> to_union_;
  std::vector<std::uint32_t> to_boundary_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_cluster_;
  std::vector<std::uint32_t> open_;
};

}  // namespace qcgen::qec
