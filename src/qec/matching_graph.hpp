#pragma once
// Matching graph over plaquettes of one stabilizer type.
//
// Nodes are stabilizers of the chosen type; two nodes are adjacent when
// they share a data qubit, and a node has a boundary edge for every data
// qubit it covers that belongs to no other stabilizer of the type.
// Decoders use the precomputed all-pairs shortest paths (and the data
// qubits crossed along them) to turn matchings into corrections.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qec/surface_code.hpp"

namespace qcgen::qec {

/// Precomputed shortest-path structure for one stabilizer type.
class MatchingGraph {
 public:
  MatchingGraph(const SurfaceCode& code, PauliType type);

  PauliType type() const noexcept { return type_; }
  std::size_t num_nodes() const noexcept { return adjacency_.size(); }

  /// Spatial graph distance between two plaquettes (hops = data qubits
  /// crossed). Nodes are positions within stabilizer_indices(type).
  std::size_t distance(std::size_t a, std::size_t b) const;
  /// Distance from a plaquette to the nearest boundary of this type.
  std::size_t boundary_distance(std::size_t a) const;

  /// Data qubits crossed by a shortest path between two plaquettes.
  std::vector<std::size_t> path_qubits(std::size_t a, std::size_t b) const;
  /// Data qubits crossed by a shortest path to the boundary.
  std::vector<std::size_t> boundary_path_qubits(std::size_t a) const;

  /// Unchecked forms for the decoders' inner loops. distance_row(a)[b] is
  /// distance(a, b); the append_* calls append what path_qubits /
  /// boundary_path_qubits return, in the same order.
  const std::uint32_t* distance_row(std::size_t a) const noexcept {
    return dist_.data() + a * num_nodes();
  }
  void append_path(std::size_t a, std::size_t b,
                   std::vector<std::size_t>& qubits) const;
  void append_boundary_path(std::size_t a,
                            std::vector<std::size_t>& qubits) const;

  /// Direct neighbours (plaquette positions) of a node.
  const std::vector<std::pair<std::size_t, std::size_t>>& neighbours(
      std::size_t a) const;  ///< (neighbour node, crossing data qubit)
  /// Boundary data qubits directly adjacent to a node (may be empty).
  const std::vector<std::size_t>& boundary_qubits(std::size_t a) const;

 private:
  PauliType type_;
  // adjacency_[u] = (v, crossing data qubit)
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adjacency_;
  std::vector<std::vector<std::size_t>> boundary_qubits_;
  // All-pairs shortest paths, row-major n x n: entry a * n + v holds the
  // distance from a to v and the last hop (previous node, crossing qubit)
  // of a shortest a -> v path.
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> parent_qubit_;
  // per node: distance to boundary + first-hop reconstruction
  std::vector<std::size_t> boundary_dist_;
  std::vector<std::vector<std::size_t>> boundary_path_;
};

}  // namespace qcgen::qec
