#include "qec/matching_graph.hpp"

#include <limits>
#include <queue>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace qcgen::qec {

namespace {
constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
/// Unreached entry of the 32-bit all-pairs tables.
constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
}

MatchingGraph::MatchingGraph(const SurfaceCode& code, PauliType type)
    : type_(type) {
  const auto& indices = code.stabilizer_indices(type);
  const std::size_t n = indices.size();
  adjacency_.assign(n, {});
  boundary_qubits_.assign(n, {});

  // Edges: for each data qubit, the stabilizers of `type` covering it.
  for (std::size_t q = 0; q < code.num_data_qubits(); ++q) {
    const auto& owners = code.stabilizers_on_qubit(type, q);
    if (owners.size() == 2) {
      adjacency_[owners[0]].emplace_back(owners[1], q);
      adjacency_[owners[1]].emplace_back(owners[0], q);
    } else if (owners.size() == 1) {
      boundary_qubits_[owners[0]].push_back(q);
    }
  }

  // All-pairs BFS (graphs are tiny: <= (d^2-1)/2 nodes).
  dist_.assign(n * n, kUnreached);
  parent_.assign(n * n, kUnreached);
  parent_qubit_.assign(n * n, kUnreached);
  std::queue<std::size_t> queue;
  for (std::size_t s = 0; s < n; ++s) {
    std::uint32_t* dist = dist_.data() + s * n;
    dist[s] = 0;
    queue.push(s);
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      for (const auto& [v, q] : adjacency_[u]) {
        if (dist[v] == kUnreached) {
          dist[v] = dist[u] + 1;
          parent_[s * n + v] = static_cast<std::uint32_t>(u);
          parent_qubit_[s * n + v] = static_cast<std::uint32_t>(q);
          queue.push(v);
        }
      }
    }
  }

  // Boundary distances: multi-source BFS from boundary-adjacent nodes.
  boundary_dist_.assign(n, kInf);
  boundary_path_.assign(n, {});
  for (std::size_t u = 0; u < n; ++u) {
    if (!boundary_qubits_[u].empty()) {
      boundary_dist_[u] = 1;
      boundary_path_[u] = {boundary_qubits_[u].front()};
    }
  }
  // Relax through the graph: boundary_dist(u) = 1 + min over neighbours.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t u = 0; u < n; ++u) {
      for (const auto& [v, q] : adjacency_[u]) {
        if (boundary_dist_[v] != kInf &&
            boundary_dist_[v] + 1 < boundary_dist_[u]) {
          boundary_dist_[u] = boundary_dist_[v] + 1;
          boundary_path_[u] = boundary_path_[v];
          boundary_path_[u].push_back(q);
          changed = true;
        }
      }
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    ensure(boundary_dist_[u] != kInf,
           "MatchingGraph: node with no boundary path");
  }

  std::size_t edges = 0;
  for (const auto& neighbours : adjacency_) edges += neighbours.size();
  trace::Metrics::counter("qec.matching_graph.builds");
  trace::Metrics::counter("qec.matching_graph.nodes",
                          static_cast<std::int64_t>(n));
  trace::Metrics::counter("qec.matching_graph.edges",
                          static_cast<std::int64_t>(edges / 2));
}

std::size_t MatchingGraph::distance(std::size_t a, std::size_t b) const {
  require(a < num_nodes() && b < num_nodes(),
          "MatchingGraph::distance: node out of range");
  const std::uint32_t d = distance_row(a)[b];
  return d == kUnreached ? kInf : d;
}

std::size_t MatchingGraph::boundary_distance(std::size_t a) const {
  require(a < num_nodes(), "MatchingGraph::boundary_distance: out of range");
  return boundary_dist_[a];
}

std::vector<std::size_t> MatchingGraph::path_qubits(std::size_t a,
                                                    std::size_t b) const {
  require(a < num_nodes() && b < num_nodes(),
          "MatchingGraph::path_qubits: node out of range");
  std::vector<std::size_t> qubits;
  append_path(a, b, qubits);
  return qubits;
}

std::vector<std::size_t> MatchingGraph::boundary_path_qubits(
    std::size_t a) const {
  require(a < num_nodes(), "MatchingGraph::boundary_path_qubits: range");
  return boundary_path_[a];
}

void MatchingGraph::append_path(std::size_t a, std::size_t b,
                                std::vector<std::size_t>& qubits) const {
  const std::size_t row = a * num_nodes();
  std::size_t v = b;
  while (v != a) {
    ensure(parent_[row + v] != kUnreached,
           "MatchingGraph: disconnected nodes");
    qubits.push_back(parent_qubit_[row + v]);
    v = parent_[row + v];
  }
}

void MatchingGraph::append_boundary_path(
    std::size_t a, std::vector<std::size_t>& qubits) const {
  qubits.insert(qubits.end(), boundary_path_[a].begin(),
                boundary_path_[a].end());
}

const std::vector<std::pair<std::size_t, std::size_t>>&
MatchingGraph::neighbours(std::size_t a) const {
  require(a < num_nodes(), "MatchingGraph::neighbours: out of range");
  return adjacency_[a];
}

const std::vector<std::size_t>& MatchingGraph::boundary_qubits(
    std::size_t a) const {
  require(a < num_nodes(), "MatchingGraph::boundary_qubits: out of range");
  return boundary_qubits_[a];
}

}  // namespace qcgen::qec
