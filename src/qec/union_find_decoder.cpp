#include "qec/union_find_decoder.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace qcgen::qec {

namespace {
constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();
}

UnionFindDecoder::UnionFindDecoder(const SurfaceCode& code,
                                   PauliType stabilizer_type)
    : MatchingDecoder(code, stabilizer_type) {
  // Parallel edges between two plaquettes share one id, so they grow as
  // one edge that gains a half-edge per listing.
  const std::size_t n = graph_.num_nodes();
  std::vector<std::uint32_t> edge_of(n * n, kNoEdge);
  neighbour_begin_.push_back(0);
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto& [v, q] : graph_.neighbours(u)) {
      (void)q;
      std::uint32_t& edge = edge_of[std::min(u, v) * n + std::max(u, v)];
      if (edge == kNoEdge) edge = static_cast<std::uint32_t>(num_edges_++);
      neighbour_node_.push_back(static_cast<std::uint32_t>(v));
      neighbour_edge_.push_back(edge);
    }
    neighbour_begin_.push_back(
        static_cast<std::uint32_t>(neighbour_node_.size()));
    has_boundary_.push_back(graph_.boundary_qubits(u).empty() ? 0 : 1);
  }
}

std::uint32_t UnionFindDecoder::find(std::uint32_t v) {
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];
    v = parent_[v];
  }
  return v;
}

void UnionFindDecoder::unite(std::uint32_t a, std::uint32_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return;
  if (rank_[a] < rank_[b]) std::swap(a, b);
  parent_[b] = a;
  if (rank_[a] == rank_[b]) ++rank_[a];
  parity_[a] += parity_[b];
  touches_boundary_[a] |= touches_boundary_[b];
  std::swap(next_member_[a], next_member_[b]);
}

void UnionFindDecoder::match(std::span<const DetectionEvent> events,
                             Pairing& pairs) {
  pairs.clear();
  if (events.empty()) return;

  // Space-time node ids: (node, round) -> node * rounds + round, with
  // rounds spanning the observed event range. Growth beyond the last
  // event round has nothing further to absorb and the boundary is
  // spatial, so the range suffices.
  std::size_t max_round = 0;
  for (const DetectionEvent& e : events) {
    max_round = std::max(max_round, e.round);
  }
  const std::size_t rounds = max_round + 1;
  const std::size_t spatial = graph_.num_nodes();
  const std::size_t total = spatial * rounds;
  const auto id_of = [&](const DetectionEvent& e) {
    return static_cast<std::uint32_t>(e.node * rounds + e.round);
  };

  parent_.resize(total);
  std::iota(parent_.begin(), parent_.end(), 0u);
  next_member_.resize(total);
  std::iota(next_member_.begin(), next_member_.end(), 0u);
  rank_.assign(total, 0);
  parity_.assign(total, 0);
  touches_boundary_.assign(total, 0);
  spatial_growth_.assign(rounds * num_edges_, 0);
  temporal_growth_.assign(total, 0);
  boundary_growth_.assign(total, 0);
  listed_.assign(total, 0);

  for (const DetectionEvent& e : events) ++parity_[id_of(e)];
  std::uint32_t stamp = 1;
  odd_roots_.clear();
  for (const DetectionEvent& e : events) {
    const std::uint32_t id = id_of(e);
    if (is_odd(id) && listed_[id] != stamp) {
      listed_[id] = stamp;
      odd_roots_.push_back(id);
    }
  }

  // Each step, every node of an odd cluster grows all its incident edges
  // (spatial, temporal, boundary) by a half-edge, visiting nodes in id
  // order; edges that become full merge their endpoints' clusters.
  const auto grow = [this](std::uint8_t& growth, std::uint32_t id,
                           std::uint32_t other) {
    if (growth < 2 && ++growth == 2) to_union_.emplace_back(id, other);
  };
  const std::size_t max_steps = 4 * (spatial + rounds) + 8;
  for (std::size_t step = 0; step < max_steps && !odd_roots_.empty();
       ++step) {
    frontier_.clear();
    for (const std::uint32_t root : odd_roots_) {
      std::uint32_t v = root;
      do {
        frontier_.push_back(v);
        v = next_member_[v];
      } while (v != root);
    }
    std::sort(frontier_.begin(), frontier_.end());

    to_union_.clear();
    to_boundary_.clear();
    for (const std::uint32_t id : frontier_) {
      const std::size_t node = id / rounds;
      const std::size_t round = id % rounds;
      for (std::uint32_t k = neighbour_begin_[node];
           k < neighbour_begin_[node + 1]; ++k) {
        grow(spatial_growth_[round * num_edges_ + neighbour_edge_[k]], id,
             static_cast<std::uint32_t>(neighbour_node_[k] * rounds + round));
      }
      if (round > 0) grow(temporal_growth_[id - 1], id, id - 1);
      if (round + 1 < rounds) grow(temporal_growth_[id], id, id + 1);
      if (has_boundary_[node] && boundary_growth_[id] < 2 &&
          ++boundary_growth_[id] == 2) {
        to_boundary_.push_back(id);
      }
    }
    for (const auto& [a, b] : to_union_) unite(a, b);
    for (const std::uint32_t id : to_boundary_) {
      touches_boundary_[find(id)] = 1;
    }

    // Merging never makes a cluster odd unless it absorbed an odd one, so
    // the new odd roots are among the old ones' roots.
    ++stamp;
    std::size_t kept = 0;
    for (const std::uint32_t old_root : odd_roots_) {
      const std::uint32_t root = find(old_root);
      if (is_odd(root) && listed_[root] != stamp) {
        listed_[root] = stamp;
        odd_roots_[kept++] = root;
      }
    }
    odd_roots_.resize(kept);
  }

  // Clusters in root order, each cluster's events in event order.
  by_cluster_.clear();
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_cluster_.emplace_back(find(id_of(events[i])),
                             static_cast<std::uint32_t>(i));
  }
  std::sort(by_cluster_.begin(), by_cluster_.end());

  // Intra-cluster greedy pairing: repeatedly pair the cluster's cheapest
  // open pair; an odd leftover goes to the boundary (reachable, since
  // growth stops only when a cluster is even or touches the boundary).
  for (std::size_t begin = 0; begin < by_cluster_.size();) {
    std::size_t end = begin;
    open_.clear();
    while (end < by_cluster_.size() &&
           by_cluster_[end].first == by_cluster_[begin].first) {
      open_.push_back(by_cluster_[end++].second);
    }
    begin = end;
    while (open_.size() >= 2) {
      std::size_t best_a = 0, best_b = 1;
      std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t a = 0; a < open_.size(); ++a) {
        for (std::size_t b = a + 1; b < open_.size(); ++b) {
          const std::uint32_t c = cost(events[open_[a]], events[open_[b]]);
          if (c < best_cost) {
            best_cost = c;
            best_a = a;
            best_b = b;
          }
        }
      }
      pairs.emplace_back(open_[best_a], open_[best_b]);
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(best_b));
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(best_a));
    }
    if (open_.size() == 1) pairs.emplace_back(open_[0], events.size());
  }
}

}  // namespace qcgen::qec
