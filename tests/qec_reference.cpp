#include "qec_reference.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "qec/lookup_decoder.hpp"
#include "qec/matching_graph.hpp"
#include "qec/mwpm_decoder.hpp"

namespace qcgen::qec::reference {
namespace {

Syndrome syndrome_of(const SurfaceCode& code, const PauliFrame& frame) {
  Syndrome syn;
  const auto& x_idx = code.stabilizer_indices(PauliType::kX);
  const auto& z_idx = code.stabilizer_indices(PauliType::kZ);
  syn.x.assign(x_idx.size(), 0);
  syn.z.assign(z_idx.size(), 0);
  for (std::size_t pos = 0; pos < x_idx.size(); ++pos) {
    for (std::size_t q : code.stabilizers()[x_idx[pos]].data_qubits) {
      syn.x[pos] ^= frame.z[q];
    }
  }
  for (std::size_t pos = 0; pos < z_idx.size(); ++pos) {
    for (std::size_t q : code.stabilizers()[z_idx[pos]].data_qubits) {
      syn.z[pos] ^= frame.x[q];
    }
  }
  return syn;
}

std::size_t st_distance(const MatchingGraph& graph, const DetectionEvent& a,
                        const DetectionEvent& b) {
  const std::size_t temporal =
      a.round > b.round ? a.round - b.round : b.round - a.round;
  return graph.distance(a.node, b.node) + temporal;
}

using Pairing = std::vector<std::pair<std::size_t, std::size_t>>;

Pairing match_exact(const MatchingGraph& graph,
                    const std::vector<DetectionEvent>& events) {
  const std::size_t n = events.size();
  const std::size_t full = (1ULL << n) - 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> pair_cost(n, std::vector<double>(n, 0.0));
  std::vector<double> bnd_cost(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    bnd_cost[i] = static_cast<double>(graph.boundary_distance(events[i].node));
    for (std::size_t j = i + 1; j < n; ++j) {
      pair_cost[i][j] = pair_cost[j][i] =
          static_cast<double>(st_distance(graph, events[i], events[j]));
    }
  }
  std::vector<double> best(full + 1, kInf);
  std::vector<std::size_t> choice(full + 1, n);
  best[0] = 0.0;
  for (std::size_t mask = 1; mask <= full; ++mask) {
    const std::size_t i = static_cast<std::size_t>(__builtin_ctzll(mask));
    const std::size_t without_i = mask & (mask - 1);
    if (best[without_i] + bnd_cost[i] < best[mask]) {
      best[mask] = best[without_i] + bnd_cost[i];
      choice[mask] = n;
    }
    std::size_t rest = without_i;
    while (rest) {
      const std::size_t j = static_cast<std::size_t>(__builtin_ctzll(rest));
      rest &= rest - 1;
      const std::size_t next = mask & ~(1ULL << i) & ~(1ULL << j);
      if (best[next] + pair_cost[i][j] < best[mask]) {
        best[mask] = best[next] + pair_cost[i][j];
        choice[mask] = j;
      }
    }
  }
  Pairing pairs;
  std::size_t mask = full;
  while (mask) {
    const std::size_t i = static_cast<std::size_t>(__builtin_ctzll(mask));
    const std::size_t partner = choice[mask];
    pairs.emplace_back(i, partner);
    mask &= ~(1ULL << i);
    if (partner < n) mask &= ~(1ULL << partner);
  }
  return pairs;
}

Pairing match_greedy(const MatchingGraph& graph,
                     const std::vector<DetectionEvent>& events) {
  const std::size_t n = events.size();
  struct Candidate {
    double cost;
    std::size_t i;
    std::size_t j;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    candidates.push_back(
        {static_cast<double>(graph.boundary_distance(events[i].node)), i, n});
    for (std::size_t j = i + 1; j < n; ++j) {
      candidates.push_back(
          {static_cast<double>(st_distance(graph, events[i], events[j])), i,
           j});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.i != b.i) return a.i < b.i;
              return a.j < b.j;
            });
  std::vector<bool> matched(n, false);
  Pairing pairs;
  for (const Candidate& c : candidates) {
    if (matched[c.i]) continue;
    if (c.j < n && matched[c.j]) continue;
    matched[c.i] = true;
    if (c.j < n) matched[c.j] = true;
    pairs.emplace_back(c.i, c.j);
  }
  return pairs;
}

std::vector<std::size_t> decode_mwpm(const MatchingGraph& graph,
                                     const std::vector<DetectionEvent>& events,
                                     std::size_t exact_threshold) {
  if (events.empty()) return {};
  const Pairing pairs = events.size() <= exact_threshold
                            ? match_exact(graph, events)
                            : match_greedy(graph, events);
  std::vector<std::size_t> qubits;
  for (const auto& [i, j] : pairs) {
    const auto path = j >= events.size()
                          ? graph.boundary_path_qubits(events[i].node)
                          : graph.path_qubits(events[i].node, events[j].node);
    qubits.insert(qubits.end(), path.begin(), path.end());
  }
  return qubits;
}

struct Dsu {
  std::vector<std::size_t> parent, rank, parity;
  std::vector<std::uint8_t> touches_bnd;
  explicit Dsu(std::size_t n)
      : parent(n), rank(n, 0), parity(n, 0), touches_bnd(n, 0) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (rank[a] < rank[b]) std::swap(a, b);
    parent[b] = a;
    if (rank[a] == rank[b]) ++rank[a];
    parity[a] += parity[b];
    touches_bnd[a] |= touches_bnd[b];
  }
};

std::vector<std::size_t> decode_union_find(
    const MatchingGraph& graph, const std::vector<DetectionEvent>& events) {
  if (events.empty()) return {};
  std::size_t max_round = 0;
  for (const DetectionEvent& e : events) {
    max_round = std::max(max_round, e.round);
  }
  const std::size_t num_rounds = max_round + 1;
  const std::size_t spatial = graph.num_nodes();
  const auto id_of = [&](std::size_t node, std::size_t round) {
    return node * num_rounds + round;
  };
  Dsu dsu(spatial * num_rounds);
  for (const DetectionEvent& e : events) ++dsu.parity[id_of(e.node, e.round)];

  std::map<std::pair<std::size_t, std::size_t>, int> edge_growth;
  std::map<std::size_t, int> boundary_growth;
  const auto cluster_is_odd = [&](std::size_t id) {
    const std::size_t root = dsu.find(id);
    return dsu.parity[root] % 2 == 1 && !dsu.touches_bnd[root];
  };
  const std::size_t max_steps = 4 * (spatial + num_rounds) + 8;
  for (std::size_t step = 0; step < max_steps; ++step) {
    bool any_odd = false;
    std::vector<std::pair<std::size_t, std::size_t>> to_union;
    std::vector<std::size_t> to_boundary;
    const auto grow = [&](std::size_t id, std::size_t nid) {
      int& g = edge_growth[{std::min(id, nid), std::max(id, nid)}];
      if (g < 2 && ++g == 2) to_union.emplace_back(id, nid);
    };
    for (std::size_t node = 0; node < spatial; ++node) {
      for (std::size_t round = 0; round < num_rounds; ++round) {
        const std::size_t id = id_of(node, round);
        if (!cluster_is_odd(id)) continue;
        any_odd = true;
        for (const auto& [nbr, q] : graph.neighbours(node)) {
          (void)q;
          grow(id, id_of(nbr, round));
        }
        if (round > 0) grow(id, id_of(node, round - 1));
        if (round + 1 < num_rounds) grow(id, id_of(node, round + 1));
        if (!graph.boundary_qubits(node).empty()) {
          int& g = boundary_growth[id];
          if (g < 2 && ++g == 2) to_boundary.push_back(id);
        }
      }
    }
    if (!any_odd) break;
    for (const auto& [a, b] : to_union) dsu.unite(a, b);
    for (std::size_t id : to_boundary) dsu.touches_bnd[dsu.find(id)] = 1;
  }

  std::map<std::size_t, std::vector<std::size_t>> clusters;
  for (std::size_t i = 0; i < events.size(); ++i) {
    clusters[dsu.find(id_of(events[i].node, events[i].round))].push_back(i);
  }
  std::vector<std::size_t> qubits;
  for (auto& [root, open] : clusters) {
    (void)root;
    while (open.size() >= 2) {
      std::size_t best_a = 0, best_b = 1;
      std::size_t best_cost = std::numeric_limits<std::size_t>::max();
      for (std::size_t a = 0; a < open.size(); ++a) {
        for (std::size_t b = a + 1; b < open.size(); ++b) {
          const std::size_t cost =
              st_distance(graph, events[open[a]], events[open[b]]);
          if (cost < best_cost) {
            best_cost = cost;
            best_a = a;
            best_b = b;
          }
        }
      }
      const auto path = graph.path_qubits(events[open[best_a]].node,
                                          events[open[best_b]].node);
      qubits.insert(qubits.end(), path.begin(), path.end());
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(best_b));
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(best_a));
    }
    if (open.size() == 1) {
      const auto path = graph.boundary_path_qubits(events[open[0]].node);
      qubits.insert(qubits.end(), path.begin(), path.end());
    }
  }
  return qubits;
}

}  // namespace

SyndromeHistory sample_history(const SurfaceCode& code,
                               const PhenomenologicalNoise& noise,
                               std::size_t num_rounds, Rng& rng) {
  SyndromeHistory history(code.num_data_qubits());
  for (std::size_t round = 0; round < num_rounds; ++round) {
    for (std::size_t q = 0; q < code.num_data_qubits(); ++q) {
      if (!rng.bernoulli(noise.data_error)) continue;
      switch (rng.uniform_int(static_cast<std::uint64_t>(3))) {
        case 0: history.frame.x[q] ^= 1; break;
        case 1:
          history.frame.x[q] ^= 1;
          history.frame.z[q] ^= 1;
          break;
        default: history.frame.z[q] ^= 1; break;
      }
    }
    Syndrome syn = syndrome_of(code, history.frame);
    for (auto& bit : syn.x) {
      if (rng.bernoulli(noise.meas_error)) bit ^= 1;
    }
    for (auto& bit : syn.z) {
      if (rng.bernoulli(noise.meas_error)) bit ^= 1;
    }
    history.rounds.push_back(std::move(syn));
  }
  history.rounds.push_back(syndrome_of(code, history.frame));
  return history;
}

std::vector<DetectionEvent> detection_events(const SyndromeHistory& history,
                                             PauliType stabilizer_type) {
  std::vector<DetectionEvent> events;
  const auto& get = [&](std::size_t round) -> const std::vector<std::uint8_t>& {
    return stabilizer_type == PauliType::kX ? history.rounds[round].x
                                            : history.rounds[round].z;
  };
  for (std::size_t r = 0; r < history.rounds.size(); ++r) {
    for (std::size_t node = 0; node < get(r).size(); ++node) {
      const std::uint8_t prev = r == 0 ? 0 : get(r - 1)[node];
      if (get(r)[node] != prev) events.push_back(DetectionEvent{node, r});
    }
  }
  return events;
}

std::vector<std::size_t> decode(DecoderKind kind, const SurfaceCode& code,
                                PauliType stabilizer_type,
                                const std::vector<DetectionEvent>& events) {
  if (kind == DecoderKind::kLookup) {
    const LookupDecoder lookup(code, stabilizer_type);
    std::size_t syn = 0;
    for (const DetectionEvent& e : events) syn ^= 1ULL << e.node;
    return lookup.correction_for(syn);
  }
  const MatchingGraph graph(code, stabilizer_type);
  switch (kind) {
    case DecoderKind::kGreedy: return decode_mwpm(graph, events, 0);
    case DecoderKind::kMwpm:
      return decode_mwpm(graph, events, MwpmDecoder::kDefaultExactThreshold);
    default: return decode_union_find(graph, events);
  }
}

Trial run_trial(const SurfaceCode& code, DecoderKind kind,
                const PhenomenologicalNoise& noise, std::size_t num_rounds,
                Rng& rng) {
  Trial trial(code.num_data_qubits());
  trial.history = reference::sample_history(code, noise, num_rounds, rng);
  trial.z_events = reference::detection_events(trial.history, PauliType::kZ);
  trial.x_events = reference::detection_events(trial.history, PauliType::kX);
  trial.z_fix = decode(kind, code, PauliType::kZ, trial.z_events);
  trial.x_fix = decode(kind, code, PauliType::kX, trial.x_events);
  trial.residual = trial.history.frame;
  trial.residual.apply(correction_frame(code, PauliType::kZ, trial.z_fix));
  trial.residual.apply(correction_frame(code, PauliType::kX, trial.x_fix));
  trial.x_flip = logical_flip(code, trial.residual, PauliType::kX);
  trial.z_flip = logical_flip(code, trial.residual, PauliType::kZ);
  return trial;
}

LogicalErrorEstimate estimate_logical_error(const SurfaceCode& code,
                                            DecoderKind kind,
                                            const LogicalErrorConfig& config) {
  const std::size_t rounds =
      config.rounds == 0 ? static_cast<std::size_t>(code.distance())
                         : config.rounds;
  LogicalErrorEstimate estimate;
  estimate.trials = config.trials;
  Rng rng(config.seed);
  for (std::size_t t = 0; t < config.trials; ++t) {
    const Trial trial = run_trial(code, kind, config.noise, rounds, rng);
    if (trial.x_flip) ++estimate.x_failures;
    if (trial.z_flip) ++estimate.z_failures;
    if (trial.x_flip || trial.z_flip) ++estimate.failures;
  }
  estimate.logical_error_rate = static_cast<double>(estimate.failures) /
                                static_cast<double>(estimate.trials);
  return estimate;
}

}  // namespace qcgen::qec::reference
