#include "qec/mwpm_decoder.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qcgen::qec {

MwpmDecoder::MwpmDecoder(const SurfaceCode& code, PauliType stabilizer_type,
                         std::size_t exact_threshold)
    : MatchingDecoder(code, stabilizer_type),
      exact_threshold_(exact_threshold) {
  require(exact_threshold <= 20,
          "MwpmDecoder: exact threshold beyond 20 events is intractable");
}

void MwpmDecoder::match(std::span<const DetectionEvent> events,
                        Pairing& pairs) {
  pairs.clear();
  if (events.size() <= exact_threshold_) {
    match_exact(events, pairs);
  } else {
    match_greedy(events, pairs);
  }
}

void MwpmDecoder::match_exact(std::span<const DetectionEvent> events,
                              Pairing& pairs) {
  const std::size_t n = events.size();
  const std::size_t full = (std::size_t{1} << n) - 1;

  // Pairwise and boundary costs. Every cost is an integer path length, so
  // the DP below is exact and its strict-< tie-break is well defined.
  pair_cost_.resize(n * n);
  boundary_cost_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    boundary_cost_[i] = static_cast<std::uint32_t>(
        graph_.boundary_distance(events[i].node));
    for (std::size_t j = i + 1; j < n; ++j) {
      pair_cost_[i * n + j] = pair_cost_[j * n + i] = cost(events[i], events[j]);
    }
  }

  if (best_.size() < full + 1) {
    best_.resize(full + 1);
    partner_.resize(full + 1);
  }
  std::uint32_t* best = best_.data();
  std::uint8_t* partner = partner_.data();
  best[0] = 0;
  for (std::size_t mask = 1; mask <= full; ++mask) {
    const std::size_t i = static_cast<std::size_t>(__builtin_ctzll(mask));
    const std::size_t without_i = mask & (mask - 1);
    // Match i to the boundary: always finite, so it seeds the minimum.
    std::uint32_t lowest = best[without_i] + boundary_cost_[i];
    std::uint8_t choice = static_cast<std::uint8_t>(n);
    // Match i to another event j in the mask; ties keep the earlier choice.
    const std::uint32_t* row = pair_cost_.data() + i * n;
    std::size_t rest = without_i;
    while (rest) {
      const std::size_t j = static_cast<std::size_t>(__builtin_ctzll(rest));
      rest &= rest - 1;
      const std::uint32_t c = best[without_i & ~(std::size_t{1} << j)] + row[j];
      if (c < lowest) {
        lowest = c;
        choice = static_cast<std::uint8_t>(j);
      }
    }
    best[mask] = lowest;
    partner[mask] = choice;
  }

  std::size_t mask = full;
  while (mask) {
    const std::size_t i = static_cast<std::size_t>(__builtin_ctzll(mask));
    const std::size_t j = partner[mask];
    pairs.emplace_back(i, j);
    mask &= ~(std::size_t{1} << i);
    if (j < n) mask &= ~(std::size_t{1} << j);
  }
}

void MwpmDecoder::match_greedy(std::span<const DetectionEvent> events,
                               Pairing& pairs) {
  const std::size_t n = events.size();
  const auto boundary = static_cast<std::uint32_t>(n);
  candidates_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    candidates_.push_back(
        {static_cast<std::uint32_t>(
        graph_.boundary_distance(events[i].node)), i, boundary});
    for (std::uint32_t j = i + 1; j < n; ++j) {
      candidates_.push_back({cost(events[i], events[j]), i, j});
    }
  }
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.i != b.i) return a.i < b.i;
              return a.j < b.j;
            });
  matched_.assign(n, 0);
  for (const Candidate& c : candidates_) {
    if (matched_[c.i]) continue;
    if (c.j < n && matched_[c.j]) continue;
    matched_[c.i] = 1;
    if (c.j < n) matched_[c.j] = 1;
    pairs.emplace_back(c.i, c.j);
  }
}

}  // namespace qcgen::qec
