#include "bm25_reference.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "llm/tokenizer.hpp"

namespace qcgen::llm::reference {

LinearScanStore::LinearScanStore(const std::vector<Chunk>& chunks) {
  double total_len = 0.0;
  for (const Chunk& c : chunks) {
    std::set<std::string> unique;
    for (auto& t : tokenize(c.text)) unique.insert(std::move(t));
    for (const auto& t : unique) ++document_frequency_[t];
    chunk_tokens_.push_back(tokenize(c.text));
    chunk_len_.push_back(static_cast<double>(chunk_tokens_.back().size()));
    total_len += chunk_len_.back();
  }
  avg_len_ = total_len / static_cast<double>(chunks.size());
}

std::size_t LinearScanStore::document_frequency(
    const std::string& token) const {
  auto it = document_frequency_.find(token);
  return it == document_frequency_.end() ? 0 : it->second;
}

double LinearScanStore::idf(const std::string& token) const {
  const double n = static_cast<double>(chunk_tokens_.size());
  const double df = static_cast<double>(document_frequency(token));
  return std::log((n - df + 0.5) / (df + 0.5) + 1.0);  // BM25+ smoothing
}

double LinearScanStore::score(const std::string& query_token,
                              std::size_t chunk_idx) const {
  constexpr double k1 = 1.5;
  constexpr double b = 0.75;
  std::size_t tf = 0;
  for (const std::string& t : chunk_tokens_[chunk_idx]) {
    if (t == query_token) ++tf;
  }
  if (tf == 0) return 0.0;
  const double idf_value = idf(query_token);
  const double norm =
      k1 * (1.0 - b + b * chunk_len_[chunk_idx] / avg_len_);
  return idf_value * (static_cast<double>(tf) * (k1 + 1.0)) /
         (static_cast<double>(tf) + norm);
}

std::vector<ScoredIndex> LinearScanStore::retrieve(const std::string& query,
                                                   std::size_t k) const {
  const auto query_tokens = tokenize(query);
  std::vector<ScoredIndex> hits;
  hits.reserve(chunk_tokens_.size());
  for (std::size_t i = 0; i < chunk_tokens_.size(); ++i) {
    double s = 0.0;
    for (const std::string& qt : query_tokens) s += score(qt, i);
    if (s > 0.0) hits.push_back(ScoredIndex{i, s});
  }
  std::sort(hits.begin(), hits.end(),
            [](const ScoredIndex& a, const ScoredIndex& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.index < b.index;
            });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

}  // namespace qcgen::llm::reference
