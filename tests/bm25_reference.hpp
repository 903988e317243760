#pragma once
// Test-only reference for BM25 retrieval.
//
// This is the linear scan the library used before VectorStore became an
// inverted index: per-chunk token lists, a std::map document-frequency
// table filled from a std::set of each chunk's tokens, a scorer that
// string-compares every chunk token against each query token, and a full
// sort of the hits. The tests compare the index against it hit by hit,
// score bits included; nothing in src/ links this file.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "llm/vectorstore.hpp"

namespace qcgen::llm::reference {

class LinearScanStore {
 public:
  explicit LinearScanStore(const std::vector<Chunk>& chunks);

  /// Documents containing the token (0 for unknown tokens).
  std::size_t document_frequency(const std::string& token) const;
  /// Smoothed inverse document frequency.
  double idf(const std::string& token) const;

  /// Top-k hits, score descending then chunk index ascending; scores
  /// <= 0 are dropped.
  std::vector<ScoredIndex> retrieve(const std::string& query,
                                    std::size_t k) const;

 private:
  double score(const std::string& query_token, std::size_t chunk_idx) const;

  std::map<std::string, std::size_t> document_frequency_;
  std::vector<std::vector<std::string>> chunk_tokens_;
  std::vector<double> chunk_len_;
  double avg_len_ = 0.0;
};

}  // namespace qcgen::llm::reference
