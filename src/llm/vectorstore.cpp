#include "llm/vectorstore.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/cache/hash.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "llm/tokenizer.hpp"

namespace qcgen::llm {

std::vector<Chunk> chunk_documents(const std::vector<Document>& docs,
                                   ChunkStrategy strategy,
                                   std::size_t window) {
  require(window >= 8, "chunk_documents: window too small");
  std::vector<Chunk> chunks;
  for (const Document& doc : docs) {
    const auto emit = [&](std::string text) {
      if (trim(text).empty()) return;
      Chunk c;
      c.doc_id = doc.id;
      c.text = std::move(text);
      c.freshness = doc.freshness;
      c.algorithm = doc.algorithm;
      chunks.push_back(std::move(c));
    };
    if (strategy == ChunkStrategy::kBasic) {
      // Fixed token windows over the raw word stream — chops sentences
      // and code examples mid-unit, exactly like naive RAG splitting.
      const auto words = split_whitespace(doc.text);
      for (std::size_t start = 0; start < words.size(); start += window) {
        const std::size_t end = std::min(words.size(), start + window);
        std::vector<std::string> piece(words.begin() + static_cast<std::ptrdiff_t>(start),
                                       words.begin() + static_cast<std::ptrdiff_t>(end));
        emit(join(piece, " "));
      }
    } else {
      // Structure-aware: accumulate whole sentences up to the window.
      std::vector<std::string> sentences;
      std::string current;
      for (char c : doc.text) {
        current += c;
        if (c == '.' || c == ';') {
          sentences.push_back(current);
          current.clear();
        }
      }
      if (!trim(current).empty()) sentences.push_back(current);
      std::string acc;
      for (const std::string& s : sentences) {
        if (!acc.empty() && count_tokens(acc) + count_tokens(s) > window) {
          emit(acc);
          acc.clear();
        }
        acc += s;
      }
      emit(acc);
    }
  }
  return chunks;
}

namespace {

// BM25 term-frequency saturation and length normalisation.
constexpr double kK1 = 1.5;
constexpr double kB = 0.75;

}  // namespace

VectorStore::VectorStore(std::vector<Chunk> chunks)
    : chunks_(std::move(chunks)) {
  require(!chunks_.empty(), "VectorStore: empty chunk set");
  require(chunks_.size() <= std::numeric_limits<std::uint32_t>::max(),
          "VectorStore: too many chunks");
  length_norm_.reserve(chunks_.size());
  double total_len = 0.0;
  cache::KeyHasher version;
  version.mix(static_cast<std::uint64_t>(chunks_.size()));
  // One tokenize pass per chunk: map each token to its term, sort the
  // chunk's terms so repeats sit together, and post one (chunk, tf) per
  // run. Chunks are visited in order, so every postings list is sorted
  // by chunk; the grouping order of the terms themselves is irrelevant.
  std::vector<Term*> chunk_terms;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const Chunk& c = chunks_[i];
    chunk_terms.clear();
    for (std::string& token : tokenize(c.text)) {
      chunk_terms.push_back(&terms_[std::move(token)]);
    }
    std::sort(chunk_terms.begin(), chunk_terms.end(), std::less<>());
    for (std::size_t run = 0; run < chunk_terms.size();) {
      std::size_t next = run + 1;
      while (next < chunk_terms.size() &&
             chunk_terms[next] == chunk_terms[run]) {
        ++next;
      }
      chunk_terms[run]->postings.push_back(
          Posting{static_cast<std::uint32_t>(i),
                  static_cast<std::uint32_t>(next - run)});
      run = next;
    }
    // Holds the chunk length until the average is known.
    length_norm_.push_back(static_cast<double>(chunk_terms.size()));
    total_len += length_norm_.back();
    version.mix(c.doc_id).mix(c.text);
    version.mix(static_cast<std::uint64_t>(c.freshness));
    version.mix(c.algorithm.has_value());
    if (c.algorithm.has_value()) {
      version.mix(static_cast<std::uint64_t>(*c.algorithm));
    }
  }
  const double avg_len = total_len / static_cast<double>(chunks_.size());
  for (double& norm : length_norm_) {
    norm = kK1 * (1.0 - kB + kB * norm / avg_len);
  }
  const double n = static_cast<double>(chunks_.size());
  for (auto& [token, term] : terms_) {
    const double df = static_cast<double>(term.postings.size());
    term.idf = std::log((n - df + 0.5) / (df + 0.5) + 1.0);  // BM25+ smoothing
  }
  content_version_ = version.digest();
}

std::vector<ScoredIndex> VectorStore::retrieve_uncached(
    const std::string& query, std::size_t k) const {
  // Each chunk's score sums its query-term contributions in query order,
  // repeated query tokens included; a chunk without a term adds nothing.
  std::vector<double> scores(chunks_.size(), 0.0);
  for (const std::string& token : tokenize(query)) {
    const auto it = terms_.find(token);
    if (it == terms_.end()) continue;
    const double idf = it->second.idf;
    for (const Posting& p : it->second.postings) {
      const double tf = static_cast<double>(p.tf);
      scores[p.chunk] +=
          idf * (tf * (kK1 + 1.0)) / (tf + length_norm_[p.chunk]);
    }
  }
  std::vector<ScoredIndex> hits;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] > 0.0) hits.push_back(ScoredIndex{i, scores[i]});
  }
  // Equal scores fall back to chunk index: a total, stable order. The
  // previous doc_id tie-break left same-document ties in unspecified
  // order (std::sort is not stable), so retrieval output could depend on
  // the sort implementation — fatal once these results are cache values.
  const std::size_t top = std::min(k, hits.size());
  std::partial_sort(hits.begin(),
                    hits.begin() + static_cast<std::ptrdiff_t>(top), hits.end(),
                    [](const ScoredIndex& a, const ScoredIndex& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.index < b.index;
                    });
  hits.resize(top);
  return hits;
}

std::vector<Retrieved> VectorStore::retrieve(const std::string& query,
                                             std::size_t k) const {
  failpoint::trip("retrieval.query");
  trace::TraceSpan span("bm25.query");
  std::vector<ScoredIndex> scored;
  if (cache_ != nullptr) {
    const std::uint64_t key = cache::KeyHasher()
                                  .mix(content_version_)
                                  .mix(query)
                                  .mix(static_cast<std::uint64_t>(k))
                                  .digest();
    scored = *cache_->get_or_compute(
        key, [&] { return retrieve_uncached(query, k); });
  } else {
    scored = retrieve_uncached(query, k);
  }
  std::vector<Retrieved> hits;
  hits.reserve(scored.size());
  for (const ScoredIndex& s : scored) {
    hits.push_back(Retrieved{&chunks_[s.index], s.score});
  }
  trace::Metrics::counter("bm25.queries");
  trace::Metrics::counter("bm25.hits",
                          static_cast<std::int64_t>(hits.size()));
  if (!hits.empty()) trace::Metrics::observe("bm25.top_score", hits[0].score);
  return hits;
}

}  // namespace qcgen::llm
