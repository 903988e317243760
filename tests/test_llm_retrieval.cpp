// Tests for the tokenizer, corpora, chunking and BM25 vector store. The
// store is checked hit by hit against the linear-scan reference in
// bm25_reference.hpp.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>

#include "bm25_reference.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "eval/suite.hpp"
#include "llm/corpus.hpp"
#include "llm/tokenizer.hpp"
#include "llm/vectorstore.hpp"

namespace qcgen::llm {
namespace {

Chunk text_chunk(std::string text) {
  Chunk chunk;
  chunk.doc_id = "doc";
  chunk.text = std::move(text);
  return chunk;
}

std::vector<ScoredIndex> scored(const VectorStore& store,
                                const std::vector<Retrieved>& hits) {
  std::vector<ScoredIndex> out;
  for (const Retrieved& hit : hits) {
    out.push_back(ScoredIndex{
        static_cast<std::size_t>(hit.chunk - store.chunks().data()),
        hit.score});
  }
  return out;
}

/// Hit-by-hit equality, score bits included.
void expect_same_hits(const std::vector<ScoredIndex>& expected,
                      const std::vector<ScoredIndex>& actual,
                      const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].index, actual[i].index) << context << " hit " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[i].score),
              std::bit_cast<std::uint64_t>(actual[i].score))
        << context << " hit " << i;
  }
}

TEST(Tokenizer, LowercasesAndSplits) {
  const auto tokens = tokenize("Apply a Hadamard, then CX!");
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "hadamard"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "cx"), tokens.end());
  EXPECT_EQ(std::find(tokens.begin(), tokens.end(), "Apply"), tokens.end());
}

TEST(Tokenizer, DottedIdentifiersKeepWholeAndParts) {
  const auto tokens = tokenize("import qiskit_ibm_runtime;");
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "qiskit_ibm_runtime"),
            tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "runtime"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "qiskit"), tokens.end());
}

TEST(Tokenizer, CountTokens) {
  EXPECT_EQ(count_tokens(""), 0u);
  EXPECT_EQ(count_tokens("one two three"), 3u);
}

TEST(Corpus, ApiCorpusStaleFractionControl) {
  const auto fresh = qiskit_api_corpus(0.0);
  for (const auto& doc : fresh) {
    EXPECT_EQ(doc.freshness, DocFreshness::kCurrent) << doc.id;
  }
  const auto mixed = qiskit_api_corpus(0.35);
  std::size_t stale = 0;
  for (const auto& doc : mixed) {
    if (doc.freshness == DocFreshness::kStale) ++stale;
  }
  const double fraction =
      static_cast<double>(stale) / static_cast<double>(mixed.size());
  EXPECT_NEAR(fraction, 0.35, 0.06);
  EXPECT_THROW(qiskit_api_corpus(1.5), InvalidArgumentError);
}

TEST(Corpus, HigherStaleFractionMeansMoreStaleDocs) {
  const auto low = qiskit_api_corpus(0.2);
  const auto high = qiskit_api_corpus(0.6);
  const auto count_stale = [](const std::vector<Document>& docs) {
    std::size_t n = 0;
    for (const auto& d : docs) {
      if (d.freshness == DocFreshness::kStale) ++n;
    }
    return n;
  };
  EXPECT_LT(count_stale(low), count_stale(high));
}

TEST(Corpus, GuideCorpusCoversEveryAlgorithm) {
  const auto guides = algorithm_guide_corpus();
  for (AlgorithmId id : all_algorithms()) {
    const bool found =
        std::any_of(guides.begin(), guides.end(),
                    [&](const Document& d) { return d.algorithm == id; });
    EXPECT_TRUE(found) << algorithm_name(id);
  }
}

TEST(Corpus, TokenAccounting) {
  const auto guides = algorithm_guide_corpus();
  EXPECT_GT(corpus_tokens(guides), 200u);
  EXPECT_EQ(corpus_tokens({}), 0u);
}

TEST(Chunking, BasicSplitsByWindow) {
  Document doc;
  doc.id = "d";
  doc.text.clear();
  for (int i = 0; i < 100; ++i) doc.text += "word" + std::to_string(i) + " ";
  const auto chunks = chunk_documents({doc}, ChunkStrategy::kBasic, 16);
  EXPECT_EQ(chunks.size(), 7u);  // ceil(100/16)
  EXPECT_THROW(chunk_documents({doc}, ChunkStrategy::kBasic, 2),
               InvalidArgumentError);
}

TEST(Chunking, StructureAwareKeepsSentences) {
  Document doc;
  doc.id = "d";
  doc.text = "First sentence about grover. Second sentence about qft. "
             "Third sentence about teleportation.";
  const auto chunks =
      chunk_documents({doc}, ChunkStrategy::kStructureAware, 12);
  for (const auto& chunk : chunks) {
    // Structure-aware chunks end at sentence boundaries.
    const auto trimmed = trim(chunk.text);
    EXPECT_EQ(trimmed.back(), '.') << chunk.text;
  }
}

TEST(Chunking, PropagatesMetadata) {
  const auto guides = algorithm_guide_corpus();
  const auto chunks = chunk_documents(guides, ChunkStrategy::kBasic, 32);
  bool found_grover = false;
  for (const auto& chunk : chunks) {
    if (chunk.algorithm == AlgorithmId::kGrover) found_grover = true;
  }
  EXPECT_TRUE(found_grover);
}

TEST(VectorStore, RetrievesRelevantGuide) {
  VectorStore store(
      chunk_documents(algorithm_guide_corpus(), ChunkStrategy::kBasic, 48));
  const auto hits = store.retrieve("grover search oracle diffusion", 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].chunk->algorithm, AlgorithmId::kGrover);
  // Scores are sorted descending.
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST(VectorStore, TeleportationQueryFindsTeleportationGuide) {
  VectorStore store(chunk_documents(algorithm_guide_corpus(),
                                    ChunkStrategy::kStructureAware, 48));
  const auto hits = store.retrieve(
      "teleport a state using a bell pair and conditioned corrections", 2);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].chunk->algorithm, AlgorithmId::kTeleportation);
}

TEST(VectorStore, NoMatchesForAlienQuery) {
  VectorStore store(
      chunk_documents(algorithm_guide_corpus(), ChunkStrategy::kBasic, 48));
  const auto hits = store.retrieve("zzzzz xxxxx qqqqq", 5);
  EXPECT_TRUE(hits.empty());
}

TEST(VectorStore, TopKLimit) {
  VectorStore store(
      chunk_documents(algorithm_guide_corpus(), ChunkStrategy::kBasic, 48));
  const auto hits = store.retrieve("quantum circuit measure qubit", 2);
  EXPECT_LE(hits.size(), 2u);
}

TEST(VectorStore, EmptyChunksRejected) {
  EXPECT_THROW(VectorStore({}), InvalidArgumentError);
}

TEST(VectorStore, EqualScoresTieBreakByChunkIndex) {
  // Five chunks with identical text score identically on any matching
  // query; the result order must be the stable chunk-index order, not an
  // artifact of the sort implementation or the doc-id strings.
  std::vector<Chunk> chunks;
  for (int i = 0; i < 5; ++i) {
    Chunk chunk;
    // Deliberately anti-sorted ids: index order != lexicographic order.
    chunk.doc_id = "doc-" + std::to_string(9 - i);
    chunk.text = "superposition entangle measure";
    chunks.push_back(chunk);
  }
  VectorStore store(std::move(chunks));
  const auto hits = store.retrieve("superposition entangle", 5);
  ASSERT_EQ(hits.size(), 5u);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].score, hits[0].score);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].chunk, &store.chunks()[i]) << i;
  }
}

// Every hit (chunk index and score bits) for every semantic-suite prompt,
// in both query forms SimLM sends, against the API and guide stores under
// both chunkers, at k = 1, 4 and past the store size. The constant was
// captured from the linear-scan scorer and is frozen: an index rewrite
// must reproduce it bit for bit.
TEST(VectorStore, GoldenRetrievalDigestIsFrozen) {
  std::uint64_t digest = 1469598103934665603ULL;
  const auto mix = [&](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xffU;
      digest *= 1099511628211ULL;
    }
  };
  const auto suite = eval::semantic_suite();
  std::size_t total_hits = 0;
  for (ChunkStrategy strategy :
       {ChunkStrategy::kBasic, ChunkStrategy::kStructureAware}) {
    const VectorStore api(chunk_documents(qiskit_api_corpus(), strategy));
    const VectorStore guides(
        chunk_documents(algorithm_guide_corpus(), strategy));
    for (const VectorStore* store : {&api, &guides}) {
      for (const auto& test_case : suite) {
        for (const std::string& query :
             {test_case.prompt,
              test_case.prompt + " import module library version"}) {
          for (std::size_t k : {std::size_t{1}, std::size_t{4},
                                store->size() + 5}) {
            const auto hits = scored(*store, store->retrieve(query, k));
            mix(hits.size());
            for (const ScoredIndex& hit : hits) {
              mix(hit.index);
              mix(std::bit_cast<std::uint64_t>(hit.score));
            }
            total_hits += hits.size();
          }
        }
      }
    }
  }
  EXPECT_EQ(total_hits, 19450u);
  EXPECT_EQ(digest, 17782244261719911395ULL);
}

TEST(VectorStore, StaleDocsCompeteOnGenericQueries) {
  // With a heavily stale corpus, generic import/run queries must surface
  // stale chunks — the mechanism behind the RAG staleness ablation.
  VectorStore store(chunk_documents(qiskit_api_corpus(0.6),
                                    ChunkStrategy::kBasic, 48));
  const auto hits =
      store.retrieve("import module run circuit simulator measure", 6);
  ASSERT_FALSE(hits.empty());
  const bool any_stale =
      std::any_of(hits.begin(), hits.end(), [](const Retrieved& r) {
        return r.chunk->freshness == DocFreshness::kStale;
      });
  EXPECT_TRUE(any_stale);
}

TEST(VectorStore, RarerTermOutscoresCommonTermAtEqualTfAndLength) {
  // "alpha" is in both chunks, "beta" in one; both chunks have two
  // tokens, so tf and length norm are equal and only idf differs.
  VectorStore store({text_chunk("alpha beta"), text_chunk("alpha gamma")});
  const auto rare = store.retrieve("beta", 5);
  const auto common = store.retrieve("alpha", 5);
  ASSERT_EQ(rare.size(), 1u);
  ASSERT_EQ(common.size(), 2u);
  EXPECT_EQ(rare[0].chunk, &store.chunks()[0]);
  EXPECT_EQ(common[0].score, common[1].score);
  EXPECT_GT(rare[0].score, common[0].score);
  EXPECT_TRUE(store.retrieve("missing", 5).empty());
}

TEST(VectorStore, RepeatedTermRaisesTfButCountsOnceInDf) {
  VectorStore repeated({text_chunk("word word word"),
                        text_chunk("other text here")});
  VectorStore single({text_chunk("word filler filler"),
                      text_chunk("other text here")});
  const auto hits = repeated.retrieve("word", 5);
  ASSERT_EQ(hits.size(), 1u);
  // df = 1 of n = 2 chunks, tf = 3, length = average length.
  const double idf = std::log((2.0 - 1.0 + 0.5) / (1.0 + 0.5) + 1.0);
  const double norm = 1.5 * (1.0 - 0.75 + 0.75 * 3.0 / 3.0);
  EXPECT_DOUBLE_EQ(hits[0].score, idf * (3.0 * 2.5) / (3.0 + norm));
  const auto once = single.retrieve("word", 5);
  ASSERT_EQ(once.size(), 1u);
  EXPECT_GT(hits[0].score, once[0].score);
}

TEST(VectorStore, ConcurrentRetrieveMatchesSerial) {
  const auto chunks =
      chunk_documents(qiskit_api_corpus(), ChunkStrategy::kBasic);
  std::vector<std::string> queries;
  for (const auto& test_case : eval::semantic_suite()) {
    queries.push_back(test_case.prompt + " import module library version");
  }
  const VectorStore reference(chunks);
  std::vector<std::vector<ScoredIndex>> serial;
  for (const std::string& query : queries) {
    serial.push_back(scored(reference, reference.retrieve(query, 4)));
  }
  for (bool with_cache : {false, true}) {
    VectorStore store(chunks);
    if (with_cache) {
      store.attach_cache(std::make_shared<RetrievalCache>(
          cache::CacheOptions{.name = "retrieval"}));
    }
    constexpr std::size_t kThreads = 8;
    std::vector<std::vector<std::vector<ScoredIndex>>> results(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      results[t].resize(queries.size());
      threads.emplace_back([&, t] {
        // Each thread walks the queries from a different offset, so
        // threads race on the same keys at different times.
        for (std::size_t n = 0; n < queries.size(); ++n) {
          const std::size_t q = (n + t * 13) % queries.size();
          results[t][q] = scored(store, store.retrieve(queries[q], 4));
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        expect_same_hits(serial[q], results[t][q],
                         "cache=" + std::to_string(with_cache) + " thread " +
                             std::to_string(t) + " query " +
                             std::to_string(q));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: the inverted index against the linear scan.

std::string random_text(Rng& rng, std::size_t max_tokens) {
  // A small vocabulary makes ties, shared terms and duplicate chunks
  // common; dotted and underscored identifiers also post their parts.
  static const std::vector<std::string> kWords = {
      "qubit",   "gate",        "H",          "cx",
      "measure", "qiskit",      "Sampler",    "qiskit.circuit",
      "run",     "ibm_runtime", "qiskit_ibm_runtime.sampler"};
  static const std::vector<std::string> kSeparators = {" ", ", ", "; ",
                                                       "(", ") ", "!\n"};
  std::string text;
  const std::size_t n = rng.uniform_int(max_tokens + 1);
  for (std::size_t i = 0; i < n; ++i) {
    text += rng.choice(kWords);
    text += rng.choice(kSeparators);
  }
  return text;
}

TEST(VectorStoreDifferential, RandomCorporaMatchLinearScan) {
  Rng rng(20250613);
  for (int corpus = 0; corpus < 300; ++corpus) {
    std::vector<Chunk> chunks;
    const std::size_t n = 1 + rng.uniform_int(std::uint64_t{10});
    for (std::size_t i = 0; i < n; ++i) {
      if (!chunks.empty() && rng.bernoulli(0.2)) {
        chunks.push_back(chunks[rng.uniform_int(chunks.size())]);
      } else {
        chunks.push_back(text_chunk(random_text(rng, 12)));
      }
    }
    const VectorStore store(chunks);
    const reference::LinearScanStore oracle(chunks);
    for (int q = 0; q < 12; ++q) {
      std::string query;
      switch (q % 4) {
        case 0: query = random_text(rng, 6); break;
        case 1: {  // repeated tokens
          const std::string word = random_text(rng, 1);
          query = word + word + random_text(rng, 3) + word;
          break;
        }
        case 2: query = random_text(rng, 3) + " zzz unknown_term"; break;
        default: query = q % 8 == 3 ? "" : "?! ;"; break;  // no tokens
      }
      for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            n, n + 5}) {
        expect_same_hits(oracle.retrieve(query, k),
                         scored(store, store.retrieve(query, k)),
                         "corpus " + std::to_string(corpus) + " query '" +
                             query + "' k=" + std::to_string(k));
      }
    }
  }
}

TEST(VectorStoreDifferential, ShippedCorporaMatchLinearScan) {
  const auto suite = eval::semantic_suite();
  for (ChunkStrategy strategy :
       {ChunkStrategy::kBasic, ChunkStrategy::kStructureAware}) {
    for (const auto& docs : {qiskit_api_corpus(0.6), algorithm_guide_corpus()}) {
      const auto chunks = chunk_documents(docs, strategy, 32);
      const VectorStore store(chunks);
      const reference::LinearScanStore oracle(chunks);
      for (std::size_t c = 0; c < suite.size(); c += 7) {
        const std::string query = suite[c].prompt + " measure measure";
        for (std::size_t k : {std::size_t{0}, std::size_t{3}, store.size()}) {
          expect_same_hits(oracle.retrieve(query, k),
                           scored(store, store.retrieve(query, k)),
                           suite[c].id + " k=" + std::to_string(k));
        }
      }
    }
  }
}

}  // namespace
}  // namespace qcgen::llm
