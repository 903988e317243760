// Tests for syndrome sampling, detection events and the decoders.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "qec/decoder.hpp"
#include "qec/lookup_decoder.hpp"
#include "qec/mwpm_decoder.hpp"
#include "qec/pauli_frame.hpp"
#include "qec/union_find_decoder.hpp"
#include "qec_reference.hpp"

namespace qcgen::qec {
namespace {

TEST(PauliFrame, WeightAndApply) {
  PauliFrame a(4);
  a.x[0] = 1;
  a.z[0] = 1;  // Y on qubit 0
  a.z[2] = 1;
  EXPECT_EQ(a.weight(), 2u);
  PauliFrame b(4);
  b.x[0] = 1;
  a.apply(b);
  EXPECT_EQ(a.x[0], 0);
  EXPECT_EQ(a.z[0], 1);
  PauliFrame wrong(3);
  EXPECT_THROW(a.apply(wrong), InvalidArgumentError);
}

TEST(Syndrome, SingleXErrorTriggersAdjacentZStabs) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  PauliFrame frame(code.num_data_qubits());
  frame.x[code.data_index(1, 1)] = 1;  // bulk qubit
  const Syndrome syn = measure_syndrome(code, frame);
  std::size_t z_defects = 0;
  for (auto b : syn.z) z_defects += b;
  std::size_t x_defects = 0;
  for (auto b : syn.x) x_defects += b;
  EXPECT_EQ(z_defects, 2u);  // bulk X error touches two Z plaquettes
  EXPECT_EQ(x_defects, 0u);  // and no X plaquettes
}

TEST(Syndrome, StabilizerErrorIsInvisible) {
  // Applying an entire Z-stabilizer as an error yields a trivial syndrome.
  const SurfaceCode code = SurfaceCode::rotated(3);
  PauliFrame frame(code.num_data_qubits());
  const auto& z_idx = code.stabilizer_indices(PauliType::kZ);
  for (std::size_t q : code.stabilizers()[z_idx[0]].data_qubits) {
    frame.z[q] ^= 1;
  }
  const Syndrome syn = measure_syndrome(code, frame);
  for (auto b : syn.x) EXPECT_EQ(b, 0);
  for (auto b : syn.z) EXPECT_EQ(b, 0);
}

TEST(SampleHistory, NoNoiseMeansNoEvents) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  Rng rng(1);
  const SyndromeHistory history =
      sample_history(code, PhenomenologicalNoise{0.0, 0.0}, 3, rng);
  EXPECT_EQ(history.rounds.size(), 4u);  // 3 noisy + final perfect
  EXPECT_TRUE(detection_events(history, PauliType::kX).empty());
  EXPECT_TRUE(detection_events(history, PauliType::kZ).empty());
  EXPECT_EQ(history.frame.weight(), 0u);
}

TEST(SampleHistory, MeasurementNoiseMakesPairedEvents) {
  // Pure measurement noise: every flip creates two temporal events for
  // the same node (flip on, flip off), except flips in the last noisy
  // round which pair with the perfect round.
  const SurfaceCode code = SurfaceCode::rotated(3);
  Rng rng(7);
  const SyndromeHistory history =
      sample_history(code, PhenomenologicalNoise{0.0, 0.3}, 4, rng);
  const auto events = detection_events(history, PauliType::kZ);
  EXPECT_EQ(events.size() % 2, 0u);
  EXPECT_EQ(history.frame.weight(), 0u);  // no data errors at all
}

TEST(DetectionEvents, DifferencingLogic) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  SyndromeHistory history(code.num_data_qubits());
  Syndrome s0;
  s0.x.assign(4, 0);
  s0.z.assign(4, 0);
  Syndrome s1 = s0;
  s1.z[2] = 1;  // appears in round 1
  Syndrome s2 = s1;  // persists in round 2: no new event
  history.rounds = {s0, s1, s2};
  const auto events = detection_events(history, PauliType::kZ);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 2u);
  EXPECT_EQ(events[0].round, 1u);
}

class DecoderKindTest : public ::testing::TestWithParam<DecoderKind> {};

TEST_P(DecoderKindTest, EmptySyndromeDecodesToNothing) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  auto decoder = make_decoder(GetParam(), code, PauliType::kZ);
  EXPECT_TRUE(decoder->decode({}).empty());
}

TEST_P(DecoderKindTest, CorrectsEverySingleDataError) {
  // Distance-3 property: any single X error, measured perfectly, must be
  // corrected without a logical flip by every decoder.
  const SurfaceCode code = SurfaceCode::rotated(3);
  auto decoder = make_decoder(GetParam(), code, PauliType::kZ);
  for (std::size_t q = 0; q < code.num_data_qubits(); ++q) {
    PauliFrame frame(code.num_data_qubits());
    frame.x[q] = 1;
    SyndromeHistory history(code.num_data_qubits());
    history.frame = frame;
    history.rounds = {measure_syndrome(code, frame)};
    const auto events = detection_events(history, PauliType::kZ);
    const auto fix = decoder->decode(events);
    PauliFrame residual = frame;
    residual.apply(correction_frame(code, PauliType::kZ, fix));
    // Residual must be a stabilizer (trivial syndrome, no logical flip).
    const Syndrome post = measure_syndrome(code, residual);
    for (auto b : post.z) EXPECT_EQ(b, 0) << "qubit " << q;
    EXPECT_FALSE(logical_flip(code, residual, PauliType::kX))
        << decoder->name() << " failed on single X at qubit " << q;
  }
}

TEST_P(DecoderKindTest, CorrectsEverySingleZError) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  auto decoder = make_decoder(GetParam(), code, PauliType::kX);
  for (std::size_t q = 0; q < code.num_data_qubits(); ++q) {
    PauliFrame frame(code.num_data_qubits());
    frame.z[q] = 1;
    SyndromeHistory history(code.num_data_qubits());
    history.frame = frame;
    history.rounds = {measure_syndrome(code, frame)};
    const auto events = detection_events(history, PauliType::kX);
    const auto fix = decoder->decode(events);
    PauliFrame residual = frame;
    residual.apply(correction_frame(code, PauliType::kX, fix));
    EXPECT_FALSE(logical_flip(code, residual, PauliType::kZ))
        << decoder->name() << " failed on single Z at qubit " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDecoders, DecoderKindTest,
    ::testing::Values(DecoderKind::kLookup, DecoderKind::kGreedy,
                      DecoderKind::kMwpm, DecoderKind::kUnionFind),
    [](const auto& info) {
      std::string name(decoder_kind_name(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(MatchingDecoders, CorrectSingleErrorsAtDistance5) {
  const SurfaceCode code = SurfaceCode::rotated(5);
  for (DecoderKind kind :
       {DecoderKind::kGreedy, DecoderKind::kMwpm, DecoderKind::kUnionFind}) {
    auto decoder = make_decoder(kind, code, PauliType::kZ);
    for (std::size_t q = 0; q < code.num_data_qubits(); ++q) {
      PauliFrame frame(code.num_data_qubits());
      frame.x[q] = 1;
      SyndromeHistory history(code.num_data_qubits());
      history.frame = frame;
      history.rounds = {measure_syndrome(code, frame)};
      const auto fix =
          decoder->decode(detection_events(history, PauliType::kZ));
      PauliFrame residual = frame;
      residual.apply(correction_frame(code, PauliType::kZ, fix));
      EXPECT_FALSE(logical_flip(code, residual, PauliType::kX))
          << decoder_kind_name(kind) << " qubit " << q;
    }
  }
}

TEST(MwpmDecoder, CorrectsWeightTwoErrorsAtDistance5) {
  // d=5 corrects any weight-2 error under perfect measurement.
  const SurfaceCode code = SurfaceCode::rotated(5);
  MwpmDecoder decoder(code, PauliType::kZ);
  for (std::size_t q1 = 0; q1 < code.num_data_qubits(); q1 += 2) {
    for (std::size_t q2 = q1 + 1; q2 < code.num_data_qubits(); q2 += 3) {
      PauliFrame frame(code.num_data_qubits());
      frame.x[q1] = 1;
      frame.x[q2] = 1;
      SyndromeHistory history(code.num_data_qubits());
      history.frame = frame;
      history.rounds = {measure_syndrome(code, frame)};
      const auto fix =
          decoder.decode(detection_events(history, PauliType::kZ));
      PauliFrame residual = frame;
      residual.apply(correction_frame(code, PauliType::kZ, fix));
      EXPECT_FALSE(logical_flip(code, residual, PauliType::kX))
          << "qubits " << q1 << "," << q2;
    }
  }
}

TEST(MatchingDecoders, RejectOutOfRangeEventNodes) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  const std::vector<DetectionEvent> events{{0, 0}, {99, 1}};
  for (DecoderKind kind :
       {DecoderKind::kGreedy, DecoderKind::kMwpm, DecoderKind::kUnionFind}) {
    auto decoder = make_decoder(kind, code, PauliType::kZ);
    EXPECT_THROW(decoder->decode(events), InvalidArgumentError)
        << decoder_kind_name(kind);
  }
}

TEST(LookupDecoder, RequiresDistanceThree) {
  EXPECT_THROW(LookupDecoder(SurfaceCode::rotated(5), PauliType::kZ),
               InvalidArgumentError);
}

TEST(LookupDecoder, TableIsMinimalForSingleDefectSyndromes) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  const LookupDecoder decoder(code, PauliType::kZ);
  // Trivial syndrome -> empty correction.
  EXPECT_TRUE(decoder.correction_for(0).empty());
  // Every single-bit syndrome has a correction of weight 1 or 2.
  for (std::size_t s = 0; s < 4; ++s) {
    const auto& fix = decoder.correction_for(1ULL << s);
    EXPECT_GE(fix.size(), 1u);
    EXPECT_LE(fix.size(), 2u);
  }
}

TEST(DecoderFactory, NamesAndTypes) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  auto lookup = make_decoder(DecoderKind::kLookup, code, PauliType::kZ);
  EXPECT_EQ(lookup->name(), "lookup");
  auto greedy = make_decoder(DecoderKind::kGreedy, code, PauliType::kX);
  EXPECT_EQ(greedy->name(), "greedy");
  EXPECT_EQ(greedy->stabilizer_type(), PauliType::kX);
  auto mwpm = make_decoder(DecoderKind::kMwpm, code, PauliType::kZ);
  EXPECT_EQ(mwpm->name(), "mwpm");
  auto uf = make_decoder(DecoderKind::kUnionFind, code, PauliType::kZ);
  EXPECT_EQ(uf->name(), "union-find");
}

TEST(CorrectionFrame, TypeMapping) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  const PauliFrame zfix = correction_frame(code, PauliType::kZ, {0, 0, 1});
  EXPECT_EQ(zfix.x[0], 0);  // listed twice: cancels
  EXPECT_EQ(zfix.x[1], 1);  // Z stabilizers fix X errors
  EXPECT_EQ(zfix.z[1], 0);
  const PauliFrame xfix = correction_frame(code, PauliType::kX, {2});
  EXPECT_EQ(xfix.z[2], 1);
  EXPECT_THROW(correction_frame(code, PauliType::kZ, {99}),
               InvalidArgumentError);
}

TEST(SpacetimeDistance, CombinesSpaceAndTime) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  const MatchingGraph graph(code, PauliType::kZ);
  const DetectionEvent a{0, 0};
  const DetectionEvent b{0, 3};
  EXPECT_EQ(spacetime_distance(graph, a, b), 3u);
  const DetectionEvent c{1, 1};
  EXPECT_EQ(spacetime_distance(graph, a, c), graph.distance(0, 1) + 1);
}

// --- Fuzzed decoder invariants -------------------------------------------

/// Total space-time weight of a pairing; fails the test unless every
/// event is matched exactly once.
std::size_t pairing_weight(const MatchingGraph& graph,
                           const std::vector<DetectionEvent>& events,
                           const Pairing& pairs) {
  std::vector<int> seen(events.size(), 0);
  std::size_t weight = 0;
  for (const auto& [i, j] : pairs) {
    EXPECT_LT(i, events.size());
    ++seen[i];
    if (j == events.size()) {
      weight += graph.boundary_distance(events[i].node);
    } else {
      EXPECT_LT(j, events.size());
      ++seen[j];
      weight += spacetime_distance(graph, events[i], events[j]);
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  return weight;
}

/// Minimum-weight perfect matching with boundary, by exhaustive search:
/// the lowest open event goes to the boundary or to any other open event.
std::size_t brute_force_weight(const MatchingGraph& graph,
                               const std::vector<DetectionEvent>& events,
                               std::uint32_t open) {
  if (open == 0) return 0;
  const int i = __builtin_ctz(open);
  const std::uint32_t rest = open & (open - 1);
  std::size_t best = graph.boundary_distance(events[i].node) +
                     brute_force_weight(graph, events, rest);
  for (std::uint32_t others = rest; others != 0; others &= others - 1) {
    const int j = __builtin_ctz(others);
    best = std::min(best, spacetime_distance(graph, events[i], events[j]) +
                              brute_force_weight(graph, events,
                                                 rest & ~(1u << j)));
  }
  return best;
}

/// Sampled histories over d in {3, 5, 7} and noise up to 0.08.
struct FuzzHistory {
  int distance;
  SyndromeHistory history;
};
std::vector<FuzzHistory> fuzz_histories(std::uint64_t seed, int per_distance) {
  Rng fuzz(seed);
  std::vector<FuzzHistory> out;
  for (int d : {3, 5, 7}) {
    const SurfaceCode code = SurfaceCode::rotated(d);
    for (int c = 0; c < per_distance; ++c) {
      const PhenomenologicalNoise noise{fuzz.uniform(0.0, 0.08),
                                        fuzz.uniform(0.0, 0.08)};
      const std::size_t rounds = 1 + fuzz.uniform_int(std::uint64_t{7});
      out.push_back({d, sample_history(code, noise, rounds, fuzz)});
    }
  }
  return out;
}

TEST(DecoderInvariants, CorrectionClearsTheFinalSyndrome) {
  // Every event is an endpoint of exactly one correction path (or, for
  // lookup, the table entry reproduces the cumulative syndrome), so the
  // residual error must commute with every stabilizer.
  for (const FuzzHistory& fuzz : fuzz_histories(31, 60)) {
    const SurfaceCode code = SurfaceCode::rotated(fuzz.distance);
    for (DecoderKind kind : {DecoderKind::kLookup, DecoderKind::kGreedy,
                             DecoderKind::kMwpm, DecoderKind::kUnionFind}) {
      if (kind == DecoderKind::kLookup && fuzz.distance != 3) continue;
      PauliFrame residual = fuzz.history.frame;
      for (PauliType type : {PauliType::kZ, PauliType::kX}) {
        auto decoder = make_decoder(kind, code, type);
        const auto fix =
            decoder->decode(detection_events(fuzz.history, type));
        residual.apply(correction_frame(code, type, fix));
      }
      const Syndrome post = measure_syndrome(code, residual);
      for (auto b : post.x) ASSERT_EQ(b, 0) << decoder_kind_name(kind);
      for (auto b : post.z) ASSERT_EQ(b, 0) << decoder_kind_name(kind);
    }
  }
}

TEST(DecoderInvariants, ExactMatchingIsNoHeavierThanGreedyOrUnionFind) {
  std::size_t checked = 0;
  for (const FuzzHistory& fuzz : fuzz_histories(32, 80)) {
    const SurfaceCode code = SurfaceCode::rotated(fuzz.distance);
    for (PauliType type : {PauliType::kZ, PauliType::kX}) {
      const auto events = detection_events(fuzz.history, type);
      // Beyond the threshold "mwpm" is greedy matching, not exact.
      if (events.size() > MwpmDecoder::kDefaultExactThreshold) continue;
      MwpmDecoder exact(code, type);
      MwpmDecoder greedy(code, type, /*exact_threshold=*/0);
      UnionFindDecoder union_find(code, type);
      Pairing pairs;
      exact.match(events, pairs);
      const std::size_t exact_weight =
          pairing_weight(exact.graph(), events, pairs);
      greedy.match(events, pairs);
      EXPECT_LE(exact_weight, pairing_weight(exact.graph(), events, pairs));
      union_find.match(events, pairs);
      EXPECT_LE(exact_weight, pairing_weight(exact.graph(), events, pairs));
      ++checked;
    }
  }
  EXPECT_GT(checked, 300u);
}

TEST(DecoderInvariants, ExactMatchingEqualsBruteForce) {
  Rng fuzz(33);
  for (int d : {3, 5, 7}) {
    const SurfaceCode code = SurfaceCode::rotated(d);
    for (PauliType type : {PauliType::kZ, PauliType::kX}) {
      MwpmDecoder exact(code, type);
      const std::size_t nodes = code.num_stabilizers(type);
      for (int c = 0; c < 40; ++c) {
        // Up to 10 distinct space-time events over d + 1 rounds.
        const std::size_t want = 1 + fuzz.uniform_int(std::uint64_t{10});
        std::vector<DetectionEvent> events;
        while (events.size() < want) {
          const DetectionEvent e{
              fuzz.uniform_int(static_cast<std::uint64_t>(nodes)),
              fuzz.uniform_int(static_cast<std::uint64_t>(d + 1))};
          if (std::find(events.begin(), events.end(), e) == events.end()) {
            events.push_back(e);
          }
        }
        std::sort(events.begin(), events.end(),
                  [](const DetectionEvent& a, const DetectionEvent& b) {
                    return a.round != b.round ? a.round < b.round
                                              : a.node < b.node;
                  });
        Pairing pairs;
        exact.match(events, pairs);
        const auto all = static_cast<std::uint32_t>((1u << events.size()) - 1);
        EXPECT_EQ(pairing_weight(exact.graph(), events, pairs),
                  brute_force_weight(exact.graph(), events, all))
            << "d=" << d << " events=" << events.size();
      }
    }
  }
}

TEST(DecoderInvariants, DecodersMatchReferenceOnArbitraryEventSets) {
  // Beyond sampled histories: random event sets, including more events
  // than the exact threshold and repeated (node, round) pairs.
  Rng fuzz(34);
  for (int d : {3, 5, 7}) {
    const SurfaceCode code = SurfaceCode::rotated(d);
    for (DecoderKind kind : {DecoderKind::kLookup, DecoderKind::kGreedy,
                             DecoderKind::kMwpm, DecoderKind::kUnionFind}) {
      if (kind == DecoderKind::kLookup && d != 3) continue;
      for (PauliType type : {PauliType::kZ, PauliType::kX}) {
        auto decoder = make_decoder(kind, code, type);
        const std::size_t nodes = code.num_stabilizers(type);
        for (int c = 0; c < 25; ++c) {
          std::vector<DetectionEvent> events(fuzz.uniform_int(std::uint64_t{18}));
          for (DetectionEvent& e : events) {
            e = {fuzz.uniform_int(static_cast<std::uint64_t>(nodes)),
                 fuzz.uniform_int(static_cast<std::uint64_t>(d + 2))};
          }
          EXPECT_EQ(decoder->decode(events),
                    reference::decode(kind, code, type, events))
              << decoder_kind_name(kind) << " d=" << d
              << " events=" << events.size();
        }
      }
    }
  }
}

}  // namespace
}  // namespace qcgen::qec
