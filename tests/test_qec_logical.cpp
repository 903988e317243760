// Monte-Carlo logical-error-rate tests, lifetime model tests, and
// validation of the circuit-level syndrome extraction against the
// phenomenological model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"

#include "qec/history_sampler.hpp"
#include "qec/lifetime.hpp"
#include "qec/logical_error.hpp"
#include "qec/syndrome_circuit.hpp"
#include "qec_reference.hpp"

// Every global heap allocation in this test binary is counted, so a test
// can assert that a stretch of code allocates nothing.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The replacements pair malloc with free; GCC cannot see that through
// inlining and warns about a new/free mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace qcgen::qec {
namespace {

TEST(LogicalError, ZeroNoiseZeroFailures) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LogicalErrorConfig config;
  config.noise = {0.0, 0.0};
  config.trials = 100;
  const auto estimate = estimate_logical_error(code, DecoderKind::kMwpm, config);
  EXPECT_EQ(estimate.failures, 0u);
  EXPECT_EQ(estimate.logical_error_rate, 0.0);
}

TEST(LogicalError, RateIncreasesWithPhysicalError) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LogicalErrorConfig low;
  low.noise = {0.01, 0.01};
  low.trials = 1500;
  LogicalErrorConfig high = low;
  high.noise = {0.06, 0.06};
  const auto at_low = estimate_logical_error(code, DecoderKind::kMwpm, low);
  const auto at_high = estimate_logical_error(code, DecoderKind::kMwpm, high);
  EXPECT_LT(at_low.logical_error_rate, at_high.logical_error_rate);
}

TEST(LogicalError, DistanceHelpsBelowThreshold) {
  LogicalErrorConfig config;
  config.noise = {0.008, 0.008};
  config.trials = 2500;
  const auto d3 = estimate_logical_error(SurfaceCode::rotated(3),
                                         DecoderKind::kMwpm, config);
  const auto d5 = estimate_logical_error(SurfaceCode::rotated(5),
                                         DecoderKind::kMwpm, config);
  EXPECT_LE(d5.logical_error_rate, d3.logical_error_rate + 0.01);
}

TEST(LogicalError, MwpmNoWorseThanGreedy) {
  const SurfaceCode code = SurfaceCode::rotated(5);
  LogicalErrorConfig config;
  config.noise = {0.02, 0.02};
  config.trials = 1500;
  const auto mwpm = estimate_logical_error(code, DecoderKind::kMwpm, config);
  const auto greedy = estimate_logical_error(code, DecoderKind::kGreedy, config);
  EXPECT_LE(mwpm.logical_error_rate, greedy.logical_error_rate + 0.02);
}

TEST(LogicalError, DeterministicGivenSeed) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LogicalErrorConfig config;
  config.noise = {0.03, 0.02};
  config.trials = 300;
  config.seed = 77;
  const auto a = estimate_logical_error(code, DecoderKind::kUnionFind, config);
  const auto b = estimate_logical_error(code, DecoderKind::kUnionFind, config);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.x_failures, b.x_failures);
}

TEST(LogicalError, PerRoundRateInversion) {
  LogicalErrorEstimate estimate;
  estimate.trials = 100;
  estimate.logical_error_rate = 0.2;
  const double per_round = estimate.per_round_rate(5);
  // (1 - r)^5 == 0.8
  EXPECT_NEAR(std::pow(1.0 - per_round, 5.0), 0.8, 1e-9);
  EXPECT_EQ(estimate.per_round_rate(0), 0.0);
}

TEST(LogicalError, ConfidenceIntervalBracketsRate) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LogicalErrorConfig config;
  config.noise = {0.05, 0.05};
  config.trials = 800;
  const auto e = estimate_logical_error(code, DecoderKind::kMwpm, config);
  EXPECT_LE(e.confidence.lo, e.logical_error_rate);
  EXPECT_GE(e.confidence.hi, e.logical_error_rate);
}

// Frozen Monte-Carlo outputs, recorded with the straightforward per-trial
// kernels now kept in tests/qec_reference. The allocation-free loop must
// consume the same RNG draws and make the same decisions, so these counts
// never change.
struct GoldenCase {
  int distance;
  DecoderKind kind;
  std::uint64_t seed;
  std::size_t failures;
  std::size_t x_failures;
  std::size_t z_failures;
};

TEST(LogicalError, GoldenFailureCountsAreFrozen) {
  const GoldenCase cases[] = {
      {3, DecoderKind::kMwpm, 1, 59, 29, 30},
      {3, DecoderKind::kMwpm, 7, 43, 24, 20},
      {3, DecoderKind::kMwpm, 20260417, 55, 26, 29},
      {3, DecoderKind::kUnionFind, 1, 60, 29, 31},
      {3, DecoderKind::kUnionFind, 7, 43, 20, 23},
      {3, DecoderKind::kUnionFind, 20260417, 46, 26, 21},
      {3, DecoderKind::kGreedy, 1, 60, 29, 31},
      {3, DecoderKind::kGreedy, 7, 49, 26, 25},
      {3, DecoderKind::kGreedy, 20260417, 57, 29, 28},
      {3, DecoderKind::kLookup, 1, 55, 25, 30},
      {3, DecoderKind::kLookup, 7, 39, 22, 17},
      {3, DecoderKind::kLookup, 20260417, 42, 20, 24},
      {5, DecoderKind::kMwpm, 1, 23, 15, 8},
      {5, DecoderKind::kMwpm, 7, 12, 3, 9},
      {5, DecoderKind::kMwpm, 20260417, 22, 7, 15},
      {5, DecoderKind::kUnionFind, 1, 41, 23, 18},
      {5, DecoderKind::kUnionFind, 7, 53, 23, 30},
      {5, DecoderKind::kUnionFind, 20260417, 42, 19, 23},
      {5, DecoderKind::kGreedy, 1, 114, 58, 57},
      {5, DecoderKind::kGreedy, 7, 93, 44, 51},
      {5, DecoderKind::kGreedy, 20260417, 114, 60, 54},
  };
  for (const GoldenCase& c : cases) {
    const SurfaceCode code = SurfaceCode::rotated(c.distance);
    LogicalErrorConfig config;
    config.noise = {0.0106, 0.01272};  // ibm_brisbane p, q = 1.2 p
    config.trials = 3000;
    config.seed = c.seed;
    const auto e = estimate_logical_error(code, c.kind, config);
    const std::string label = "d=" + std::to_string(c.distance) + " " +
                              std::string(decoder_kind_name(c.kind)) +
                              " seed=" + std::to_string(c.seed);
    EXPECT_EQ(e.trials, 3000u) << label;
    EXPECT_EQ(e.failures, c.failures) << label;
    EXPECT_EQ(e.x_failures, c.x_failures) << label;
    EXPECT_EQ(e.z_failures, c.z_failures) << label;
  }
}

// Differential fuzz of the trial loop against the pre-rewrite kernels in
// tests/qec_reference: the same seed must give the same detection events,
// decoder output, residual frame and flip outcomes, trial by trial.
std::vector<DecoderKind> kinds_for(int distance) {
  std::vector<DecoderKind> kinds{DecoderKind::kMwpm, DecoderKind::kUnionFind,
                                 DecoderKind::kGreedy};
  if (distance == 3) kinds.push_back(DecoderKind::kLookup);
  return kinds;
}

TEST(LogicalErrorDifferential, TrialsMatchReferenceKernels) {
  Rng fuzz(20261017);
  for (int d : {3, 5, 7}) {
    const SurfaceCode code = SurfaceCode::rotated(d);
    for (DecoderKind kind : kinds_for(d)) {
      for (int c = 0; c < 8; ++c) {
        const std::uint64_t seed = fuzz.next();
        PhenomenologicalNoise noise{fuzz.uniform(0.0, 0.05),
                                    fuzz.uniform(0.0, 0.05)};
        if (c == 0) noise.data_error = 0.0;
        if (c == 1) noise.meas_error = 0.0;
        const std::size_t rounds = 1 + fuzz.uniform_int(std::uint64_t{8});
        const std::string label = "d=" + std::to_string(d) + " " +
                                  std::string(decoder_kind_name(kind)) +
                                  " case " + std::to_string(c);

        auto z_decoder = make_decoder(kind, code, PauliType::kZ);
        auto x_decoder = make_decoder(kind, code, PauliType::kX);
        HistorySampler sampler(code, rounds);
        TrialDecoder trial(code, *z_decoder, *x_decoder);
        Rng rng(seed);
        Rng reference_rng(seed);
        for (int t = 0; t < 40; ++t) {
          const reference::Trial expected = reference::run_trial(
              code, kind, noise, rounds, reference_rng);
          sampler.sample(noise, rng);
          const auto& z_events = sampler.events(PauliType::kZ);
          const auto& x_events = sampler.events(PauliType::kX);
          ASSERT_EQ(z_events, expected.z_events) << label << " trial " << t;
          ASSERT_EQ(x_events, expected.x_events) << label << " trial " << t;
          ASSERT_EQ(z_decoder->decode(z_events), expected.z_fix) << label;
          ASSERT_EQ(x_decoder->decode(x_events), expected.x_fix) << label;
          const DecodeOutcome outcome = trial.decode(
              sampler.frame_x(), sampler.frame_z(), z_events, x_events);
          const PauliFrame residual = trial.residual();
          ASSERT_EQ(residual.x, expected.residual.x) << label << " trial " << t;
          ASSERT_EQ(residual.z, expected.residual.z) << label << " trial " << t;
          ASSERT_EQ(outcome.x_flip, expected.x_flip) << label << " trial " << t;
          ASSERT_EQ(outcome.z_flip, expected.z_flip) << label << " trial " << t;
          ASSERT_EQ(outcome.corrections_applied,
                    expected.z_fix.size() + expected.x_fix.size())
              << label;
        }
        // Both streams consumed the same draws.
        EXPECT_EQ(rng.next(), reference_rng.next()) << label;
      }
    }
  }
}

TEST(LogicalErrorDifferential, SampleHistoryMatchesReference) {
  Rng fuzz(77);
  for (int d : {3, 5, 7, 9}) {
    const SurfaceCode code = SurfaceCode::rotated(d);
    for (int c = 0; c < 6; ++c) {
      const std::uint64_t seed = fuzz.next();
      const PhenomenologicalNoise noise{fuzz.uniform(0.0, 0.2),
                                        fuzz.uniform(0.0, 0.2)};
      const std::size_t rounds = 1 + fuzz.uniform_int(std::uint64_t{6});
      Rng rng(seed);
      Rng reference_rng(seed);
      const SyndromeHistory got = sample_history(code, noise, rounds, rng);
      const SyndromeHistory want =
          reference::sample_history(code, noise, rounds, reference_rng);
      EXPECT_EQ(got.frame.x, want.frame.x);
      EXPECT_EQ(got.frame.z, want.frame.z);
      ASSERT_EQ(got.rounds.size(), want.rounds.size());
      for (std::size_t r = 0; r < got.rounds.size(); ++r) {
        EXPECT_EQ(got.rounds[r].x, want.rounds[r].x) << "d=" << d << " r=" << r;
        EXPECT_EQ(got.rounds[r].z, want.rounds[r].z) << "d=" << d << " r=" << r;
      }
      for (PauliType type : {PauliType::kX, PauliType::kZ}) {
        EXPECT_EQ(detection_events(got, type),
                  reference::detection_events(want, type));
      }
    }
  }
}

TEST(LogicalErrorDifferential, EstimatesMatchReference) {
  Rng fuzz(5);
  for (int d : {3, 5}) {
    const SurfaceCode code = SurfaceCode::rotated(d);
    for (DecoderKind kind : kinds_for(d)) {
      LogicalErrorConfig config;
      config.noise = {fuzz.uniform(0.0, 0.05), fuzz.uniform(0.0, 0.05)};
      config.trials = 300;
      config.seed = fuzz.next();
      const auto got = estimate_logical_error(code, kind, config);
      const auto want = reference::estimate_logical_error(code, kind, config);
      EXPECT_EQ(got.failures, want.failures) << decoder_kind_name(kind);
      EXPECT_EQ(got.x_failures, want.x_failures) << decoder_kind_name(kind);
      EXPECT_EQ(got.z_failures, want.z_failures) << decoder_kind_name(kind);
    }
  }
}

TEST(LogicalErrorTrials, WarmTrialLoopAllocatesNothing) {
  // The estimate's loop body, run twice over the same trials: the first
  // pass grows every buffer to what these trials need, the second must
  // not touch the heap.
  for (int d : {3, 5}) {
    const SurfaceCode code = SurfaceCode::rotated(d);
    for (DecoderKind kind : kinds_for(d)) {
      auto z_decoder = make_decoder(kind, code, PauliType::kZ);
      auto x_decoder = make_decoder(kind, code, PauliType::kX);
      HistorySampler sampler(code, static_cast<std::size_t>(d));
      TrialDecoder trial(code, *z_decoder, *x_decoder);
      const PhenomenologicalNoise noise{0.02, 0.024};
      std::size_t allocations = 0;
      std::size_t failures[2] = {0, 0};
      for (int pass = 0; pass < 2; ++pass) {
        Rng rng(99);
        const std::size_t before = g_allocations.load();
        for (std::size_t t = 0; t < 500; ++t) {
          if (t % 32 == 0) cancel::checkpoint("qec.decode.round");
          {
            trace::TraceSpan span("qec.syndrome_extraction");
            sampler.sample(noise, rng);
          }
          const DecodeOutcome outcome = trial.decode(
              sampler.frame_x(), sampler.frame_z(),
              sampler.events(PauliType::kZ), sampler.events(PauliType::kX));
          if (outcome.x_flip || outcome.z_flip) ++failures[pass];
        }
        allocations = g_allocations.load() - before;
      }
      EXPECT_EQ(allocations, 0u) << "d=" << d << " " << decoder_kind_name(kind);
      EXPECT_EQ(failures[0], failures[1]);
    }
  }
}

TEST(DecodeHistory, RequiresMatchingDecoderTypes) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  auto z_dec = make_decoder(DecoderKind::kMwpm, code, PauliType::kZ);
  auto x_dec = make_decoder(DecoderKind::kMwpm, code, PauliType::kX);
  SyndromeHistory history(code.num_data_qubits());
  history.rounds = {measure_syndrome(code, history.frame)};
  EXPECT_THROW(decode_history(code, *x_dec, *z_dec, history),
               InvalidArgumentError);
  const auto outcome = decode_history(code, *z_dec, *x_dec, history);
  EXPECT_FALSE(outcome.x_flip);
  EXPECT_FALSE(outcome.z_flip);
}

TEST(Lifetime, ExtensionBelowThreshold) {
  const SurfaceCode code = SurfaceCode::rotated(5);
  LifetimeConfig config;
  config.trials = 1500;
  const LifetimeReport report = measure_lifetime(code, 0.004, config);
  EXPECT_GT(report.lifetime_extension, 1.0);
  EXPECT_LT(report.suppression_factor, 1.0);
  EXPECT_NEAR(report.physical_lifetime_rounds, 250.0, 1e-9);
}

TEST(Lifetime, SuppressionSaturatesAtOne) {
  // Far above threshold the code cannot help; suppression is capped at 1.
  const SurfaceCode code = SurfaceCode::rotated(3);
  LifetimeConfig config;
  config.trials = 400;
  const LifetimeReport report = measure_lifetime(code, 0.25, config);
  EXPECT_LE(report.suppression_factor, 1.0);
}

TEST(Lifetime, EffectiveNoiseScalesAllChannels) {
  LifetimeReport report;
  report.suppression_factor = 0.25;
  const sim::NoiseModel physical = sim::NoiseModel::ibm_brisbane();
  const sim::NoiseModel effective = qec_effective_noise(physical, report);
  EXPECT_NEAR(effective.depolarizing_2q, physical.depolarizing_2q * 0.25,
              1e-12);
  EXPECT_NEAR(effective.readout_error, physical.readout_error * 0.25, 1e-12);
}

TEST(Lifetime, InvalidInputsRejected) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LifetimeConfig config;
  EXPECT_THROW(measure_lifetime(code, 0.0, config), InvalidArgumentError);
  EXPECT_THROW(measure_lifetime(code, 1.0, config), InvalidArgumentError);
}

// --- Circuit-level syndrome extraction (tableau-backed) ---------------

TEST(SyndromeCircuit, BuildShape) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  const SyndromeCircuit sc = build_syndrome_circuit(code, 2, false);
  EXPECT_EQ(sc.num_data, 9u);
  EXPECT_EQ(sc.num_ancilla, 8u);
  EXPECT_EQ(sc.circuit.num_qubits(), 17u);
  EXPECT_EQ(sc.circuit.num_clbits(), 16u);
  EXPECT_EQ(sc.clbit_of(3, 1), 11u);
}

TEST(SyndromeCircuit, NoiselessRunsAreEventFree) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  Rng rng(5);
  for (bool logical_one : {false, true}) {
    const SyndromeHistory history =
        run_syndrome_circuit(code, 3, 0.0, 0.0, logical_one, rng);
    EXPECT_TRUE(detection_events(history, PauliType::kX).empty());
    EXPECT_TRUE(detection_events(history, PauliType::kZ).empty());
  }
}

TEST(SyndromeCircuit, InjectedFrameMatchesPhenomenologicalSyndrome) {
  // The circuit-level extraction must report the same final syndrome as
  // measure_syndrome() applied to the tracked injected frame.
  const SurfaceCode code = SurfaceCode::rotated(3);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const SyndromeHistory history =
        run_syndrome_circuit(code, 2, 0.08, 0.0, false, rng);
    const Syndrome expected = measure_syndrome(code, history.frame);
    const Syndrome& final_round = history.rounds.back();
    EXPECT_EQ(final_round.x, expected.x) << "trial " << trial;
    EXPECT_EQ(final_round.z, expected.z) << "trial " << trial;
  }
}

TEST(SyndromeCircuit, DecodingCircuitLevelHistoriesWorks) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  auto z_dec = make_decoder(DecoderKind::kMwpm, code, PauliType::kZ);
  auto x_dec = make_decoder(DecoderKind::kMwpm, code, PauliType::kX);
  Rng rng(13);
  std::size_t failures = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const SyndromeHistory history =
        run_syndrome_circuit(code, 3, 0.01, 0.01, true, rng);
    const auto outcome = decode_history(code, *z_dec, *x_dec, history);
    if (outcome.x_flip || outcome.z_flip) ++failures;
  }
  // At p = 0.01 the distance-3 code should protect most trials.
  EXPECT_LT(failures, trials / 4);
}

}  // namespace
}  // namespace qcgen::qec
