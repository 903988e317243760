// Tests for QecEstimates, the QEC agent's per-configuration estimate
// shared across programs: every rung's shared plan equals a fresh
// QecDecoderAgent::plan_for (the oracle), a slot is measured once however
// many requests or threads reach it, and a measurement that is cancelled
// leaves its slot for the next caller.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agents/degradation.hpp"
#include "agents/qec_agent.hpp"
#include "agents/topology.hpp"
#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/request_context.hpp"
#include "common/trace.hpp"
#include "eval/suite.hpp"
#include "qasm/analysis/resources.hpp"
#include "serve/server.hpp"

namespace qcgen::agents {
namespace {

constexpr const char* kEstimateSpan = "qec.estimate_logical_error";

QecDecoderAgent::Options options_at(int distance) {
  QecDecoderAgent::Options options;
  options.target_distance = distance;
  options.trials = 200;
  return options;
}

/// A program digest whose two-qubit pairs are far apart on heavy-hex, so
/// the routing count is nonzero.
qasm::analysis::ResourceSummary program_summary() {
  qasm::analysis::ResourceSummary summary;
  summary.computed = true;
  summary.qubits = 6;
  summary.qubits_used = 6;
  summary.depth = 14;
  summary.t_count = 5;
  summary.t_depth = 3;
  summary.ccx_count = 1;
  summary.rotation_count = 2;
  summary.two_qubit_pairs = {{0, 1, 2}, {0, 5, 1}, {2, 40, 3}};
  summary.two_qubit_count = 6;
  return summary;
}

void expect_same_noise(const sim::NoiseModel& a, const sim::NoiseModel& b) {
  EXPECT_EQ(a.depolarizing_1q, b.depolarizing_1q);
  EXPECT_EQ(a.depolarizing_2q, b.depolarizing_2q);
  EXPECT_EQ(a.readout_error, b.readout_error);
  EXPECT_EQ(a.idle_error, b.idle_error);
  EXPECT_EQ(a.reset_error, b.reset_error);
}

/// Field-by-field equality; the ResourcePlan through its JSON form, which
/// carries every field.
void expect_same_plan(const QecPlan& shared, const QecPlan& oracle) {
  EXPECT_EQ(shared.feasible, oracle.feasible);
  EXPECT_EQ(shared.reason, oracle.reason);
  EXPECT_EQ(shared.distance, oracle.distance);
  EXPECT_EQ(shared.decoder, oracle.decoder);
  EXPECT_EQ(shared.synthesis_cost, oracle.synthesis_cost);
  const qec::LifetimeReport& a = shared.lifetime;
  const qec::LifetimeReport& b = oracle.lifetime;
  EXPECT_EQ(a.physical_error_per_round, b.physical_error_per_round);
  EXPECT_EQ(a.logical_error_per_round, b.logical_error_per_round);
  EXPECT_EQ(a.physical_lifetime_rounds, b.physical_lifetime_rounds);
  EXPECT_EQ(a.logical_lifetime_rounds, b.logical_lifetime_rounds);
  EXPECT_EQ(a.lifetime_extension, b.lifetime_extension);
  EXPECT_EQ(a.suppression_factor, b.suppression_factor);
  expect_same_noise(shared.physical_noise, oracle.physical_noise);
  expect_same_noise(shared.effective_noise, oracle.effective_noise);
  EXPECT_EQ(resource_plan_to_json(shared.resources).dump(),
            resource_plan_to_json(oracle.resources).dump());
}

QecPlan oracle_plan(QecDecoderAgent::Options options, const Ladder& ladder,
                    std::size_t rung, const DeviceTopology& device,
                    const qasm::analysis::ResourceSummary* program) {
  options.decoder = ladder.decoders[rung];
  return QecDecoderAgent(options).plan_for(device, program);
}

std::uint64_t estimate_spans(const trace::TraceSink& sink) {
  const auto summary = sink.summary();
  const auto found = summary.span_counts.find(kEstimateSpan);
  return found == summary.span_counts.end() ? 0 : found->second;
}

TEST(QecEstimates, EveryRungMatchesAFreshAgent) {
  const DeviceTopology device = DeviceTopology::ibm_brisbane();
  const qasm::analysis::ResourceSummary program = program_summary();
  for (const int distance : {3, 5}) {
    const QecDecoderAgent::Options options = options_at(distance);
    QecEstimates estimates(options, device);
    const Ladder& ladder = estimates.ladder();
    ASSERT_EQ(ladder.size, distance == 3 ? 3u : 2u);
    for (std::size_t rung = 0; rung < ladder.size; ++rung) {
      SCOPED_TRACE("d=" + std::to_string(distance) + " " +
                   std::string(ladder.rungs[rung]));
      const QecPlan oracle =
          oracle_plan(options, ladder, rung, device, &program);
      ASSERT_TRUE(oracle.feasible);
      ASSERT_TRUE(oracle.resources.computed);
      EXPECT_GT(oracle.resources.routing_extra_cx, 0u);
      // First call measures the slot, the second reads it; a call
      // without a program carries no ResourcePlan.
      expect_same_plan(estimates.plan_for(rung, &program), oracle);
      expect_same_plan(estimates.plan_for(rung, &program), oracle);
      expect_same_plan(estimates.plan_for(rung, nullptr),
                       oracle_plan(options, ladder, rung, device, nullptr));
    }
  }
}

TEST(QecEstimates, InfeasibleDeviceMatchesAFreshAgent) {
  const DeviceTopology device = DeviceTopology::linear(20);
  const qasm::analysis::ResourceSummary program = program_summary();
  const QecDecoderAgent::Options options = options_at(3);
  QecEstimates estimates(options, device);
  const QecPlan shared = estimates.plan_for(0, &program);
  EXPECT_FALSE(shared.feasible);
  EXPECT_FALSE(shared.resources.computed);
  expect_same_plan(shared, oracle_plan(options, estimates.ladder(), 0, device,
                                       &program));
}

TEST(QecEstimates, ConcurrentCallersShareOneMeasurement) {
  const DeviceTopology device = DeviceTopology::ibm_brisbane();
  const qasm::analysis::ResourceSummary program = program_summary();
  const QecDecoderAgent::Options options = options_at(3);
  QecEstimates estimates(options, device);
  constexpr std::size_t kThreads = 8;
  std::vector<trace::TraceSink> sinks(kThreads);
  std::vector<QecPlan> plans(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const trace::SinkScope scope(&sinks[t]);
      while (!go.load()) std::this_thread::yield();
      plans[t] = estimates.plan_for(0, &program);
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  const QecPlan oracle =
      oracle_plan(options, estimates.ladder(), 0, device, &program);
  std::uint64_t spans = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    expect_same_plan(plans[t], oracle);
    spans += estimate_spans(sinks[t]);
  }
#if QCGEN_TRACE_ENABLED
  EXPECT_EQ(spans, 1u);
#endif
}

TEST(QecEstimates, CancelledFillLeavesTheSlotForTheNextCaller) {
  const DeviceTopology device = DeviceTopology::ibm_brisbane();
  const qasm::analysis::ResourceSummary program = program_summary();
  const QecDecoderAgent::Options options = options_at(3);
  QecEstimates estimates(options, device);

  cancel::CancelSource source;
  source.request_cancel();
  RequestContext cancelled{.token = source.token()};
  {
    const ContextScope scope(&cancelled);
    try {
      estimates.plan_for(0, &program);
      ADD_FAILURE() << "a cancelled fill returned a plan";
    } catch (const cancel::CancelledError& error) {
      EXPECT_EQ(error.cause(), cancel::Cause::kCancelled);
      EXPECT_EQ(error.site(), "qec.decode.round");
    }
  }

  // The next caller measures the slot (one span) and gets the oracle's
  // plan; the one after reads it (no span).
  trace::TraceSink refill, read;
  QecPlan first, second;
  {
    const trace::SinkScope scope(&refill);
    first = estimates.plan_for(0, &program);
  }
  {
    const trace::SinkScope scope(&read);
    second = estimates.plan_for(0, &program);
  }
  const QecPlan oracle =
      oracle_plan(options, estimates.ladder(), 0, device, &program);
  expect_same_plan(first, oracle);
  expect_same_plan(second, oracle);
#if QCGEN_TRACE_ENABLED
  EXPECT_EQ(estimate_spans(refill), 1u);
  EXPECT_EQ(estimate_spans(read), 0u);
#endif
}

// ---------------------------------------------------------------------------
// Served requests share one QecEstimates per server.

struct Served {
  std::vector<std::string> plans;  ///< per request; "" without a plan
  std::set<std::string> decoders;  ///< decoders that produced a plan
  std::uint64_t estimate_spans = 0;
};

Served serve_qec(std::size_t threads, const std::string& scenario) {
  const auto suite = eval::semantic_suite();
  const std::vector<eval::TestCase> catalog(suite.begin(), suite.begin() + 8);
  trace::TraceSink sink;
  serve::Server::Options options;
  options.technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  options.technique.max_passes = 3;
  options.qec = options_at(3);
  options.device = DeviceTopology::ibm_brisbane();
  options.admission = serve::AdmissionOptions::unlimited();
  options.threads = threads;
  options.seed = 11;
  options.chaos_scenario = scenario;
  options.trace = &sink;
  Served served;
  {
    serve::Server server(options, catalog);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 32; ++id) {
      futures.push_back(server.submit(
          {id, catalog[id % catalog.size()], 0.001 * static_cast<double>(id),
           {}}));
    }
    server.drain();
    for (auto& future : futures) {
      const serve::RequestResult result = future.get();
      std::string print;
      if (result.pipeline.qec.has_value()) {
        const QecPlan& plan = *result.pipeline.qec;
        const std::string decoder(qec::decoder_kind_name(plan.decoder));
        served.decoders.insert(decoder);
        print = decoder + " " +
                std::to_string(plan.lifetime.logical_error_per_round) + " " +
                resource_plan_to_json(plan.resources).dump();
      }
      served.plans.push_back(print);
    }
  }
  served.estimate_spans = estimate_spans(sink);
  return served;
}

TEST(QecEstimates, ServerMeasuresEachRungOnce) {
  const Served serial = serve_qec(1, "");
  const Served parallel = serve_qec(8, "");
  const auto planned = static_cast<std::size_t>(
      std::count_if(serial.plans.begin(), serial.plans.end(),
                    [](const std::string& plan) { return !plan.empty(); }));
  EXPECT_GE(planned, 16u);
  EXPECT_EQ(serial.plans, parallel.plans);
  EXPECT_EQ(serial.decoders.size(), 1u);
#if QCGEN_TRACE_ENABLED
  EXPECT_EQ(serial.estimate_spans, serial.decoders.size());
  EXPECT_EQ(parallel.estimate_spans, parallel.decoders.size());
#endif
}

TEST(QecEstimates, ArmedServerMeasuresEachRungItUsesOnce) {
  // Injected decode faults step some requests down the decoder ladder:
  // each rung that produced a plan was measured exactly once.
  const Served serial = serve_qec(1, "qec.decode=error(0.5)");
  const Served parallel = serve_qec(8, "qec.decode=error(0.5)");
  EXPECT_EQ(serial.plans, parallel.plans);
  EXPECT_EQ(serial.decoders, parallel.decoders);
#if QCGEN_FAILPOINTS_ENABLED
  EXPECT_GE(serial.decoders.size(), 2u);
#endif
#if QCGEN_TRACE_ENABLED
  EXPECT_EQ(serial.estimate_spans, serial.decoders.size());
  EXPECT_EQ(parallel.estimate_spans, parallel.decoders.size());
#endif
}

}  // namespace
}  // namespace qcgen::agents
