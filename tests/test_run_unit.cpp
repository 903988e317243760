// Tests for the execution kernel shared by evaluation trials and served
// requests (eval::run_unit) and the RequestContext it binds: every
// exception kind maps to one failure record whichever caller runs the
// unit, and the thread's bindings (context and trace sink) are restored
// after the unit returns or throws, so back-to-back units on one worker
// never see each other's injector, deadline or cache sequence.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "agents/pipeline.hpp"
#include "common/cache/cache.hpp"
#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/request_context.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "eval/parallel.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

using namespace qcgen;

namespace {

struct KindCase {
  const char* name;
  std::function<void()> raise;
  bool uses_default_stage;  ///< false: the stage comes from the error
  eval::UnitFailure expected;  ///< stage ignored when uses_default_stage
};

std::vector<KindCase> kind_cases() {
  return {
      {"deadline",
       [] {
         throw cancel::CancelledError(cancel::Cause::kDeadlineExceeded,
                                      "stage.beta");
       },
       true,
       {"", "stage.beta", 0, "deadline_exceeded at stage.beta",
        cancel::Cause::kDeadlineExceeded}},
      {"cancel",
       [] {
         throw cancel::CancelledError(cancel::Cause::kCancelled,
                                      "serve.request");
       },
       true,
       {"", "serve.request", 0, "cancelled at serve.request",
        cancel::Cause::kCancelled}},
      {"stage",
       [] {
         throw agents::PipelineStageError("generate", "llm.generate", 2,
                                          "generate: gave up");
       },
       false,
       {"generate", "llm.generate", 2, "generate: gave up", std::nullopt}},
      {"injected",
       [] {
         throw failpoint::InjectedFault("qec.decode",
                                        "injected fault at qec.decode");
       },
       true,
       {"", "qec.decode", 0, "injected fault at qec.decode", std::nullopt}},
      {"organic", [] { throw std::runtime_error("organic"); }, true,
       {"", "", 0, "organic", std::nullopt}},
  };
}

void expect_same_record(const eval::UnitFailure& got,
                        const eval::UnitFailure& want,
                        const std::string& label) {
  EXPECT_EQ(got.stage, want.stage) << label;
  EXPECT_EQ(got.site, want.site) << label;
  EXPECT_EQ(got.retries, want.retries) << label;
  EXPECT_EQ(got.what, want.what) << label;
  EXPECT_EQ(got.cause, want.cause) << label;
}

}  // namespace

// ---------------------------------------------------------------------------
// One failure record per exception kind

TEST(RunUnit, EachExceptionKindMapsToOneRecordForTrialsAndRequests) {
  for (const KindCase& kind : kind_cases()) {
    for (const char* stage : {"trial", "request"}) {
      const std::string label = std::string(kind.name) + "/" + stage;
      eval::UnitFailure want = kind.expected;
      if (kind.uses_default_stage) want.stage = stage;

      trace::TraceSink sink(/*keep_events=*/false);
      RequestContext context;
      int failures_seen = 0;
      const auto failure = eval::run_unit(
          &sink, context, stage, kind.raise,
          [&](const eval::UnitFailure& seen) {
            ++failures_seen;
            expect_same_record(seen, want, label + " (on_failure)");
            // The caller's failure counter lands in the unit's sink.
            EXPECT_EQ(trace::current_sink(), &sink) << label;
            trace::Metrics::counter("unit.failures");
          });
      ASSERT_TRUE(failure.has_value()) << label;
      expect_same_record(*failure, want, label);
      EXPECT_EQ(failures_seen, 1) << label;
#if QCGEN_TRACE_ENABLED
      EXPECT_EQ(sink.summary().counters.at("unit.failures"), 1) << label;
#endif
    }
  }
}

TEST(RunUnit, ReturningBodyHasNoFailureAndSkipsOnFailure) {
  RequestContext context;
  bool ran = false;
  bool failed = false;
  const auto failure = eval::run_unit(
      nullptr, context, "trial", [&] { ran = true; },
      [&](const eval::UnitFailure&) { failed = true; });
  EXPECT_TRUE(ran);
  EXPECT_FALSE(failed);
  EXPECT_FALSE(failure.has_value());
}

#if QCGEN_FAILPOINTS_ENABLED

// The two kinds a chaos scenario can raise on both paths give the same
// record through run_trial_matrix and through Server::run_request, up to
// the default stage label.
TEST(RunUnit, TrialsAndRequestsRecordInjectedFailuresAlike) {
  const std::vector<eval::TestCase> catalog = {eval::semantic_suite().front()};
  auto technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  technique.max_passes = 2;
  for (const char* scenario :
       {"pool.task=error(1.0)", "llm.generate=error(1.0)"}) {
    eval::RunnerOptions trial_options;
    trial_options.samples_per_case = 1;
    trial_options.threads = 1;
    trial_options.chaos_scenario = scenario;
    const eval::TrialMatrix matrix =
        eval::run_trial_matrix(technique, catalog, 1, trial_options);
    ASSERT_EQ(matrix.failures.size(), 1u) << scenario;
    const eval::TrialFailure& trial = matrix.failures.front();

    serve::Server::Options server_options;
    server_options.technique = technique;
    server_options.threads = 1;
    server_options.chaos_scenario = scenario;
    serve::Server server(server_options, catalog);
    serve::Session session(server, /*session_id=*/1);
    auto future = session.submit(0, catalog.front(), 0.0);
    server.drain();
    const serve::RequestResult request = future.get();
    ASSERT_EQ(request.outcome, serve::RequestOutcome::kFailed) << scenario;

    const auto label = [](const std::string& stage, const char* fallback) {
      return stage == fallback ? std::string("<default>") : stage;
    };
    EXPECT_EQ(label(trial.stage, "trial"),
              label(request.failure_stage, "request"))
        << scenario;
    EXPECT_EQ(trial.site, request.failure_site) << scenario;
    EXPECT_EQ(trial.what, request.failure_what) << scenario;
  }
}

#endif  // QCGEN_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// Bindings are restored

TEST(RunUnit, RestoresBindingsAfterTheBodyReturnsOrThrows) {
  const auto scenario = std::make_shared<const failpoint::Scenario>(
      failpoint::Scenario::parse("site.a=error(1.0)"));
  failpoint::Injector outer_injector(scenario, 1);
  failpoint::Injector unit_injector(scenario, 2);
  cancel::DeadlineBudget outer_budget(50.0);
  cancel::DeadlineBudget unit_budget(5.0);
  trace::TraceSink outer_sink(false);
  trace::TraceSink unit_sink(false);

  RequestContext outer{.injector = &outer_injector, .budget = &outer_budget};
  const trace::SinkScope outer_sink_scope(&outer_sink);
  const ContextScope outer_scope(&outer);

  for (const bool throws : {false, true}) {
    RequestContext unit{.injector = &unit_injector, .budget = &unit_budget};
    const auto failure = eval::run_unit(&unit_sink, unit, "trial", [&] {
      EXPECT_EQ(current_context(), &unit);
      EXPECT_EQ(failpoint::current_injector(), &unit_injector);
      EXPECT_EQ(cancel::current_budget(), &unit_budget);
      EXPECT_EQ(trace::current_sink(), &unit_sink);
      {
        const ContextScope dormant(nullptr);  // explicit dormant scope
        EXPECT_EQ(failpoint::current_injector(), nullptr);
        EXPECT_EQ(cancel::current_budget(), nullptr);
      }
      EXPECT_EQ(current_context(), &unit);
      if (throws) throw std::runtime_error("boom");
    });
    EXPECT_EQ(failure.has_value(), throws);
    EXPECT_EQ(current_context(), &outer) << "throws=" << throws;
    EXPECT_EQ(failpoint::current_injector(), &outer_injector);
    EXPECT_EQ(cancel::current_budget(), &outer_budget);
    EXPECT_EQ(trace::current_sink(), &outer_sink);
  }
}

TEST(RunUnit, BackToBackUnitsOnOneWorkerSeeOnlyTheirOwnContext) {
  const auto scenario = std::make_shared<const failpoint::Scenario>(
      failpoint::Scenario::parse("site.a=error(1.0)"));
  failpoint::Injector injector(scenario, 3);
  cancel::CancelSource cancelled;
  cancelled.request_cancel();
  cache::Cache<int> cache({.name = "t", .record_trace = true});

  // The first unit is armed, cancelled and tagged; the second carries
  // nothing. Both look up keys so their cache sequences are visible.
  std::vector<RequestContext> contexts(2);
  contexts[0] = RequestContext{
      .injector = &injector, .token = cancelled.token(), .cache_tag = 1};
  contexts[1] = RequestContext{.cache_tag = 2};
  std::vector<std::optional<eval::UnitFailure>> failures(2);
  ThreadPool pool(1);
  pool.parallel_for(2, [&](std::size_t i) {
    failures[i] = eval::run_unit(nullptr, contexts[i], "request", [&] {
      (void)cache.get_or_compute(10 + i, [i] { return static_cast<int>(i); });
      (void)cache.get_or_compute(20, [] { return 20; });
      if (i == 1) {
        EXPECT_EQ(failpoint::current_injector(), nullptr);
        EXPECT_FALSE(failpoint::check("site.a").has_value());
      }
      cancel::checkpoint("unit.end");
    });
  });
  ASSERT_TRUE(failures[0].has_value());
  EXPECT_EQ(failures[0]->cause, cancel::Cause::kCancelled);
  EXPECT_FALSE(failures[1].has_value());
  EXPECT_EQ(contexts[0].cache_seq, 2u);
  EXPECT_EQ(contexts[1].cache_seq, 2u);  // counted from 0, not from 2
  EXPECT_EQ(cache.access_trace(),
            (std::vector<std::uint64_t>{10, 20, 11, 20}));
  // The worker is left unbound.
  RequestContext* after = &contexts[0];
  pool.parallel_for(1, [&](std::size_t) { after = current_context(); });
  EXPECT_EQ(after, nullptr);
}

TEST(RunUnit, NestedUnitLeavesTheOuterCacheSequenceIntact) {
  cache::Cache<int> cache({.name = "t", .record_trace = true});
  const auto lookup = [&](std::uint64_t key) {
    (void)cache.get_or_compute(key, [key] { return static_cast<int>(key); });
  };
  RequestContext outer{.cache_tag = 5};
  RequestContext inner{.cache_tag = 7};
  {
    const ContextScope scope(&outer);
    lookup(1);
    lookup(2);
    (void)eval::run_unit(nullptr, inner, "trial", [&] { lookup(3); });
    lookup(4);  // resumes at (5, 2)
  }
  EXPECT_EQ(outer.cache_seq, 3u);
  EXPECT_EQ(inner.cache_seq, 1u);
  EXPECT_EQ(cache.access_trace(), (std::vector<std::uint64_t>{1, 2, 4, 3}));
}

TEST(RequestContext, BindingIsPerThread) {
  RequestContext context;
  const ContextScope scope(&context);
  RequestContext* seen = &context;
  std::thread other([&seen] { seen = current_context(); });
  other.join();
  EXPECT_EQ(seen, nullptr);
  EXPECT_EQ(current_context(), &context);
}
