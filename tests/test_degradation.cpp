// Degradation-decision tests: which rung every stage runs on, and why.
//
// GoldenDigestIsFrozen hashes every decision the serving layer and the
// trial scheduler make — request outcomes, admission levels, ladder
// events, breaker verdicts and transitions, the decoder each QEC plan
// settled on — across scenarios that reach every rung: each fail-point
// site armed on its own, budget pressure on both sides of both
// thresholds, an admission controller that hands out every level, and
// QEC at distances 3 and 5. The digest was frozen before the rung
// decisions were gathered into one table, so any refactor of that table
// that swaps a rung, drops a breaker mapping or moves a threshold fails
// here even when every aggregate count in the bench goldens survives.
// The DegradationTable tests check the table's pure start decision and
// its ladders directly, with no server and no chaos.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "agents/degradation.hpp"
#include "agents/pipeline.hpp"
#include "common/cancel.hpp"
#include "common/request_context.hpp"
#include "eval/parallel.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

using namespace qcgen;

namespace {

#if QCGEN_FAILPOINTS_ENABLED

/// FNV-1a over little-endian words, the digest discipline of
/// VectorStore.GoldenRetrievalDigestIsFrozen.
struct Digest {
  std::uint64_t value = 1469598103934665603ULL;
  void word(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (word >> (8 * byte)) & 0xffU;
      value *= 1099511628211ULL;
    }
  }
  void text(std::string_view text) {
    word(text.size());
    for (const char c : text) word(static_cast<unsigned char>(c));
  }
  void real(double x) { word(std::bit_cast<std::uint64_t>(x)); }
};

using StepKey = std::tuple<std::string, std::string, std::string>;

/// Everything observed across the scenarios: the digest plus the
/// (stage, from, to) steps and short-circuited sites seen.
struct Observed {
  Digest digest;
  std::set<StepKey> steps;
  std::set<std::string> short_circuits;

  void event(const agents::DegradationEvent& event) {
    digest.word(static_cast<std::uint64_t>(event.pass));
    digest.text(event.stage);
    digest.text(event.from);
    digest.text(event.to);
    digest.text(event.reason);
    digest.text(event.site);
    steps.emplace(event.stage, event.from, event.to);
  }
  void pipeline(const agents::PipelineResult& result) {
    digest.word(result.syntactic_ok);
    digest.word(result.semantic_ok);
    digest.word(static_cast<std::uint64_t>(result.passes_used));
    for (const agents::DegradationEvent& e : result.degradations) event(e);
    digest.word(result.qec.has_value());
    if (result.qec.has_value()) {
      digest.word(static_cast<std::uint64_t>(result.qec->decoder));
    }
  }
};

const std::vector<eval::TestCase>& cases() {
  static const std::vector<eval::TestCase> suite = [] {
    const auto full = eval::semantic_suite();
    return std::vector<eval::TestCase>(full.begin(), full.begin() + 5);
  }();
  return suite;
}

agents::TechniqueConfig technique() {
  auto config =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  config.max_passes = 3;
  return config;
}

agents::QecDecoderAgent::Options qec_options(int distance,
                                             qec::DecoderKind decoder) {
  agents::QecDecoderAgent::Options qec;
  qec.target_distance = distance;
  qec.decoder = decoder;
  qec.trials = 100;
  return qec;
}

struct ServeScenario {
  std::string chaos;
  int distance = 3;
  qec::DecoderKind decoder = qec::DecoderKind::kMwpm;
  /// Per-request deadlines, cycled by request id (0 = none).
  std::vector<double> deadlines = {0.0};
  /// Admission thresholds that hand out full, no-rag, static-only and
  /// shed levels as the virtual backlog builds.
  bool loaded = false;
};

/// One breakers-on server over a four-case catalog (the fifth case is a
/// catalog miss, verified static-only), sixteen requests.
void run_server(const ServeScenario& scenario, Observed& out) {
  serve::Server::Options options;
  options.technique = technique();
  options.qec = qec_options(scenario.distance, scenario.decoder);
  options.device = agents::DeviceTopology::grid(9, 9);
  options.admission = serve::AdmissionOptions::unlimited();
  if (scenario.loaded) {
    options.admission.virtual_servers = 1;
    options.admission.no_rag_depth = 2;
    options.admission.static_only_depth = 4;
    options.admission.shed_depth = 7;
  }
  options.chaos_scenario = scenario.chaos;
  options.breaker.enabled = true;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_vt = 1.0;
  options.threads = 2;
  options.seed = 1515;
  const std::vector<eval::TestCase> catalog(cases().begin(),
                                            cases().begin() + 4);
  serve::Server server(options, catalog);
  serve::Session session(server, 1);
  std::vector<std::future<serve::RequestResult>> futures;
  const double spacing = scenario.loaded ? 0.15 : 0.3;
  for (std::uint64_t id = 0; id < 16; ++id) {
    serve::RequestOptions request;
    request.deadline_units =
        scenario.deadlines[id % scenario.deadlines.size()];
    futures.push_back(session.submit(id, cases()[id % cases().size()],
                                     spacing * static_cast<double>(id),
                                     request));
  }
  server.drain();
  for (auto& future : futures) {
    const serve::RequestResult result = future.get();
    out.digest.word(result.id);
    out.digest.word(static_cast<std::uint64_t>(result.outcome));
    out.digest.word(static_cast<std::uint64_t>(result.level));
    out.digest.text(result.failure_stage);
    out.digest.text(result.failure_site);
    out.digest.text(result.failure_what);
    out.pipeline(result.pipeline);
    out.digest.word(result.breaker_short_circuits.size());
    for (const std::string& site : result.breaker_short_circuits) {
      out.digest.text(site);
      out.short_circuits.insert(site);
    }
    out.digest.word(result.breaker_probes.size());
    for (const std::string& site : result.breaker_probes) {
      out.digest.text(site);
    }
  }
  for (const serve::AdmissionDegradation& step :
       server.admission().degradations()) {
    out.digest.word(step.request_id);
    out.digest.text(step.stage);
    out.digest.text(step.from);
    out.digest.text(step.to);
    out.steps.emplace(step.stage, step.from, step.to);
  }
  out.digest.word(server.admission().shed());
  for (const serve::BreakerTransition& edge : server.breaker_transitions()) {
    out.digest.text(edge.site);
    out.digest.word(static_cast<std::uint64_t>(edge.from));
    out.digest.word(static_cast<std::uint64_t>(edge.to));
    out.digest.real(edge.vt);
    out.digest.word(edge.request_id);
  }
}

/// One trial matrix (four cases x two samples, QEC at distance 3).
void run_matrix(const std::string& chaos, Observed& out) {
  eval::RunnerOptions options;
  options.seed = 2626;
  options.threads = 2;
  options.chaos_scenario = chaos;
  options.qec = qec_options(3, qec::DecoderKind::kMwpm);
  options.device = agents::DeviceTopology::grid(9, 9);
  const std::vector<eval::TestCase> suite(cases().begin(),
                                          cases().begin() + 4);
  const eval::TrialMatrix matrix =
      eval::run_trial_matrix(technique(), suite, 2, options);
  for (const eval::TrialFailure& failure : matrix.failures) {
    out.digest.word(failure.case_idx);
    out.digest.word(failure.sample_idx);
    out.digest.text(failure.stage);
    out.digest.text(failure.site);
    out.digest.word(static_cast<std::uint64_t>(failure.retries));
    out.digest.text(failure.what);
  }
  for (const eval::DegradationRecord& record : matrix.degradations) {
    out.digest.word(record.case_idx);
    out.digest.word(record.sample_idx);
    out.event(record.event);
  }
  for (const eval::TrialResult& trial : matrix.trials) {
    out.digest.word(trial.failure.has_value());
    out.pipeline(trial.pipeline);
  }
}

/// Direct pipeline runs under a deadline budget already `pressure`
/// consumed, so the generate-time threshold is reachable (a served
/// request starts every run with an untouched budget).
void run_pressured(double pressure, Observed& out) {
  eval::ReferenceOracle oracle;
  for (std::size_t i = 0; i < 4; ++i) {
    cancel::DeadlineBudget budget(100.0);
    budget.charge(100.0 * pressure);
    RequestContext context{.budget = &budget};
    const ContextScope scope(&context);
    agents::MultiAgentPipeline pipeline(
        technique(), agents::SemanticAnalyzerAgent::Options{},
        qec_options(3, qec::DecoderKind::kMwpm),
        agents::DeviceTopology::grid(9, 9), 77 + i);
    try {
      out.pipeline(pipeline.run(cases()[i].task,
                                oracle.reference_for(cases()[i]), i));
    } catch (const cancel::CancelledError& error) {
      out.digest.text(error.what());
      for (const agents::DegradationEvent& e : pipeline.last_degradations()) {
        out.event(e);
      }
    }
  }
}

#endif  // QCGEN_FAILPOINTS_ENABLED

}  // namespace

#if QCGEN_FAILPOINTS_ENABLED

TEST(DegradationDecisions, GoldenDigestIsFrozen) {
  Observed out;
  const std::vector<std::string> sites = {
      "analyzer.abstract", "analyzer.parse",   "analyzer.simulate",
      "llm.generate",      "oracle.reference", "pool.task",
      "qec.decode",        "retrieval.query"};
  ASSERT_EQ(std::set<std::string>(sites.begin(), sites.end()), [] {
    std::set<std::string> names;
    for (const agents::Site site : agents::sites_by_name()) {
      names.emplace(agents::site_name(site));
    }
    return names;
  }());
  for (const std::string& site : sites) {
    for (const char* probability : {"0.5", "1.0"}) {
      const std::string chaos = site + "=error(" + probability + ")";
      run_server({.chaos = chaos}, out);
      run_matrix(chaos, out);
    }
  }
  // QEC ladders: lookup exists only at distance 3, and a configured
  // union-find decoder is not repeated as its own fallback.
  for (const int distance : {3, 5}) {
    for (const qec::DecoderKind decoder :
         {qec::DecoderKind::kMwpm, qec::DecoderKind::kUnionFind}) {
      run_server({.chaos = "qec.decode=error(1.0)",
                  .distance = distance,
                  .decoder = decoder},
                 out);
      run_server({.chaos = "qec.decode=error(0.5)",
                  .distance = distance,
                  .decoder = decoder},
                 out);
    }
  }
  // Deadlines that cross the verify threshold on pass 1 or pass 2 (and
  // exceed outright), mixed with unlimited requests.
  run_server({.chaos = "", .deadlines = {0.0, 1.8, 4.0, 5.0, 3.0}}, out);
  run_server({.chaos = "analyzer.simulate=delay(0.5)",
              .deadlines = {6.0, 9.0}},
             out);
  run_server({.chaos = "", .loaded = true}, out);
  run_server({.chaos = "retrieval.query=error(0.5)", .loaded = true}, out);
  for (const double pressure :
       {0.2, 0.54, 0.56, 0.7, 0.78, 0.79, 0.81, 0.9}) {
    run_pressured(pressure, out);
  }

  // Every step the table's ladders can take must have been reached, or
  // a scenario silently stopped exercising it.
  std::set<StepKey> expected;
  const auto add_ladder = [&](const agents::Ladder& ladder) {
    const agents::StageFailure failure{"", ""};
    for (std::size_t rung = 0; rung < ladder.size; ++rung) {
      bool next = false;
      if (const auto step =
              agents::failure_step(ladder, rung, 0, failure, next)) {
        expected.emplace(step->stage, step->from, step->to);
      }
    }
  };
  for (const agents::Stage stage :
       {agents::Stage::kGenerate, agents::Stage::kRepair,
        agents::Stage::kAnalyze, agents::Stage::kVerify,
        agents::Stage::kOracle}) {
    add_ladder(agents::ladder(stage));
  }
  for (const int distance : {3, 5}) {
    for (const qec::DecoderKind decoder :
         {qec::DecoderKind::kMwpm, qec::DecoderKind::kUnionFind}) {
      add_ladder(agents::decoder_ladder(decoder, distance));
    }
  }
  for (const StepKey& step : expected) {
    EXPECT_TRUE(out.steps.count(step))
        << std::get<0>(step) << ": " << std::get<1>(step) << " -> "
        << std::get<2>(step) << " never taken";
  }
  for (const StepKey& step : out.steps) {
    EXPECT_TRUE(expected.count(step))
        << "unexpected step " << std::get<0>(step) << ": "
        << std::get<1>(step) << " -> " << std::get<2>(step);
  }
  // Every breaker site a served request can exercise must have opened
  // (oracle.reference is prewarmed at construction, never per request).
  for (const agents::Site site : agents::sites_by_name()) {
    const std::string name(agents::site_name(site));
    if (site == agents::Site::kOracleReference) continue;
    EXPECT_TRUE(out.short_circuits.count(name)) << name << " never opened";
  }
  EXPECT_EQ(out.digest.value, 12142609462163605347ULL);
}

#endif  // QCGEN_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// The pure start decision, against a restatement of the table written
// out by hand: every admission level x every set of open breaker sites x
// pressure below, at and between the thresholds x with and without a
// reference.

namespace {

using agents::AdmissionLevel;
using agents::Cause;
using agents::Site;
using agents::Stage;
using agents::Start;

bool open(agents::SiteSet sites, Site site) {
  return (sites & agents::bit(site)) != 0;
}

Start expected_start(Stage stage, AdmissionLevel admission,
                     agents::SiteSet sites, double pressure,
                     bool has_reference) {
  const Start degraded_by_breaker{1, Cause::kBreaker};
  switch (stage) {
    case Stage::kGenerate:
    case Stage::kRepair:
      if (admission >= AdmissionLevel::kNoRag) return {1, Cause::kAdmission};
      if (open(sites, Site::kRetrievalQuery)) return degraded_by_breaker;
      if (pressure >= 0.55) return {1, Cause::kPressure};
      return {};
    case Stage::kAnalyze:
      if (open(sites, Site::kAnalyzerAbstract)) return degraded_by_breaker;
      return {};
    case Stage::kVerify:
      if (!has_reference) return {1, Cause::kNoReference};
      if (admission >= AdmissionLevel::kStaticOnly) {
        return {1, Cause::kAdmission};
      }
      if (open(sites, Site::kAnalyzerSimulate) ||
          open(sites, Site::kOracleReference)) {
        return degraded_by_breaker;
      }
      if (pressure >= 0.8) return {1, Cause::kPressure};
      return {};
    case Stage::kQec:
      if (open(sites, Site::kQecDecode)) return degraded_by_breaker;
      return {};
    case Stage::kOracle:
      return {};
  }
  return {};
}

}  // namespace

TEST(DegradationTable, StartRungMatchesTheTableForEveryInput) {
  const std::vector<AdmissionLevel> levels = {
      AdmissionLevel::kFull, AdmissionLevel::kNoRag,
      AdmissionLevel::kStaticOnly, AdmissionLevel::kShed};
  const std::vector<double> pressures = {0.0, 0.3, 0.5499, 0.55, 0.7,
                                         0.7999, 0.8, 0.95, 1.0};
  for (const AdmissionLevel admission : levels) {
    for (agents::SiteSet sites = 0; sites < (1U << agents::kSiteCount);
         ++sites) {
      for (const double pressure : pressures) {
        for (const bool has_reference : {true, false}) {
          const agents::StartInputs inputs{admission, sites, pressure,
                                           has_reference};
          for (std::size_t i = 0; i < agents::kStageCount; ++i) {
            const auto stage = static_cast<Stage>(i);
            const Start want = expected_start(stage, admission, sites,
                                              pressure, has_reference);
            const Start got = agents::start_rung(stage, inputs);
            ASSERT_EQ(got, want)
                << "stage " << agents::stage_row(stage).name << " admission "
                << static_cast<int>(admission) << " sites " << sites
                << " pressure " << pressure << " reference "
                << has_reference << ": got rung " << got.rung << " cause "
                << static_cast<int>(got.cause);
          }
        }
      }
    }
  }
}

TEST(DegradationTable, RungNamesAndTerminalSteps) {
  const auto names = [](const agents::Ladder& ladder) {
    return std::vector<std::string>(ladder.rungs.begin(),
                                    ladder.rungs.begin() + ladder.size);
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(names(agents::ladder(Stage::kGenerate)), (Names{"rag", "no-rag"}));
  EXPECT_EQ(names(agents::ladder(Stage::kRepair)), (Names{"rag", "no-rag"}));
  EXPECT_EQ(names(agents::ladder(Stage::kAnalyze)),
            (Names{"abstract-lints", "core-lints"}));
  EXPECT_EQ(names(agents::ladder(Stage::kVerify)),
            (Names{"behavioral", "static-only"}));
  EXPECT_EQ(names(agents::ladder(Stage::kOracle)),
            (Names{"reference", "static-only"}));
  EXPECT_EQ(names(agents::decoder_ladder(qec::DecoderKind::kMwpm, 3)),
            (Names{"mwpm", "union-find", "lookup"}));
  EXPECT_EQ(names(agents::decoder_ladder(qec::DecoderKind::kMwpm, 5)),
            (Names{"mwpm", "union-find"}));
  EXPECT_EQ(names(agents::decoder_ladder(qec::DecoderKind::kUnionFind, 3)),
            (Names{"union-find", "lookup"}));
  EXPECT_EQ(names(agents::decoder_ladder(qec::DecoderKind::kLookup, 3)),
            (Names{"lookup", "union-find"}));
  EXPECT_EQ(names(agents::decoder_ladder(qec::DecoderKind::kUnionFind, 5)),
            (Names{"union-find"}));

  // RAG stages step only on retrieval or organic failures; a model fault
  // recurs without RAG. Generate then fails; repair gives up.
  const agents::StageFailure model{"llm.generate", "boom"};
  const agents::StageFailure retrieval{"retrieval.query", "boom"};
  bool next = true;
  EXPECT_FALSE(agents::failure_step(agents::ladder(Stage::kGenerate), 0, 0,
                                    model, next)
                   .has_value());
  EXPECT_FALSE(next);
  auto step = agents::failure_step(agents::ladder(Stage::kGenerate), 0, 0,
                                   retrieval, next);
  ASSERT_TRUE(step.has_value());
  EXPECT_TRUE(next);
  EXPECT_EQ(step->to, "no-rag");
  EXPECT_EQ(step->site, "retrieval.query");
  step = agents::failure_step(agents::ladder(Stage::kRepair), 0, 2, model,
                              next);
  ASSERT_TRUE(step.has_value());
  EXPECT_FALSE(next);
  EXPECT_EQ(step->pass, 2);
  EXPECT_EQ(step->from, "multi-pass");
  EXPECT_EQ(step->to, "abort");
  step = agents::failure_step(
      agents::decoder_ladder(qec::DecoderKind::kMwpm, 5), 1, 1, model, next);
  ASSERT_TRUE(step.has_value());
  EXPECT_FALSE(next);
  EXPECT_EQ(step->from, "union-find");
  EXPECT_EQ(step->to, "none");
  EXPECT_FALSE(agents::failure_step(agents::ladder(Stage::kAnalyze), 1, 1,
                                    model, next)
                   .has_value());
  EXPECT_FALSE(next);

  const agents::DegradationEvent pressure =
      agents::pressure_step(Stage::kVerify, 3);
  EXPECT_EQ(pressure, (agents::DegradationEvent{3, "verify", "behavioral",
                                                "static-only",
                                                "budget-pressure", ""}));
}

TEST(DegradationTable, FailFastSitesAndBreakerSites) {
  EXPECT_FALSE(agents::fail_fast_site(0).has_value());
  // Sites with a cheaper rung never fail fast.
  agents::SiteSet degradable = 0;
  for (const Site site :
       {Site::kRetrievalQuery, Site::kAnalyzerAbstract,
        Site::kAnalyzerSimulate, Site::kOracleReference, Site::kQecDecode}) {
    degradable |= agents::bit(site);
  }
  EXPECT_FALSE(agents::fail_fast_site(degradable).has_value());
  // The rest are named in the order llm.generate, analyzer.parse,
  // pool.task.
  EXPECT_EQ(agents::fail_fast_site(agents::bit(Site::kPoolTask) |
                                   agents::bit(Site::kAnalyzerParse)),
            Site::kAnalyzerParse);
  EXPECT_EQ(agents::fail_fast_site(agents::bit(Site::kPoolTask) |
                                   agents::bit(Site::kLlmGenerate) |
                                   degradable),
            Site::kLlmGenerate);
  EXPECT_EQ(agents::fail_fast_site(agents::bit(Site::kPoolTask)),
            Site::kPoolTask);
  const std::vector<std::string> names = {
      "llm.generate",      "analyzer.parse",    "pool.task",
      "retrieval.query",   "analyzer.abstract", "analyzer.simulate",
      "oracle.reference",  "qec.decode"};
  for (std::size_t i = 0; i < agents::kSiteCount; ++i) {
    const auto site = static_cast<Site>(i);
    EXPECT_EQ(agents::site_name(site), names[i]);
    EXPECT_EQ(agents::find_site(agents::site_name(site)), site);
  }
  EXPECT_FALSE(agents::find_site("serve.drain").has_value());
  // Breakers report sites in name order.
  std::set<Site> seen;
  const auto& by_name = agents::sites_by_name();
  for (std::size_t i = 0; i < agents::kSiteCount; ++i) {
    seen.insert(by_name[i]);
    if (i > 0) {
      EXPECT_LT(agents::site_name(by_name[i - 1]),
                agents::site_name(by_name[i]));
    }
  }
  EXPECT_EQ(seen.size(), agents::kSiteCount);
}

// The breaker evidence, against a restatement: fail-fast sites are
// vouched for by every completed run; retrieval.query and
// analyzer.abstract by their stage's full-rung start (the latter only
// when the final pass parsed), even after a site-less step; and
// analyzer.simulate and qec.decode only when their stage took no step.
TEST(DegradationTable, SiteEvidenceFollowsTheTable) {
  const auto set = [](std::initializer_list<Site> sites) {
    agents::SiteSet out = 0;
    for (const Site site : sites) out |= agents::bit(site);
    return out;
  };
  const agents::SiteSet fail_fast =
      set({Site::kLlmGenerate, Site::kAnalyzerParse, Site::kPoolTask});
  agents::StageSet all_stages = 0;
  for (std::size_t i = 0; i < agents::kStageCount; ++i) {
    all_stages |= agents::bit(static_cast<Stage>(i));
  }
  const auto event = [](std::string stage, std::string site) {
    return agents::DegradationEvent{1, std::move(stage), "", "", "", site};
  };

  agents::PipelineResult clean;
  clean.syntactic_ok = true;
  agents::SiteEvidence got = agents::site_evidence(clean, "", all_stages);
  EXPECT_EQ(got.failed, 0U);
  EXPECT_EQ(got.vouched,
            fail_fast | set({Site::kRetrievalQuery, Site::kAnalyzerAbstract,
                             Site::kAnalyzerSimulate, Site::kQecDecode}));
  got = agents::site_evidence(clean, "", agents::StageSet{0});
  EXPECT_EQ(got.vouched, fail_fast);

  agents::PipelineResult unparsed;
  got = agents::site_evidence(unparsed, "", all_stages);
  EXPECT_EQ(got.vouched & set({Site::kAnalyzerAbstract}), 0U);

  // Site-less steps on every stage.
  agents::PipelineResult organic = clean;
  for (const char* stage : {"generate", "analyze", "verify", "qec"}) {
    organic.degradations.push_back(event(stage, ""));
  }
  got = agents::site_evidence(organic, "", all_stages);
  EXPECT_EQ(got.failed, 0U);
  EXPECT_EQ(got.vouched, fail_fast | set({Site::kRetrievalQuery,
                                          Site::kAnalyzerAbstract}));

  // Failures win over vouching, unknown sites are ignored, and a run
  // that did not complete vouches for nothing.
  agents::PipelineResult faulted = clean;
  faulted.degradations.push_back(event("qec", "qec.decode"));
  faulted.degradations.push_back(event("repair", "llm.generate"));
  got = agents::site_evidence(faulted, "serve.drain", all_stages);
  EXPECT_EQ(got.failed, set({Site::kQecDecode, Site::kLlmGenerate}));
  EXPECT_EQ(got.vouched,
            set({Site::kAnalyzerParse, Site::kPoolTask, Site::kRetrievalQuery,
                 Site::kAnalyzerAbstract, Site::kAnalyzerSimulate}));
  got = agents::site_evidence(faulted, "pool.task", std::nullopt);
  EXPECT_EQ(got.failed,
            set({Site::kQecDecode, Site::kLlmGenerate, Site::kPoolTask}));
  EXPECT_EQ(got.vouched, 0U);
}
