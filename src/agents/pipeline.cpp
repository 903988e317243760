#include "agents/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "qasm/verify/certify.hpp"
#include "qec/decoder.hpp"

namespace qcgen::agents {

// The loop-local PassTrace variable is named `trace`, which would shadow
// the qcgen::trace namespace; the alias keeps the span sites readable.
namespace qtrace = ::qcgen::trace;

namespace {

// Virtual cost each stage charges against the request's deadline budget
// (cancel::charge) as it completes, in the units injected delays and
// retry backoff consume. Without an installed budget the charges are
// no-ops.
constexpr double kGenerateCost = 1.0;
constexpr double kAnalyzeCost = 0.5;
constexpr double kVerifyCost = 0.75;
constexpr double kRepairCost = 1.0;
constexpr double kQecCost = 1.5;

/// Runs `body` under the resilience policy: retries with seeded,
/// budget-charged backoff; injected delay units count against the stage
/// budget; exhausting either retries or budget returns the failure.
/// Returns nullopt on success. Behaviour-identical to a bare body()
/// call when nothing throws and no delay fires.
std::optional<StageFailure> run_guarded(Stage stage,
                                        const ResilienceOptions& options,
                                        Rng& rng, PipelineResult& result,
                                        const std::function<void()>& body) {
  failpoint::Injector* injector = failpoint::current_injector();
  cancel::DeadlineBudget* deadline = cancel::current_budget();
  double budget_used = 0.0;
  double delay_mark =
      injector != nullptr ? injector->delay_units_charged() : 0.0;
  for (int attempt = 0;; ++attempt) {
    bool ok = false;
    StageFailure failure;
    try {
      body();
      ok = true;
    } catch (const cancel::CancelledError&) {
      // A cancellation/deadline observed mid-stage is not a stage
      // failure: never retried, never degraded — it must reach the
      // serving layer as the structured lifecycle outcome.
      throw;
    } catch (const failpoint::InjectedFault& fault) {
      failure = {fault.site(), fault.what()};
    } catch (const std::exception& error) {
      failure = {"", error.what()};
    }
    if (injector != nullptr) {
      const double now = injector->delay_units_charged();
      budget_used += now - delay_mark;
      result.budget_consumed += now - delay_mark;
      // Injected delays count against the request's deadline too.
      if (deadline != nullptr) deadline->charge(now - delay_mark);
      delay_mark = now;
    }
    const bool over_budget = options.stage_budget_units > 0.0 &&
                             budget_used > options.stage_budget_units;
    if (ok) {
      if (over_budget) {
        return StageFailure{"", std::string(stage_row(stage).name) +
                                    ": stage budget exhausted by delays"};
      }
      return std::nullopt;
    }
    if (over_budget || attempt >= options.max_stage_retries) return failure;
    // Deterministic exponential backoff with seeded jitter, charged in
    // budget units rather than slept (chaos runs stay bit-reproducible).
    const double backoff = options.backoff_base_units *
                           std::ldexp(1.0, attempt) *
                           (1.0 + 0.5 * rng.uniform());
    budget_used += backoff;
    result.budget_consumed += backoff;
    if (deadline != nullptr) deadline->charge(backoff);
    ++result.stage_retries;
    qtrace::Metrics::counter("resilience.retries");
    qtrace::Metrics::observe("resilience.backoff_units", backoff);
    if (options.stage_budget_units > 0.0 &&
        budget_used > options.stage_budget_units) {
      return failure;
    }
  }
}

/// True when every diagnostic the repair was asked to fix carries a
/// preservation claim — only then is a behaviour change a defect rather
/// than the point of the repair.
bool repair_is_preservation_obligated(
    const std::vector<qasm::Diagnostic>& diagnostics) {
  return !diagnostics.empty() &&
         std::all_of(diagnostics.begin(), diagnostics.end(),
                     [](const qasm::Diagnostic& d) {
                       return qasm::verify::fixit_claims_preservation(d.code);
                     });
}

/// Certifies the repair rewrite prev -> current and records the verdict
/// on the pass trace and the pipeline counters. Purely observational:
/// control flow and the RNG streams are untouched, so resilience and
/// chaos runs stay bit-identical.
void certify_repair(PipelineResult& result, PassTrace& trace,
                    const std::optional<sim::Circuit>& prev,
                    const std::optional<sim::Circuit>& current,
                    bool obligated) {
  if (!prev.has_value() || !current.has_value()) return;
  const qasm::verify::Certificate cert =
      qasm::verify::certify_rewrite(*prev, *current, "repair");
  trace.repair_certificate = qasm::verify::certificate_summary(cert);
  if (cert.proved_equal()) {
    ++result.certified_repairs;
    qtrace::Metrics::counter("pipeline.repairs_certified");
  } else if (cert.proved_different() && obligated) {
    trace.repair_rejected = true;
    ++result.rejected_repairs;
    qtrace::Metrics::counter("pipeline.repairs_rejected");
  }
}

}  // namespace

MultiAgentPipeline::MultiAgentPipeline(
    const TechniqueConfig& technique,
    SemanticAnalyzerAgent::Options analyzer_options,
    std::optional<QecDecoderAgent::Options> qec_options,
    std::optional<DeviceTopology> device, std::uint64_t seed)
    : MultiAgentPipeline(
          technique, std::make_shared<const TechniqueResources>(technique),
          std::move(analyzer_options), std::move(qec_options),
          std::move(device), seed) {}

MultiAgentPipeline::MultiAgentPipeline(
    const TechniqueConfig& technique,
    std::shared_ptr<const TechniqueResources> resources,
    SemanticAnalyzerAgent::Options analyzer_options,
    std::optional<QecDecoderAgent::Options> qec_options,
    std::optional<DeviceTopology> device, std::uint64_t seed)
    : codegen_(technique, std::move(resources), seed),
      analyzer_(analyzer_options),
      device_(std::move(device)),
      resilience_rng_(seed ^ 0xc3a5c85c97cb3127ULL) {
  if (qec_options.has_value()) qec_agent_.emplace(*qec_options);
}

void MultiAgentPipeline::set_caches(PipelineCaches caches) {
  caches_ = std::move(caches);
  if (caches_.content_addressed || caches_.generation != nullptr) {
    codegen_.set_content_addressed(caches_.generation);
  }
  analyzer_.set_analysis_cache(caches_.analysis);
  if (degraded_analyzer_.has_value()) {
    degraded_analyzer_->set_analysis_cache(caches_.analysis);
  }
}

const SemanticAnalyzerAgent& MultiAgentPipeline::core_lints_analyzer() {
  if (!analyzer_.options().analysis.abstract_lints) return analyzer_;
  if (!degraded_analyzer_.has_value()) {
    SemanticAnalyzerAgent::Options options = analyzer_.options();
    options.analysis.abstract_lints = false;
    degraded_analyzer_.emplace(options);
    degraded_analyzer_->set_analysis_cache(caches_.analysis);
  }
  return *degraded_analyzer_;
}

PipelineResult MultiAgentPipeline::run(const llm::TaskSpec& task,
                                       const sim::Distribution& reference,
                                       std::size_t prompt_index) {
  // Ladder steps land in last_degradations_ as they are taken, so a
  // throwing run leaves them behind: the serving layer attributes
  // per-site fault evidence through them (circuit breakers) even though
  // the partial result itself is discarded.
  last_degradations_.clear();
  full_rung_ = 0;
  PipelineResult result;
  run_into(result, task, reference, prompt_index);
  result.degradations = last_degradations_;
  return result;
}

void MultiAgentPipeline::run_into(PipelineResult& result,
                                  const llm::TaskSpec& task,
                                  const sim::Distribution& reference,
                                  std::size_t prompt_index) {
  qtrace::TraceSpan run_span("pipeline.run");
  const auto guarded = [&](Stage stage, const std::function<void()>& body) {
    return run_guarded(stage, resilience_, resilience_rng_, result, body);
  };
  const auto note = [&](DegradationEvent event) {
    qtrace::Metrics::counter("resilience.degradations");
    last_degradations_.push_back(std::move(event));
  };
  const auto stage_error = [&](Stage stage, const StageFailure& failure) {
    return PipelineStageError(std::string(stage_row(stage).name), failure.site,
                              result.stage_retries, failure.what);
  };
  llm::GenerationResult generation;
  cancel::checkpoint("pipeline.generate");
  StartInputs inputs = conditions_;
  inputs.has_reference = !reference.empty();
  // The RAG rung is decided once, before the first generation, and held
  // for every repair; a technique without RAG has only the no-rag rung.
  std::size_t rag_rung = 1;
  if (codegen_.config().rag_api || codegen_.config().rag_guides) {
    inputs.pressure = cancel::budget_pressure();
    const Start start = start_rung(Stage::kGenerate, inputs);
    if (start.cause == Cause::kPressure) {
      note(pressure_step(Stage::kGenerate, 0));
    }
    rag_rung = start.rung;
    if (rag_rung == 0) full_rung_ |= bit(Stage::kGenerate);
  }
  // Verification re-reads the pressure on each pass until it trips, then
  // holds static-only; the other causes are known up front.
  inputs.pressure = 0.0;
  Start verify = start_rung(Stage::kVerify, inputs);
  std::size_t analyze_rung = 1;
  if (analyzer_.options().analysis.abstract_lints) {
    analyze_rung = start_rung(Stage::kAnalyze, inputs).rung;
    if (analyze_rung == 0) full_rung_ |= bit(Stage::kAnalyze);
  }

  {
    qtrace::TraceSpan span("pipeline.generate");
    const auto failed = walk_ladder(
        ladder(Stage::kGenerate), rag_rung, 0,
        [&](std::size_t rung) {
          return guarded(Stage::kGenerate, [&] {
            generation = codegen_.generate(task, prompt_index, rung == 0);
          });
        },
        note);
    if (failed.has_value()) throw stage_error(Stage::kGenerate, *failed);
  }
  cancel::charge("pipeline.generate", kGenerateCost);
  const int max_passes = codegen_.config().max_passes;

  // Lowered circuit of the previous pass and whether its repair carried
  // a preservation obligation — the inputs to repair certification.
  std::optional<sim::Circuit> prev_circuit;
  bool prev_obligated = false;
  // Resource digest of the final artifact, feeding the QEC stage's
  // fault-tolerance cost estimate.
  qasm::analysis::ResourceSummary final_resources;

  for (int pass = 1; pass <= max_passes; ++pass) {
    cancel::checkpoint("pipeline.analyze");
    PassTrace trace;
    trace.pass = pass;
    StaticReport static_report;
    {
      qtrace::TraceSpan span("pipeline.analyze");
      const auto failed = walk_ladder(
          ladder(Stage::kAnalyze), analyze_rung, pass,
          [&](std::size_t rung) {
            const SemanticAnalyzerAgent& analyzer =
                rung == 0 ? analyzer_ : core_lints_analyzer();
            return guarded(Stage::kAnalyze, [&] {
              static_report = analyzer.analyze(generation.source);
            });
          },
          note);
      if (failed.has_value()) {
        result.trace.push_back(trace);
        throw stage_error(Stage::kAnalyze, *failed);
      }
    }
    cancel::charge("pipeline.analyze", kAnalyzeCost);
    trace.syntactic_ok = static_report.syntactic_ok;
    trace.error_trace = static_report.error_trace;
    trace.error_count = static_report.diagnostics.size();
    trace.diagnostics = static_report.diagnostics;
    if (pass > 1) {
      // Translation validation of the repair that produced this pass.
      certify_repair(result, trace, prev_circuit, static_report.circuit,
                     prev_obligated);
    }

    bool semantic_ok = false;
    if (static_report.syntactic_ok) {
      if (verify.rung == 0) {
        inputs.pressure = cancel::budget_pressure();
        verify = start_rung(Stage::kVerify, inputs);
        if (verify.cause == Cause::kPressure) {
          note(pressure_step(Stage::kVerify, pass));
        }
      }
      // The static-only rung cannot fail: its verdict mirrors syntactic.
      walk_ladder(
          ladder(Stage::kVerify), verify.rung, pass,
          [&](std::size_t rung) -> std::optional<StageFailure> {
            if (rung > 0) {
              semantic_ok = true;
              trace.tvd = 0.0;
              return std::nullopt;
            }
            full_rung_ |= bit(Stage::kVerify);
            qtrace::TraceSpan span("pipeline.verify");
            cancel::checkpoint("pipeline.verify");
            BehaviorReport behavior;
            auto failed = guarded(Stage::kVerify, [&] {
              behavior =
                  analyzer_.check_behavior(*static_report.circuit, reference);
            });
            cancel::charge("pipeline.verify", kVerifyCost);
            if (!failed.has_value()) {
              semantic_ok = behavior.matches;
              trace.tvd = behavior.tvd;
            }
            return failed;
          },
          note);
    }
    trace.semantic_ok = semantic_ok;
    result.trace.push_back(trace);
    result.passes_used = pass;

    if (!semantic_ok && pass < max_passes) {
      // Feed the error trace back for the next inference pass.
      prev_circuit = static_report.circuit;
      prev_obligated =
          repair_is_preservation_obligated(static_report.diagnostics);
      qtrace::TraceSpan span("pipeline.repair");
      qtrace::Metrics::counter("pipeline.repair_passes");
      cancel::checkpoint("pipeline.repair");
      const auto failed = walk_ladder(
          ladder(Stage::kRepair), rag_rung, pass,
          [&](std::size_t rung) {
            auto failed = guarded(Stage::kRepair, [&] {
              generation = codegen_.repair(
                  task, generation, static_report.diagnostics,
                  /*semantic_failure=*/static_report.syntactic_ok,
                  prompt_index, pass, rung == 0);
            });
            // Charged once, after the first attempt.
            if (rung == rag_rung) {
              cancel::charge("pipeline.repair", kRepairCost);
            }
            return failed;
          },
          note);
      // Repair that gives up keeps this pass, like the last pass does.
      if (!failed.has_value()) continue;
    }
    result.syntactic_ok = trace.syntactic_ok;
    result.semantic_ok = semantic_ok;
    result.generation = generation;
    if (static_report.circuit.has_value()) {
      result.circuit = static_report.circuit;
    }
    final_resources = static_report.resources;
    break;
  }

  qtrace::Metrics::counter("pipeline.trials");
  if (result.syntactic_ok) qtrace::Metrics::counter("pipeline.syntactic_ok");
  if (result.semantic_ok) qtrace::Metrics::counter("pipeline.semantic_ok");
  qtrace::Metrics::observe("pipeline.passes_used",
                          static_cast<double>(result.passes_used));
  if (qec_agent_.has_value() && device_.has_value() && result.semantic_ok &&
      start_rung(Stage::kQec, inputs).rung == 0) {
    full_rung_ |= bit(Stage::kQec);
    qtrace::TraceSpan span("pipeline.qec_plan");
    const Ladder decoders =
        decoder_ladder(qec_agent_->options().decoder,
                       qec_agent_->options().target_distance);
    walk_ladder(
        decoders, 0, result.passes_used,
        [&](std::size_t rung) {
          cancel::checkpoint("pipeline.qec_plan");
          std::optional<QecPlan> plan;
          auto failed = guarded(Stage::kQec, [&] {
            failpoint::trip("qec.decode", result.passes_used);
            QecDecoderAgent::Options options = qec_agent_->options();
            options.decoder = decoders.decoders[rung];
            plan =
                QecDecoderAgent(options).plan_for(*device_, &final_resources);
          });
          if (!failed.has_value()) result.qec = std::move(plan);
          return failed;
        },
        note);
    cancel::charge("pipeline.qec_plan", kQecCost);
  }
}

}  // namespace qcgen::agents
