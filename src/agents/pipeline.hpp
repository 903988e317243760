#pragma once
// Multi-agent pipeline (paper Fig 1): code generation -> semantic
// analysis -> iterative multi-pass repair -> optional QEC planning.
//
// The pipeline is the resilience boundary of the system: every stage
// runs under ResilienceOptions (deterministic seeded retry-with-backoff
// and per-stage budget limits) and on a rung of its degradation ladder.
// Which rung each stage starts on, and where a failure steps it, is
// decided by the degradation table (agents/degradation.hpp) from the
// serving conditions (admission level, open breakers), the request's
// budget pressure and whether a reference exists. Degradations are
// recorded as DegradationEvents on the pass trace and the final result;
// a stage that stays down after its ladder is exhausted raises
// PipelineStageError, which the trial scheduler contains as a
// TrialFailure instead of letting it abort the experiment.

#include <optional>
#include <vector>

#include "agents/codegen_agent.hpp"
#include "agents/degradation.hpp"
#include "agents/qec_agent.hpp"
#include "agents/semantic_agent.hpp"
#include "agents/topology.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace qcgen::agents {

/// Retry and budget policy for the pipeline stages. The defaults are
/// fail fast, which is behaviour-identical to the pre-resilience
/// pipeline as long as no stage actually fails.
struct ResilienceOptions {
  /// Retry attempts after a stage's first failure (0 = fail fast).
  int max_stage_retries = 0;
  /// Backoff charged per retry, in abstract budget units:
  /// base * 2^attempt * (1 + jitter), jitter in [0, 0.5) drawn from the
  /// pipeline's seeded stream — deterministic, no wall-clock sleeping.
  double backoff_base_units = 1.0;
  /// Budget per stage invocation in abstract units; 0 = unlimited.
  /// Injected delays and retry backoff both consume it; exhausting it
  /// fails the stage.
  double stage_budget_units = 0.0;
};

/// Raised when a mandatory stage stays down after retries and ladders
/// are exhausted. The trial scheduler converts it into a structured
/// TrialFailure; it never escapes eval::run_trial_matrix.
class PipelineStageError : public QcgenError {
 public:
  PipelineStageError(std::string stage, std::string site, int retries,
                     const std::string& what)
      : QcgenError(what),
        stage_(std::move(stage)),
        site_(std::move(site)),
        retries_(retries) {}
  const std::string& stage() const noexcept { return stage_; }
  /// Fail-point site that caused the failure ("" for organic failures).
  const std::string& site() const noexcept { return site_; }
  int retries() const noexcept { return retries_; }

 private:
  std::string stage_;
  std::string site_;
  int retries_ = 0;
};

/// Per-pass trace entry.
struct PassTrace {
  int pass = 0;
  bool syntactic_ok = false;
  bool semantic_ok = false;
  double tvd = 1.0;
  std::size_t error_count = 0;
  std::string error_trace;
  /// Structured diagnostics behind `error_trace` (including abstract.*
  /// facts), so eval/bench tooling can classify without string-scraping;
  /// serialise with qasm::diagnostics_to_json.
  std::vector<qasm::Diagnostic> diagnostics;
  /// Translation-validation certificate for the repair step that produced
  /// this pass's source (verify::certificate_summary rendering; empty on
  /// pass 1 or when either side of the rewrite does not lower).
  std::string repair_certificate;
  /// True when the repair was certification-obligated (every diagnostic it
  /// was asked to fix claimed semantic preservation) and the checker
  /// proved the rewrite non-preserving.
  bool repair_rejected = false;
};

/// Final pipeline outcome for one task.
struct PipelineResult {
  bool syntactic_ok = false;
  bool semantic_ok = false;
  int passes_used = 0;
  std::vector<PassTrace> trace;
  llm::GenerationResult generation;  ///< final artifact
  std::optional<sim::Circuit> circuit;
  std::optional<QecPlan> qec;
  /// Every degradation-ladder step taken, in occurrence order (each
  /// carries the repair pass it happened in).
  std::vector<DegradationEvent> degradations;
  /// Total stage retry attempts spent across the run.
  int stage_retries = 0;
  /// Budget units consumed by injected delays plus retry backoff.
  double budget_consumed = 0.0;
  /// Repair steps the equivalence checker certified as preserving
  /// (proved-equal before/after circuits).
  int certified_repairs = 0;
  /// Repair steps proven non-preserving although every diagnostic they
  /// addressed claimed preservation (see PassTrace::repair_rejected).
  int rejected_repairs = 0;
};

/// Shared memoization layers handed to a pipeline by the serving path
/// (off everywhere else: eval trial matrices stay bit-identical to the
/// uncached pipeline). See CodeGenAgent::set_content_addressed and
/// SemanticAnalyzerAgent::set_analysis_cache for the exact semantics.
struct PipelineCaches {
  /// Engage content-addressed generation even when `generation` is null
  /// — the pure-recompute bypass certification tests run against.
  bool content_addressed = false;
  std::shared_ptr<GenerationCache> generation;
  std::shared_ptr<AnalysisCache> analysis;
};

class MultiAgentPipeline {
 public:
  /// `device` enables the QEC agent stage; nullopt skips it (the Fig 3 /
  /// Table I experiments run without QEC, Fig 4 with it).
  MultiAgentPipeline(const TechniqueConfig& technique,
                     SemanticAnalyzerAgent::Options analyzer_options,
                     std::optional<QecDecoderAgent::Options> qec_options,
                     std::optional<DeviceTopology> device,
                     std::uint64_t seed);

  /// Shares an immutable corpora/knowledge bundle built once for the
  /// technique (see TechniqueResources): the cheap per-pipeline state is
  /// just the SimLM and the analyzer, so a trial scheduler can construct
  /// one pipeline per (case, sample) trial without re-indexing corpora.
  MultiAgentPipeline(const TechniqueConfig& technique,
                     std::shared_ptr<const TechniqueResources> resources,
                     SemanticAnalyzerAgent::Options analyzer_options,
                     std::optional<QecDecoderAgent::Options> qec_options,
                     std::optional<DeviceTopology> device,
                     std::uint64_t seed);

  void set_resilience(const ResilienceOptions& options) {
    resilience_ = options;
  }

  /// What the serving layer knows before the request runs: its
  /// admission level and the sites whose circuit breaker is open (the
  /// default is an unloaded request with every breaker closed). The
  /// degradation table turns them into the stages' starting rungs.
  void set_conditions(AdmissionLevel admission, SiteSet open_sites) noexcept {
    conditions_.admission = admission;
    conditions_.open_sites = open_sites;
  }

  /// Wires the serving caches through to the agents (the retrieval cache
  /// rides inside the shared TechniqueResources and needs no per-
  /// pipeline hookup). The degraded analyzer rung shares the analysis
  /// cache too; its different lint configuration keys it apart.
  void set_caches(PipelineCaches caches);

  /// Runs generation + analysis (+ repair passes up to the technique's
  /// max_passes) on one task. `reference` enables the behavioural check;
  /// pass an empty distribution to restrict to static verification.
  /// `prompt_index` feeds the CoT hand-written-scaffold rule.
  /// Throws PipelineStageError when a mandatory stage stays down after
  /// the resilience policy (retries + ladders) is exhausted.
  PipelineResult run(const llm::TaskSpec& task,
                     const sim::Distribution& reference,
                     std::size_t prompt_index);

  /// Degradation events accumulated by the most recent run(), preserved
  /// even when the run threw (PipelineStageError / CancelledError): an
  /// aborted request's ladder steps are its per-site fault evidence, and
  /// the serving layer's circuit breakers copy them off the wreck.
  const std::vector<DegradationEvent>& last_degradations() const noexcept {
    return last_degradations_;
  }

  /// The stages the most recent run() ran on their full rung (the
  /// breaker's positive evidence; see site_evidence).
  StageSet full_rung_stages() const noexcept { return full_rung_; }

 private:
  /// run()'s body; ladder steps go to last_degradations_.
  void run_into(PipelineResult& result, const llm::TaskSpec& task,
                const sim::Distribution& reference, std::size_t prompt_index);

  /// Analyzer with the abstract interpreter disabled — the analyze
  /// stage's degraded rung; constructed lazily on first use unless the
  /// configured analyzer already runs without it.
  const SemanticAnalyzerAgent& core_lints_analyzer();

  CodeGenAgent codegen_;
  SemanticAnalyzerAgent analyzer_;
  PipelineCaches caches_;
  std::optional<SemanticAnalyzerAgent> degraded_analyzer_;
  std::optional<QecDecoderAgent> qec_agent_;
  std::optional<DeviceTopology> device_;
  ResilienceOptions resilience_;
  StartInputs conditions_;  ///< see set_conditions()
  StageSet full_rung_ = 0;  ///< see full_rung_stages()
  Rng resilience_rng_;  ///< seeded backoff jitter (per-trial stream)
  std::vector<DegradationEvent> last_degradations_;  ///< see accessor
};

}  // namespace qcgen::agents
