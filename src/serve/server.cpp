#include "serve/server.hpp"

#include <utility>

#include "common/error.hpp"
#include "eval/parallel.hpp"

namespace qcgen::serve {

namespace {

// Salts the server seed into an independent per-request chaos stream, so
// arming a scenario never perturbs the pipelines' own RNG streams (the
// same separation eval/parallel.cpp keeps for trials).
constexpr std::uint64_t kServeChaosSalt = 0x39d2f1b7a85c64e9ULL;

const sim::Distribution kEmptyReference;

/// The lifecycle outcome of a request whose body threw.
RequestOutcome outcome_of(const eval::UnitFailure& failure) {
  if (!failure.cause.has_value()) return RequestOutcome::kFailed;
  return *failure.cause == cancel::Cause::kDeadlineExceeded
             ? RequestOutcome::kDeadlineExceeded
             : RequestOutcome::kCancelled;
}

}  // namespace

Server::Server(Options options, const std::vector<eval::TestCase>& catalog)
    : options_(std::move(options)),
      oracle_(options_.oracle),
      admission_(options_.admission),
      pool_(options_.threads) {
  require(!options_.qec.has_value() || options_.device.has_value(),
          "Server: qec options require a device");
  require(options_.chaos_scenario.empty() || !options_.cache.enabled,
          "Server: chaos_scenario and cache.enabled are mutually exclusive "
          "(injected faults are per-request; memoized computes are shared)");
  // Resources are built mutable so the retrieval cache can be attached
  // to the BM25 stores, then frozen behind the const shared_ptr every
  // worker reads through.
  auto resources =
      std::make_shared<agents::TechniqueResources>(options_.technique);
  if (options_.cache.enabled && !options_.cache.bypass) {
    const auto make = [&](const char* name) {
      cache::CacheOptions cache_options;
      cache_options.name = name;
      cache_options.record_trace = options_.cache.record_trace;
      return cache_options;
    };
    generation_cache_ =
        std::make_shared<agents::GenerationCache>(make("generation"));
    retrieval_cache_ =
        std::make_shared<llm::RetrievalCache>(make("retrieval"));
    analysis_cache_ =
        std::make_shared<agents::AnalysisCache>(make("analysis"));
    resources->enable_retrieval_cache(retrieval_cache_);
  }
  resources_ = std::move(resources);
  // Only the slots are laid out here: each decoder rung's estimate is
  // measured inside the first request that plans on it, so the work is
  // traced and cancellable as that request's and set-up stays cheap.
  if (options_.qec.has_value()) {
    qec_ = std::make_shared<agents::QecEstimates>(*options_.qec,
                                                  *options_.device);
  }
  if (!options_.chaos_scenario.empty()) {
    scenario_ = std::make_shared<const failpoint::Scenario>(
        failpoint::Scenario::parse(options_.chaos_scenario));
    if (scenario_->empty()) scenario_.reset();
  }
  if (options_.breaker.enabled) {
    BreakerOptions breaker_options = options_.breaker;
    if (breaker_options.seed == 0) breaker_options.seed = options_.seed;
    breaker_ = std::make_unique<BreakerBoard>(breaker_options);
  }
  // Prewarm makes reference_for read-only for catalog cases, so worker
  // threads can look references up concurrently; the prompt index fixes
  // each case's scaffold slot independently of request order.
  oracle_.prewarm(catalog);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    prompt_index_.emplace(catalog[i].id, i);
  }
}

Server::~Server() {
  // Destruction-safe: drain() can throw (e.g. an injected "serve.drain"
  // fault in the destruction tests, or a sink merge failure); contain it
  // so the destructor never terminates the process. The pool teardown
  // below still joins every worker — pool_ is the last member, so tasks
  // finish against live server state either way.
  try {
    drain();
  } catch (...) {
    trace::Metrics::counter("serve.drain_failures");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.drain_failures;
  }
  if (breaker_ != nullptr) breaker_->finalize();
}

std::future<RequestResult> Server::submit(Request request) {
  const AdmissionTicket ticket =
      admission_.offer(request.id, request.arrival_vt);
  const double deadline = request.options.deadline_units > 0.0
                              ? request.options.deadline_units
                              : options_.default_deadline_units;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    if (ticket.level == AdmissionLevel::kShed) ++stats_.shed;
    // Eager lifecycle booking (may already exist: cancel-before-submit).
    Lifecycle& lifecycle = lifecycles_[request.id];
    lifecycle.deadline_units = deadline;
    lifecycle.budget = std::make_shared<cancel::DeadlineBudget>(deadline);
    lifecycle.done = ticket.level == AdmissionLevel::kShed;
  }
  std::promise<RequestResult> promise;
  std::future<RequestResult> future = promise.get_future();
  if (ticket.level == AdmissionLevel::kShed) {
    RequestResult result;
    result.id = request.id;
    result.case_id = request.test_case.id;
    result.outcome = RequestOutcome::kShed;
    result.level = AdmissionLevel::kShed;
    result.deadline_units = deadline;
    promise.set_value(std::move(result));
    return future;
  }
  // Shed requests never execute and must not be registered: the board's
  // decide() gate waits on registered requests to report.
  if (breaker_ != nullptr) {
    breaker_->register_request(request.id, ticket.virtual_start,
                               ticket.virtual_finish);
  }
  queue_.push({std::move(request), ticket, std::move(promise),
               std::chrono::steady_clock::now()});
  pool_.submit([this] { execute_one(); });
  return future;
}

void Server::cancel(std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  lifecycles_[request_id].source.request_cancel();
  trace::Metrics::counter("serve.cancel_requests");
}

void Server::execute_one() {
  std::optional<QueuedRequest> item = queue_.try_pop();
  if (!item.has_value()) return;  // submit/pop pairing makes this unreachable

  // Per-request sink so the aggregate summary can merge in id order.
  std::unique_ptr<trace::TraceSink> sink;
  if (options_.trace != nullptr) {
    sink = std::make_unique<trace::TraceSink>(options_.trace->keep_events());
  }
  RequestResult result = run_request(item->request, item->ticket, sink.get());
  result.wall_latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    item->submitted_at)
          .count();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    wall_latencies_[result.id] = result.wall_latency_seconds;
    switch (result.outcome) {
      case RequestOutcome::kCompleted:
        ++stats_.completed;
        if (result.pipeline.semantic_ok) ++stats_.semantic_ok;
        break;
      case RequestOutcome::kDeadlineExceeded:
        ++stats_.deadline_exceeded;
        break;
      case RequestOutcome::kCancelled:
        ++stats_.cancelled;
        break;
      default:
        ++stats_.failed;
        break;
    }
    lifecycles_[result.id].done = true;
    if (sink != nullptr) sinks_[result.id] = std::move(sink);
  }
  item->promise.set_value(std::move(result));
}

RequestResult Server::run_request(const Request& request,
                                  const AdmissionTicket& ticket,
                                  trace::TraceSink* sink) {
  RequestResult result;
  result.id = request.id;
  result.case_id = request.test_case.id;
  result.level = ticket.level;
  result.virtual_start = ticket.virtual_start;
  result.virtual_finish = ticket.virtual_finish;
  result.virtual_latency = ticket.virtual_finish - request.arrival_vt;

  // Bind this request's cancellation token and deadline budget (booked
  // at submit; the defensive [] covers only impossible orderings).
  cancel::CancellationToken token;
  std::shared_ptr<cancel::DeadlineBudget> budget;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Lifecycle& lifecycle = lifecycles_[request.id];
    if (lifecycle.budget == nullptr) {
      lifecycle.budget = std::make_shared<cancel::DeadlineBudget>();
    }
    token = lifecycle.source.token();
    budget = lifecycle.budget;
    result.deadline_units = lifecycle.deadline_units;
  }

  // Per-request injector on an independent chaos stream: injection
  // decisions depend only on (seed, id), never the worker schedule.
  std::optional<failpoint::Injector> injector;
  if (scenario_ != nullptr) {
    injector.emplace(scenario_,
                     request_seed(options_.seed ^ kServeChaosSalt, request.id));
  }

  // The cache tag is the request id, so recorded traces reconstruct a
  // canonical (request-id, call-sequence) order at any thread count.
  RequestContext context{.injector = injector ? &*injector : nullptr,
                         .token = token,
                         .budget = budget.get(),
                         .cache_tag = request.id};

  // Outlives the body so an aborted run's partial degradation ladder (the
  // request's per-site fault evidence) can be salvaged below.
  std::optional<agents::MultiAgentPipeline> pipeline;
  const auto body = [&] {
    // Born-cancelled requests resolve here, before the breaker gate —
    // they never block on (or contribute signal to) the event log.
    cancel::checkpoint("serve.request");

    // Breaker verdicts at this request's virtual arrival. Open sites
    // start their stage degraded (or fail fast); half-open probes run
    // the real path and their outcome drives the close / re-open edge.
    BreakerVerdicts verdicts;
    if (breaker_ != nullptr) {
      verdicts = breaker_->decide(request.id);
      for (const agents::Site site : agents::sites_by_name()) {
        const std::string_view name = agents::site_name(site);
        if (verdicts.short_circuit & agents::bit(site)) {
          result.breaker_short_circuits.emplace_back(name);
        }
        if (verdicts.probing & agents::bit(site)) {
          result.breaker_probes.emplace_back(name);
        }
      }
    }

    // Cases outside the prewarmed catalog verify static-only: only the
    // const cache lookup is worker-safe (reference_for would lazily
    // compile the gold program, a mutation we must not race across
    // workers).
    const sim::Distribution* reference = &kEmptyReference;
    std::size_t prompt_index = prompt_index_.size();
    if (const auto found = prompt_index_.find(request.test_case.id);
        found != prompt_index_.end()) {
      prompt_index = found->second;
      if (const sim::Distribution* cached =
              oracle_.find(request.test_case.id)) {
        reference = cached;
      }
    }

    // A persistently failing site with no cheaper rung fails fast: a
    // structured kFailed beats burning deadline budget on it.
    if (const auto site = agents::fail_fast_site(verdicts.short_circuit)) {
      const std::string name(agents::site_name(*site));
      trace::Metrics::counter("breaker.fail_fast");
      throw agents::PipelineStageError("request", name, 0,
                                       "circuit breaker open at " + name);
    }
    failpoint::trip("pool.task");
    pipeline.emplace(options_.technique, resources_, options_.analyzer,
                     request.options.qec ? qec_ : nullptr,
                     request_seed(options_.seed, request.id));
    pipeline->set_resilience(options_.resilience);
    if (options_.cache.enabled) {
      // bypass mode leaves both pointers null: the same content-
      // addressed computes run, nothing is memoized.
      pipeline->set_caches({true, generation_cache_, analysis_cache_});
    }
    pipeline->set_conditions(ticket.level, verdicts.short_circuit);
    result.pipeline =
        pipeline->run(request.test_case.task, *reference, prompt_index);
    result.outcome = RequestOutcome::kCompleted;
    trace::Metrics::counter("serve.completed");
  };
  const auto count_failure = [](const eval::UnitFailure& failure) {
    const RequestOutcome outcome = outcome_of(failure);
    trace::Metrics::counter(outcome == RequestOutcome::kCancelled
                                ? "serve.cancelled"
                            : outcome == RequestOutcome::kDeadlineExceeded
                                ? "serve.deadline_exceeded"
                                : "serve.request_failures");
  };
  if (const auto failure =
          eval::run_unit(sink, context, "request", body, count_failure)) {
    result.outcome = outcome_of(*failure);
    result.failure_stage = failure->stage;
    result.failure_site = failure->site;
    result.failure_what = failure->what;
  }
  // An aborted run (deadline, cancel, stage error) discards its partial
  // pipeline result, but the ladder steps it took up to the abort are
  // this request's per-site fault evidence — copy them off the wreck so
  // the breaker and the lifecycle report still see them.
  if (result.outcome != RequestOutcome::kCompleted && pipeline.has_value()) {
    result.pipeline.degradations = pipeline->last_degradations();
  }
  result.budget_consumed_units = budget->consumed();
  // Every registered request reports exactly once, on every outcome
  // path — the decide() gate of later-arriving requests depends on it.
  if (breaker_ != nullptr) {
    const bool completed = result.outcome == RequestOutcome::kCompleted;
    const agents::SiteEvidence evidence = agents::site_evidence(
        result.pipeline,
        result.outcome == RequestOutcome::kFailed ? result.failure_site : "",
        completed ? std::optional(pipeline->full_rung_stages()) : std::nullopt);
    breaker_->report(request.id, evidence.failed, evidence.vouched);
  }
  return result;
}

void Server::drain(double budget_units) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, lifecycle] : lifecycles_) {
      if (lifecycle.done || lifecycle.budget == nullptr) continue;
      lifecycle.budget->tighten(budget_units);
    }
  }
  drain();
}

void Server::drain() {
  // Destruction-test hook: an armed "serve.drain" fault makes this throw
  // before the wait, exercising the destructor's containment path.
  failpoint::trip("serve.drain");
  pool_.wait_idle();
  if (options_.trace == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // Request-id order, not completion order: the merged summary must be
  // independent of the worker schedule.
  for (const auto& [id, sink] : sinks_) {
    options_.trace->merge(*sink);
  }
  sinks_.clear();
  // Scheduler counters are lifetime totals; report only the delta since
  // the last drain so repeated drains never double-count.
  const trace::SchedulerStats current{pool_.size(), pool_.tasks_executed(),
                                      pool_.tasks_stolen()};
  options_.trace->add_scheduler(
      {current.workers, current.tasks_executed - reported_scheduler_.tasks_executed,
       current.tasks_stolen - reported_scheduler_.tasks_stolen});
  reported_scheduler_ = current;
}

std::vector<BreakerTransition> Server::breaker_transitions() const {
  if (breaker_ == nullptr) return {};
  return breaker_->transitions();
}

std::vector<CacheLayerReport> Server::cache_reports() const {
  std::vector<CacheLayerReport> reports;
  const auto add = [&](const char* layer, const auto& cache_ptr) {
    if (cache_ptr == nullptr) return;
    reports.push_back(
        {layer, cache_ptr->stats(), cache_ptr->access_trace()});
  };
  add("generation", generation_cache_);
  add("retrieval", retrieval_cache_);
  add("analysis", analysis_cache_);
  return reports;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::map<std::uint64_t, double> Server::wall_latencies() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wall_latencies_;
}

}  // namespace qcgen::serve
