#pragma once
// Serving-layer request/result types.
//
// A Request is one asynchronous prompt -> code -> QEC job submitted to a
// Server (usually through a Session). The caller supplies a stable
// request id: the pipeline that executes the request is seeded by
// request_seed(server_seed, id) — the same chained-SplitMix64 discipline
// as eval::trial_seed — so a request's outcome (program text,
// diagnostics, QEC plan) depends only on (seed, id, admission level),
// never on the enqueue order or the worker schedule.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agents/pipeline.hpp"
#include "eval/suite.hpp"

namespace qcgen::serve {

/// Derives the independent RNG stream for request `id` from the server
/// seed via two chained SplitMix64 finalizations (the trial_seed
/// discipline, salted so request streams never collide with the batch
/// scheduler's trial streams for the same experiment seed).
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t request_id) noexcept;

/// Admission verdict for one request, decided at enqueue time from the
/// deterministic virtual-time backlog (see AdmissionController). The
/// degradation table (agents/degradation.hpp) lists the stage starts
/// each degraded level forces.
using AdmissionLevel = agents::AdmissionLevel;

std::string_view admission_level_name(AdmissionLevel level) noexcept;

/// Per-request execution options (a Session carries defaults).
struct RequestOptions {
  /// Run the QEC planning stage (requires the server to have a device;
  /// off skips planning even when one is configured).
  bool qec = true;
  /// Virtual-time deadline for this request, in the abstract budget
  /// units injected delays / retry backoff / stage costs consume
  /// (cancel::DeadlineBudget). <= 0 inherits the server default;
  /// a server default of 0 means no deadline.
  double deadline_units = 0.0;
};

/// One pipeline request. `arrival_vt` is the open-loop virtual arrival
/// time (seconds on the workload clock); admission control consumes it,
/// wall-clock execution does not.
struct Request {
  std::uint64_t id = 0;
  eval::TestCase test_case;
  double arrival_vt = 0.0;
  RequestOptions options;
};

enum class RequestOutcome {
  kCompleted = 0,  ///< pipeline ran to completion (result in `pipeline`)
  kShed = 1,       ///< rejected at admission; nothing executed
  kFailed = 2,     ///< pipeline threw after its resilience policy
  /// Virtual-time deadline budget exhausted at a cooperative checkpoint
  /// (failure_site names the checkpoint that observed it).
  kDeadlineExceeded = 3,
  /// Server::cancel observed at a cooperative checkpoint — including
  /// requests cancelled before they started executing.
  kCancelled = 4,
};

std::string_view request_outcome_name(RequestOutcome outcome) noexcept;

/// Final outcome of one request. Everything except
/// `wall_latency_seconds` is deterministic for a fixed (server seed,
/// request id, admission level).
struct RequestResult {
  std::uint64_t id = 0;
  std::string case_id;
  RequestOutcome outcome = RequestOutcome::kShed;
  AdmissionLevel level = AdmissionLevel::kShed;
  /// Valid only when outcome == kCompleted.
  agents::PipelineResult pipeline;
  /// Failure detail when outcome == kFailed (stage/site mirror
  /// eval::TrialFailure; site is "" for organic failures). For
  /// kDeadlineExceeded / kCancelled, failure_site names the cooperative
  /// checkpoint that observed the condition.
  std::string failure_stage;
  std::string failure_site;
  std::string failure_what;
  /// Deadline armed for this request (0 = none) and the virtual units it
  /// had consumed when it finished, for any outcome.
  double deadline_units = 0.0;
  double budget_consumed_units = 0.0;
  /// Fail-point sites this request skipped because their circuit breaker
  /// was open at arrival, and sites it exercised as a half-open probe.
  std::vector<std::string> breaker_short_circuits;
  std::vector<std::string> breaker_probes;
  /// Virtual-time queue model figures from the admission ticket (0 for
  /// shed requests): start, finish, and finish - arrival.
  double virtual_start = 0.0;
  double virtual_finish = 0.0;
  double virtual_latency = 0.0;
  /// Wall-clock submit -> completion latency (timing-class: varies run
  /// to run; everything else in this struct is deterministic).
  double wall_latency_seconds = 0.0;
};

}  // namespace qcgen::serve
