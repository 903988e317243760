#pragma once
// The degradation table: the one place that knows which rung each
// pipeline stage runs on and what moves it down. start_rung() picks the
// rung a stage starts on from the admission level, the open circuit
// breakers, the budget pressure and whether a reference exists;
// walk_ladder(), which every stage's failure path calls, steps it down
// when an attempt fails. An open breaker whose site has no cheaper rung
// fails the request fast instead.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "qec/decoder.hpp"

namespace qcgen::agents {

struct PipelineResult;

/// Admission verdict for a served request; kShed requests never run.
enum class AdmissionLevel { kFull = 0, kNoRag = 1, kStaticOnly = 2, kShed = 3 };

enum class Stage : std::uint8_t {
  kGenerate, kRepair, kAnalyze, kVerify, kQec, kOracle
};
inline constexpr std::size_t kStageCount = 6;

/// The sites the serving layer keeps a circuit breaker for: fail-fast
/// sites first, in the order an open one is named.
enum class Site : std::uint8_t {
  kLlmGenerate, kAnalyzerParse, kPoolTask, kRetrievalQuery,
  kAnalyzerAbstract, kAnalyzerSimulate, kOracleReference, kQecDecode
};
inline constexpr std::size_t kSiteCount = 8;

using SiteSet = std::uint32_t;   ///< one bit per Site
using StageSet = std::uint32_t;  ///< one bit per Stage
template <class E>
constexpr std::uint32_t bit(E e) noexcept {
  return 1U << static_cast<unsigned>(e);
}

/// One stage's row of the table; the rows are in degradation.cpp.
struct StageRow {
  std::string_view name, full, degraded;
  /// A degraded start is forced at and above this admission level, at
  /// and above this budget pressure, and without a reference.
  std::optional<AdmissionLevel> admission;
  std::optional<double> pressure;
  bool needs_reference;
  /// A failure steps down only if organic or from this site ("": any).
  std::string_view step_site;
  /// The event when the last rung fails ("" from: that rung; "" to: no
  /// event, the stage fails).
  std::string_view terminal_from, terminal_to;
};
const StageRow& stage_row(Stage stage) noexcept;
std::string_view site_name(Site site) noexcept;
std::optional<Site> find_site(std::string_view name) noexcept;
/// Every site, in name order (the order breakers report in).
const std::array<Site, kSiteCount>& sites_by_name() noexcept;

/// Why a stage starts degraded; only kPressure records an event.
enum class Cause : std::uint8_t {
  kNone, kNoReference, kAdmission, kBreaker, kPressure
};
inline constexpr std::string_view kPressureReason = "budget-pressure";

struct Start {
  std::size_t rung = 0;  ///< 0: full; 1: degraded (for QEC: no plan)
  Cause cause = Cause::kNone;
  friend bool operator==(const Start&, const Start&) = default;
};

struct StartInputs {
  AdmissionLevel admission = AdmissionLevel::kFull;
  SiteSet open_sites = 0;
  double pressure = 0.0;
  bool has_reference = true;
};

/// Causes are checked in the order reference, admission, breaker,
/// pressure. Repair shares generate's RAG decision.
Start start_rung(Stage stage, const StartInputs& inputs) noexcept;
/// The first open site whose stage has no cheaper rung to start on.
std::optional<Site> fail_fast_site(SiteSet open_sites) noexcept;

/// One rung taken on a degradation ladder (or a terminal "gave up"
/// marker when `to` is "none"/"abort").
struct DegradationEvent {
  int pass = 0;        ///< repair pass it happened in (0 = outside loop)
  std::string stage;   ///< StageRow::name
  std::string from;    ///< rung degraded from, e.g. "mwpm", "abstract-lints"
  std::string to;      ///< rung degraded to, e.g. "union-find", "core-lints"
  std::string reason;  ///< the failure that forced the step
  /// Fail-point site of that failure ("" for organic failures and for
  /// pressure-forced starts); circuit breakers attribute faults by it.
  std::string site;
  friend bool operator==(const DegradationEvent&,
                         const DegradationEvent&) = default;
};
DegradationEvent pressure_step(Stage stage, int pass);

/// Permanent failure of one stage attempt sequence.
struct StageFailure {
  std::string site;  ///< fail-point site, "" for organic exceptions
  std::string what;
};

/// A stage's rungs from the full one down.
struct Ladder {
  Stage stage = Stage::kGenerate;
  std::array<std::string_view, 3> rungs{};
  std::size_t size = 0;
  std::array<qec::DecoderKind, 3> decoders{};  ///< QEC: each rung's decoder
};
/// {full, degraded} of a stage other than QEC.
Ladder ladder(Stage stage) noexcept;
/// The configured decoder, then union-find, then lookup at distance 3
/// only (it does not scale past it), each decoder once.
Ladder decoder_ladder(qec::DecoderKind configured, int distance) noexcept;

/// The event a failure on `rung` records, if any; `next` tells whether
/// the walk goes on to rung + 1.
std::optional<DegradationEvent> failure_step(const Ladder& ladder,
                                             std::size_t rung, int pass,
                                             const StageFailure& failure,
                                             bool& next);

/// Walks `ladder` from `rung`: attempt(rung) returns the rung's failure
/// (nullopt on success), note(DegradationEvent) records each step.
/// Returns the failure that ended the walk.
template <class Attempt, class Note>
std::optional<StageFailure> walk_ladder(const Ladder& ladder,
                                        std::size_t rung, int pass,
                                        Attempt&& attempt, Note&& note) {
  for (;; ++rung) {
    std::optional<StageFailure> failed = attempt(rung);
    if (!failed.has_value()) return failed;
    bool next = false;
    if (auto event = failure_step(ladder, rung, pass, *failed, next)) {
      note(std::move(*event));
    }
    if (!next) return failed;
  }
}

/// A finished request's circuit-breaker evidence: the sites it failed at
/// (its failure site and every site that forced a ladder step) and the
/// sites it vouches for by exercising them without incident. The rest
/// are no-signal.
struct SiteEvidence {
  SiteSet failed = 0;
  SiteSet vouched = 0;
};
/// `failure_site` is "" unless the request failed there; `full_rung`
/// holds the stages a completed run ran on their full rung (nullopt:
/// the run did not complete, which vouches for nothing).
SiteEvidence site_evidence(const PipelineResult& result,
                           std::string_view failure_site,
                           std::optional<StageSet> full_rung);

}  // namespace qcgen::agents
