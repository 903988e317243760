#include "agents/degradation.hpp"

#include <algorithm>

#include "agents/pipeline.hpp"

namespace qcgen::agents {

namespace {

// Indexed by Stage. Columns as in StageRow. Repair's start follows
// generate's RAG decision, so its forcing columns are empty.
constexpr auto kNever = std::nullopt;
constexpr std::array<StageRow, kStageCount> kStages = {{
    {"generate", "rag", "no-rag", AdmissionLevel::kNoRag, 0.55, false,
     "retrieval.query", "", ""},
    {"repair", "rag", "no-rag", kNever, kNever, false, "retrieval.query",
     "multi-pass", "abort"},
    {"analyze", "abstract-lints", "core-lints", kNever, kNever, false, "", "",
     ""},
    {"verify", "behavioral", "static-only", AdmissionLevel::kStaticOnly, 0.8,
     true, "", "", ""},
    // Full rung: the configured decoder (decoder_ladder lists the rungs).
    {"qec", "decoder", "none", kNever, kNever, false, "", "", "none"},
    {"oracle", "reference", "static-only", kNever, kNever, false, "", "", ""},
}};

/// How a completed run vouches for a site (anything else is no-signal):
/// every completed run exercised it; its stage ran on the full rung; ...
/// and the final pass parsed; ... and the stage took no ladder step; never.
enum class Evidence { kCompleted, kRan, kRanParsed, kRanClean, kNever };

struct SiteRow {
  std::string_view name;
  std::optional<Stage> forces;  ///< starts degraded when open; none: fail fast
  Evidence evidence;
};

// Indexed by Site.
constexpr std::array<SiteRow, kSiteCount> kSites = {{
    {"llm.generate", kNever, Evidence::kCompleted},
    {"analyzer.parse", kNever, Evidence::kCompleted},
    {"pool.task", kNever, Evidence::kCompleted},
    {"retrieval.query", Stage::kGenerate, Evidence::kRan},
    {"analyzer.abstract", Stage::kAnalyze, Evidence::kRanParsed},
    {"analyzer.simulate", Stage::kVerify, Evidence::kRanClean},
    // Prewarmed with the server's catalog, never computed per request.
    {"oracle.reference", Stage::kVerify, Evidence::kNever},
    {"qec.decode", Stage::kQec, Evidence::kRanClean},
}};

bool has(std::uint32_t set, std::size_t index) noexcept {
  return (set & (1U << index)) != 0;
}

}  // namespace

const StageRow& stage_row(Stage stage) noexcept {
  return kStages[static_cast<std::size_t>(stage)];
}

std::string_view site_name(Site site) noexcept {
  return kSites[static_cast<std::size_t>(site)].name;
}

std::optional<Site> find_site(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (kSites[i].name == name) return Site(i);
  }
  return std::nullopt;
}

const std::array<Site, kSiteCount>& sites_by_name() noexcept {
  static const std::array<Site, kSiteCount> sorted = [] {
    std::array<Site, kSiteCount> sites{};
    for (std::size_t i = 0; i < kSiteCount; ++i) sites[i] = Site(i);
    std::sort(sites.begin(), sites.end(),
              [](Site a, Site b) { return site_name(a) < site_name(b); });
    return sites;
  }();
  return sorted;
}

Start start_rung(Stage stage, const StartInputs& inputs) noexcept {
  if (stage == Stage::kRepair) stage = Stage::kGenerate;
  const StageRow& row = stage_row(stage);
  if (row.needs_reference && !inputs.has_reference) {
    return {1, Cause::kNoReference};
  }
  if (row.admission && inputs.admission >= *row.admission) {
    return {1, Cause::kAdmission};
  }
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (has(inputs.open_sites, i) && kSites[i].forces == stage) {
      return {1, Cause::kBreaker};
    }
  }
  if (row.pressure && inputs.pressure >= *row.pressure) {
    return {1, Cause::kPressure};
  }
  return {};
}

std::optional<Site> fail_fast_site(SiteSet open_sites) noexcept {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (has(open_sites, i) && !kSites[i].forces) return Site(i);
  }
  return std::nullopt;
}

DegradationEvent pressure_step(Stage stage, int pass) {
  const StageRow& row = stage_row(stage);
  return {pass, std::string(row.name), std::string(row.full),
          std::string(row.degraded), std::string(kPressureReason), ""};
}

Ladder ladder(Stage stage) noexcept {
  return {stage, {stage_row(stage).full, stage_row(stage).degraded}, 2};
}

Ladder decoder_ladder(qec::DecoderKind configured, int distance) noexcept {
  Ladder ladder{.stage = Stage::kQec};
  for (const qec::DecoderKind kind :
       {configured, qec::DecoderKind::kUnionFind, qec::DecoderKind::kLookup}) {
    const auto end = ladder.decoders.begin() + ladder.size;
    if (std::find(ladder.decoders.begin(), end, kind) != end) continue;
    if (kind == qec::DecoderKind::kLookup && distance != 3) continue;
    ladder.decoders[ladder.size] = kind;
    ladder.rungs[ladder.size++] = qec::decoder_kind_name(kind);
  }
  return ladder;
}

std::optional<DegradationEvent> failure_step(const Ladder& ladder,
                                             std::size_t rung, int pass,
                                             const StageFailure& failure,
                                             bool& next) {
  const StageRow& row = stage_row(ladder.stage);
  next = rung + 1 < ladder.size &&
         (row.step_site.empty() || failure.site.empty() ||
          failure.site == row.step_site);
  std::string_view from = ladder.rungs[rung];
  std::string_view to = next ? ladder.rungs[rung + 1] : row.terminal_to;
  if (!next && !row.terminal_from.empty()) from = row.terminal_from;
  if (to.empty()) return std::nullopt;
  return DegradationEvent{pass, std::string(row.name), std::string(from),
                          std::string(to), failure.what, failure.site};
}

SiteEvidence site_evidence(const PipelineResult& result,
                           std::string_view failure_site,
                           std::optional<StageSet> full_rung) {
  SiteEvidence evidence;
  StageSet clean = full_rung.value_or(0);  // full rung and no ladder step
  const auto fail = [&](std::string_view name) {
    if (const auto site = find_site(name)) evidence.failed |= bit(*site);
  };
  fail(failure_site);
  for (const DegradationEvent& event : result.degradations) {
    fail(event.site);
    for (std::size_t i = 0; i < kStageCount; ++i) {
      if (kStages[i].name == event.stage) clean &= ~(1U << i);
    }
  }
  for (std::size_t i = 0; full_rung && i < kSiteCount; ++i) {
    const SiteRow& row = kSites[i];
    const StageSet stage = row.forces ? bit(*row.forces) : 0;
    const bool ran = (*full_rung & stage) != 0;
    if (!has(evidence.failed, i) &&  // failures win
        (row.evidence == Evidence::kCompleted ||
         (row.evidence == Evidence::kRan && ran) ||
         (row.evidence == Evidence::kRanParsed && ran && result.syntactic_ok) ||
         (row.evidence == Evidence::kRanClean && (clean & stage) != 0))) {
      evidence.vouched |= bit(i);
    }
  }
  return evidence;
}

}  // namespace qcgen::agents
