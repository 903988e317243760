#include "serve/report.hpp"

#include <algorithm>
#include <cmath>

namespace qcgen::serve {

namespace {

/// Nearest-rank: smallest value whose cumulative rank covers p.
double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

}  // namespace

LatencyQuantiles LatencyQuantiles::of(std::vector<double> values) {
  LatencyQuantiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  q.p50 = nearest_rank(values, 0.50);
  q.p90 = nearest_rank(values, 0.90);
  q.p99 = nearest_rank(values, 0.99);
  q.p999 = nearest_rank(values, 0.999);
  q.max = values.back();
  double sum = 0.0;
  for (const double v : values) sum += v;
  q.mean = sum / static_cast<double>(values.size());
  return q;
}

Json LatencyQuantiles::to_json() const {
  Json out;
  out["p50"] = p50;
  out["p90"] = p90;
  out["p99"] = p99;
  out["p999"] = p999;
  out["mean"] = mean;
  out["max"] = max;
  return out;
}

ServingSummary ServingSummary::from(const std::string& mix, double rate,
                                    const Server& server,
                                    const std::vector<RequestResult>& results) {
  ServingSummary summary;
  summary.mix = mix;
  summary.rate = rate;
  const Server::Stats stats = server.stats();
  summary.requests = stats.submitted;
  summary.completed = stats.completed;
  summary.shed = stats.shed;
  summary.failed = stats.failed;
  summary.semantic_ok = stats.semantic_ok;
  summary.deadline_exceeded = stats.deadline_exceeded;
  summary.cancelled = stats.cancelled;
  const AdmissionController& admission = server.admission();
  summary.admitted_full = admission.admitted_at(AdmissionLevel::kFull);
  summary.admitted_no_rag = admission.admitted_at(AdmissionLevel::kNoRag);
  summary.admitted_static_only =
      admission.admitted_at(AdmissionLevel::kStaticOnly);

  // Virtual latency over admitted (completed or failed) requests, in
  // request-id order so the double sum in the mean is bit-stable.
  std::vector<std::pair<std::uint64_t, double>> admitted;
  admitted.reserve(results.size());
  for (const RequestResult& result : results) {
    if (result.outcome == RequestOutcome::kShed) continue;
    admitted.emplace_back(result.id, result.virtual_latency);
  }
  std::sort(admitted.begin(), admitted.end());
  std::vector<double> latencies;
  latencies.reserve(admitted.size());
  for (const auto& [id, latency] : admitted) latencies.push_back(latency);
  summary.virtual_latency = LatencyQuantiles::of(std::move(latencies));

  // Events sorted by request id (offer order already is for monotonic
  // submissions; sorting makes the contract unconditional).
  summary.shed_events = admission.shed_events();
  std::sort(summary.shed_events.begin(), summary.shed_events.end(),
            [](const ShedEvent& a, const ShedEvent& b) {
              return a.request_id < b.request_id;
            });
  summary.degradation_events = admission.degradations();
  std::stable_sort(summary.degradation_events.begin(),
                   summary.degradation_events.end(),
                   [](const AdmissionDegradation& a,
                      const AdmissionDegradation& b) {
                     return a.request_id < b.request_id;
                   });
  return summary;
}

Json ServingSummary::to_json() const {
  Json row;
  row["mix"] = mix;
  row["rate"] = rate;
  row["requests"] = requests;
  row["completed"] = completed;
  row["shed"] = shed;
  row["failed"] = failed;
  row["semantic_ok"] = semantic_ok;
  row["deadline_exceeded"] = deadline_exceeded;
  row["cancelled"] = cancelled;
  row["admitted_full"] = admitted_full;
  row["admitted_no_rag"] = admitted_no_rag;
  row["admitted_static_only"] = admitted_static_only;
  row["virtual_latency"] = virtual_latency.to_json();
  Json sheds{JsonArray{}};
  for (const ShedEvent& event : shed_events) {
    Json entry;
    entry["request"] = event.request_id;
    entry["arrival_vt"] = event.arrival_vt;
    entry["depth"] = event.depth;
    sheds.push_back(std::move(entry));
  }
  row["shed_events"] = std::move(sheds);
  Json degradations{JsonArray{}};
  for (const AdmissionDegradation& event : degradation_events) {
    Json entry;
    entry["request"] = event.request_id;
    entry["arrival_vt"] = event.arrival_vt;
    entry["depth"] = event.depth;
    entry["stage"] = event.stage;
    entry["from"] = event.from;
    entry["to"] = event.to;
    degradations.push_back(std::move(entry));
  }
  row["degradation_events"] = std::move(degradations);
  return row;
}

LifecycleSummary LifecycleSummary::from(
    const std::string& mix, double deadline_units, const Server& server,
    const std::vector<RequestResult>& results) {
  LifecycleSummary summary;
  summary.mix = mix;
  summary.deadline_units = deadline_units;
  const Server::Stats stats = server.stats();
  summary.requests = stats.submitted;
  summary.deadline_exceeded = stats.deadline_exceeded;
  summary.cancelled = stats.cancelled;

  // Per-request figures folded in request-id order so the quantile input
  // (and with it the row) is worker-schedule invariant.
  std::vector<std::pair<std::uint64_t, double>> consumed;
  consumed.reserve(results.size());
  for (const RequestResult& result : results) {
    if (result.outcome == RequestOutcome::kShed) continue;
    consumed.emplace_back(result.id, result.budget_consumed_units);
    summary.breaker_short_circuits += result.breaker_short_circuits.size();
    summary.breaker_probes += result.breaker_probes.size();
    for (const agents::DegradationEvent& event :
         result.pipeline.degradations) {
      if (event.reason == agents::kPressureReason) {
        ++summary.budget_pressure_degradations;
      }
    }
  }
  std::sort(consumed.begin(), consumed.end());
  std::vector<double> units;
  units.reserve(consumed.size());
  for (const auto& [id, value] : consumed) units.push_back(value);
  summary.budget_consumed = LatencyQuantiles::of(std::move(units));
  summary.transitions = server.breaker_transitions();
  return summary;
}

Json LifecycleSummary::to_json() const {
  Json row;
  row["mix"] = mix;
  row["deadline_units"] = deadline_units;
  row["requests"] = requests;
  row["deadline_exceeded"] = deadline_exceeded;
  row["cancelled"] = cancelled;
  row["budget_pressure_degradations"] = budget_pressure_degradations;
  row["breaker_short_circuits"] = breaker_short_circuits;
  row["breaker_probes"] = breaker_probes;
  row["budget_consumed"] = budget_consumed.to_json();
  Json breaker;
  std::size_t opened = 0;
  std::size_t half_opened = 0;
  std::size_t closed = 0;
  Json edges{JsonArray{}};
  for (const BreakerTransition& transition : transitions) {
    switch (transition.to) {
      case BreakerState::kOpen: ++opened; break;
      case BreakerState::kHalfOpen: ++half_opened; break;
      case BreakerState::kClosed: ++closed; break;
    }
    Json entry;
    entry["site"] = transition.site;
    entry["from"] = std::string(breaker_state_name(transition.from));
    entry["to"] = std::string(breaker_state_name(transition.to));
    entry["vt"] = transition.vt;
    entry["request"] = transition.request_id;
    edges.push_back(std::move(entry));
  }
  breaker["opened"] = opened;
  breaker["half_opened"] = half_opened;
  breaker["closed"] = closed;
  breaker["transitions"] = std::move(edges);
  row["breaker"] = std::move(breaker);
  return row;
}

Json serving_timing_json(const Server& server, std::size_t semantic_ok,
                         double wall_seconds) {
  std::vector<double> latencies;
  for (const auto& [id, latency] : server.wall_latencies()) {
    latencies.push_back(latency);
  }
  Json out;
  out["latency_seconds"] = LatencyQuantiles::of(std::move(latencies)).to_json();
  out["goodput_per_second"] =
      wall_seconds > 0.0 ? static_cast<double>(semantic_ok) / wall_seconds
                         : 0.0;
  return out;
}

}  // namespace qcgen::serve
