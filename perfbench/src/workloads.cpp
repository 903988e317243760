#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/cache/hash.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "qec/decoder.hpp"

namespace qcgen::perfbench {

void RunReport::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"llm.bm25.calls", "count"},
      {"llm.bm25.self_s", "s"},
      {"llm.generate.calls", "count"},
      {"llm.generate.self_s", "s"},
      {"llm.repair.calls", "count"},
      {"llm.repair.self_s", "s"},
      {"qasm.parse.calls", "count"},
      {"qasm.parse.self_s", "s"},
      {"qasm.lint.self_s", "s"},
      {"qasm.lint.diagnostics", "count"},
      {"qasm.absint.self_s", "s"},
      {"qasm.resources.self_s", "s"},
      {"qasm.lower.self_s", "s"},
      {"qasm.certify.calls", "count"},
      {"qasm.certify.self_s", "s"},
      {"qasm.certify.proved_share", "ratio"},
      {"sim.exact.calls", "count"},
      {"sim.exact.self_s", "s"},
      {"agents.judge.self_s", "s"},
      {"agents.analyze.self_s", "s"},
      {"agents.verify.self_s", "s"},
      {"agents.repair.useful_share", "ratio"},
      {"agents.pipeline.overhead_share", "ratio"},
      {"eval.semantic_ok_share", "ratio"},
      {"eval.passes_per_trial", "count"},
      {"eval.scheduler.scaling_efficiency", "ratio"},
      {"qec.plans", "count"},
      {"qec.trials", "count"},
      {"qec.plan.self_s", "s"},
      {"qec.sample.self_s", "s"},
      {"qec.decode.calls", "count"},
      {"qec.decode.self_s", "s"},
      {"qec.defects_per_decode", "count"},
      {"serve.submit.us_per_call", "us"},
      {"serve.wait_ms.p50", "ms"},
      {"serve.wait_ms.p99", "ms"},
      {"serve.backlog.max", "count"},
      {"serve.generator_lag_ms.p99", "ms"},
      {"serve.latency_ms.p99", "ms"},
      {"common.cache.generation.hit_share", "ratio"},
      {"common.cache.retrieval.hit_share", "ratio"},
      {"common.cache.analysis.hit_share", "ratio"},
      {"setup.resources_s", "s"},
      {"setup.oracle_s", "s"},
      {"setup.server_s", "s"},
      {"ops_failed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return kMetrics;
}

std::uint64_t pipeline_digest(const agents::PipelineResult& result) {
  qcgen::cache::KeyHasher hasher;
  hasher.mix(result.syntactic_ok).mix(result.semantic_ok);
  hasher.mix(static_cast<std::uint64_t>(result.passes_used));
  hasher.mix(result.generation.source);
  hasher.mix(static_cast<std::uint64_t>(result.certified_repairs));
  hasher.mix(static_cast<std::uint64_t>(result.rejected_repairs));
  hasher.mix(result.qec.has_value());
  if (result.qec.has_value()) {
    const agents::QecPlan& plan = *result.qec;
    hasher.mix(plan.feasible);
    hasher.mix(static_cast<std::uint64_t>(plan.distance));
    hasher.mix(std::string(qec::decoder_kind_name(plan.decoder)));
    hasher.mix(plan.lifetime.logical_error_per_round);
    hasher.mix(static_cast<std::uint64_t>(plan.resources.code_distance));
    hasher.mix(static_cast<std::uint64_t>(plan.resources.total_physical_qubits));
    hasher.mix(static_cast<std::uint64_t>(plan.resources.logical_time_rounds));
  }
  return hasher.digest();
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string tail_note(const std::string& what,
                      const std::vector<double>& latencies_ms) {
  const double tail = highest_supported_percentile(latencies_ms.size());
  char line[256];
  std::snprintf(line, sizeof line,
                "%s latency over %zu samples: p50 %.4f ms, p%g %.4f ms",
                what.c_str(), latencies_ms.size(),
                percentile(latencies_ms, 50.0), tail,
                percentile(latencies_ms, tail));
  return line;
}

void report_layers(RunReport& report, const LayerProfile& profile) {
  for (const auto& [layer, time] : profile.layers()) {
    report.set(layer + ".self_s", time.self_s);
  }
  const trace::Summary& summary = profile.summary();
  const auto spans = [&](const char* name) {
    const auto found = summary.span_counts.find(name);
    return found == summary.span_counts.end()
               ? 0.0
               : static_cast<double>(found->second);
  };
  const auto counter = [&](const char* name) {
    const auto found = summary.counters.find(name);
    return found == summary.counters.end()
               ? 0.0
               : static_cast<double>(found->second);
  };
  const auto share = [](double part, double whole) {
    return whole == 0.0 ? 0.0 : part / whole;
  };
  report.set("llm.bm25.calls", spans("bm25.query"));
  report.set("llm.generate.calls", spans("pipeline.generate"));
  report.set("llm.repair.calls", spans("pipeline.repair"));
  report.set("qasm.parse.calls", spans("analyze.parse"));
  report.set("qasm.lint.diagnostics", counter("analyze.diagnostics"));
  report.set("qasm.certify.calls", spans("verify.prove"));
  report.set("qasm.certify.proved_share",
             share(counter("verify.proved_equal"),
                   counter("verify.proved_equal") +
                       counter("verify.proved_different") +
                       counter("verify.unknown")));
  report.set("sim.exact.calls", spans("analyze.simulate"));
  // A pipeline run that needed no repair passed on its first pass, so
  // the runs a repair rescued are the passing runs less those.
  const double rescued = std::max(
      0.0, counter("pipeline.semantic_ok") -
               static_cast<double>(profile.unrepaired_runs()));
  report.set("agents.repair.useful_share",
             share(rescued, spans("pipeline.repair")));
  double pipeline_s = 0.0;
  for (const double seconds : profile.root_seconds()) pipeline_s += seconds;
  const auto own = profile.layers().find("agents.pipeline");
  report.set("agents.pipeline.overhead_share",
             own == profile.layers().end() ? 0.0
                                           : share(own->second.self_s, pipeline_s));
  report.set("eval.semantic_ok_share",
             share(counter("pipeline.semantic_ok"), counter("pipeline.trials")));
  const auto passes = summary.histograms.find("pipeline.passes_used");
  if (passes != summary.histograms.end()) {
    report.set("eval.passes_per_trial",
               share(passes->second.sum, static_cast<double>(passes->second.count)));
  }
  report.set("qec.plans", spans("qec.estimate_logical_error"));
  report.set("qec.trials", spans("qec.syndrome_extraction"));
  report.set("qec.decode.calls", spans("qec.decode"));
  report.set("qec.defects_per_decode",
             share(counter("qec.detection_events"), spans("qec.decode")));

  // The library spans with the most self time, and the lint passes.
  std::vector<std::pair<double, std::string>> heaviest, lint;
  for (const auto& [name, time] : profile.spans()) {
    heaviest.emplace_back(time.self_s, name);
    if (profile.span_layers().at(name) == "qasm.lint") {
      lint.emplace_back(time.self_s, name);
    }
  }
  const auto note_spans = [&](std::string line,
                              std::vector<std::pair<double, std::string>>& list,
                              std::size_t limit) {
    if (list.empty()) return;
    std::sort(list.rbegin(), list.rend());
    for (std::size_t i = 0; i < std::min(limit, list.size()); ++i) {
      char entry[128];
      std::snprintf(entry, sizeof entry, " %s %.4f", list[i].second.c_str(),
                    list[i].first);
      line += entry;
    }
    report.note(line);
  };
  note_spans("self time by library span (s):", heaviest, 12);
  note_spans("self time under qasm.lint by span (s):", lint, lint.size());
}

std::unique_ptr<trace::TraceSink> make_event_sink() {
  return std::make_unique<trace::TraceSink>(/*keep_events=*/true,
                                            std::size_t{1} << 23);
}

void check_sink(RunReport& report, const trace::TraceSink& sink) {
  if (sink.events_dropped() > 0) {
    report.fail("the trace sink dropped " +
                std::to_string(sink.events_dropped()) + " spans");
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return splitmix64(state);
}

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace qcgen::perfbench
