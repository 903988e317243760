// Tests of the benchmark's own arithmetic: percentiles and the
// percentile a sample supports, self time under overlapping child
// spans, nesting and layers rebuilt from trace events, and output
// fingerprints at one thread against all threads.
// Build with the benchmark (target perfbench_tests) and run the binary;
// it exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "arith.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace qcgen;
using namespace qcgen::perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  expect(near(percentile({3.0, 1.0, 2.0}, 50.0), 2.0), "median of 3");
  expect(near(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5), "median of 4");
  expect(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 90.0), 4.6),
         "p90 interpolates between closest ranks");
  expect(near(percentile({7.0}, 99.0), 7.0), "single sample");
  expect(percentile({}, 50.0) == 0.0, "empty sample");
}

void test_supported_percentile() {
  expect(samples_beyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  expect(samples_beyond(999, 99.0) == 9, "999 samples: 9 beyond p99");
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples -> p99");
  expect(highest_supported_percentile(999) == 95.0, "999 samples -> p95");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples -> p99.9");
  expect(highest_supported_percentile(100) == 90.0, "100 samples -> p90");
  expect(highest_supported_percentile(99) == 50.0, "99 samples -> p50");
  expect(highest_supported_percentile(19) == 0.0, "19 samples -> none");
  expect(highest_supported_percentile(20) == 50.0, "20 samples -> p50");
}

Span span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // Parent [0, 100); children [10, 40) and [30, 60) overlap (they ran on
  // two threads), and [90, 120) runs past the parent's end. Covered:
  // [10, 60) + [90, 100) = 60, so the parent's self time is 40.
  std::vector<double> self = span_self_seconds(
      {span("parent", 0, 100, -1), span("child", 10, 40, 0),
       span("child", 30, 60, 0), span("child", 90, 120, 0),
       span("grandchild", 15, 25, 1)});
  expect(near(self[0], 40e-9), "parent self time");
  expect(near(self[1], 20e-9), "child minus its grandchild");
  expect(near(self[2], 30e-9) && near(self[3], 30e-9), "leaf children");
  expect(near(self[4], 10e-9), "leaf self time");

  // A child nested entirely in an earlier sibling adds no coverage.
  self = span_self_seconds({span("p", 0, 50, -1), span("c", 5, 45, 0),
                            span("c", 10, 20, 0)});
  expect(near(self[0], 10e-9), "nested siblings covered once");
}

trace::SpanEvent event(const char* name, std::uint64_t start,
                       std::uint64_t end, std::uint16_t depth) {
  return trace::SpanEvent{name, start, end - start, 0, depth};
}

void test_nesting_from_events() {
  // Close order, as a sink keeps them: children before their parent.
  // A child starting at its parent's start nests under it (depth breaks
  // the tie); siblings at one depth are not each other's parents.
  const std::vector<trace::SpanEvent> events = {
      event("a", 100, 130, 1), event("a.x", 140, 150, 2),
      event("b", 140, 170, 1), event("root", 100, 200, 0)};
  const std::vector<Span> spans = nest(events);
  expect(spans.size() == 4, "every event nested");
  expect(spans[0].name == "root" && spans[0].parent == -1, "root first");
  expect(spans[1].name == "a" && spans[1].parent == 0, "tie goes to depth");
  expect(spans[2].name == "a.x" || spans[2].name == "b", "start order");
  for (const Span& s : spans) {
    if (s.name == "b") expect(s.parent == 0, "sibling under the root");
    if (s.name == "a.x") {
      expect(spans[static_cast<std::size_t>(s.parent)].name == "b",
             "child of the span open at its start at the depth above");
    }
  }
}

void test_layer_profile() {
  // Two pipeline runs. The first repairs once; the lint pass span has no
  // layer of its own and reports under analyze.lint's qasm.lint.
  std::vector<trace::SpanEvent> events = {
      event("bm25.query", 10, 20, 2),
      event("pipeline.generate", 5, 30, 1),
      event("dataflow.dead-code", 40, 45, 3),
      event("analyze.lint", 35, 50, 2),
      event("pipeline.analyze", 32, 55, 1),
      event("pipeline.repair", 60, 80, 1),
      event("pipeline.run", 0, 100, 0),
      event("pipeline.generate", 200, 220, 1),
      event("pipeline.run", 200, 230, 0)};
  trace::Summary summary;
  summary.counters["pipeline.semantic_ok"] = 2;
  summary.span_counts["pipeline.repair"] = 1;
  LayerProfile profile;
  profile.add(events, summary);
  const auto& layers = profile.layers();
  expect(near(layers.at("llm.bm25").self_s, 10e-9), "bm25 self");
  expect(near(layers.at("llm.generate").self_s, (15 + 20) * 1e-9),
         "generate self excludes retrieval");
  expect(near(layers.at("qasm.lint").self_s, 15e-9),
         "lint pass spans report under qasm.lint");
  expect(near(layers.at("agents.analyze").self_s, 8e-9), "analyze self");
  expect(near(layers.at("agents.pipeline").self_s, (32 + 10) * 1e-9),
         "pipeline self");
  expect(profile.root_seconds().size() == 2 &&
             near(profile.root_seconds()[0], 100e-9),
         "one root per run, in order");
  expect(profile.unrepaired_runs() == 1, "one run needed no repair");

  RunReport report;
  report_layers(report, profile);
  expect(near(report.values["agents.repair.useful_share"], 1.0),
         "the repaired run passed");

  bool threw = false;
  try {
    profile.add(std::vector<trace::SpanEvent>{event("x", 0, 1, 1)}, {});
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "spans with no top-level span are an error");
}

void test_summary_delta() {
  trace::Summary before, after;
  before.counters["c"] = 3;
  after.counters["c"] = 10;
  before.histograms["h"].observe(1.0);
  after.histograms["h"].observe(1.0);
  after.histograms["h"].observe(3.0);
  const trace::Summary delta = summary_delta(after, before);
  expect(delta.counters.at("c") == 7, "counter delta");
  expect(delta.histograms.at("h").count == 1 &&
             near(delta.histograms.at("h").sum, 3.0),
         "histogram delta");
}

void test_fingerprint_thread_invariance() {
  // A small operation count: 6 cases x 2 samples of the ft+rag technique
  // with the repair loop, at 1 thread and at every hardware thread.
  auto suite = eval::semantic_suite();
  suite.resize(6);
  auto technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  technique.max_passes = 3;
  eval::RunnerOptions runner;
  runner.samples_per_case = 2;
  runner.seed = 11;
  runner.threads = 1;
  const eval::TrialMatrix one = eval::run_trial_matrix(technique, suite, 2, runner);
  runner.threads = hardware_threads();
  const eval::TrialMatrix all = eval::run_trial_matrix(technique, suite, 2, runner);
  bool same = one.trials.size() == all.trials.size();
  for (std::size_t i = 0; same && i < one.trials.size(); ++i) {
    same = pipeline_digest(one.trials[i].pipeline) ==
           pipeline_digest(all.trials[i].pipeline);
  }
  expect(same, "trial digests equal at 1 thread and all threads");
}

}  // namespace

int main() {
  test_percentiles();
  test_supported_percentile();
  test_self_time();
  test_nesting_from_events();
  test_layer_profile();
  test_summary_delta();
  test_fingerprint_thread_invariance();
  if (failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
