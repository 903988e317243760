// eval-matrix: the Fig 3 technique matrix (base, fine-tuned, ft+rag,
// ft+cot, ft+scot) over the 100-prompt semantic suite, run through
// eval::evaluate_technique on a trial scheduler with one thread per
// hardware thread and no QEC. Every technique runs the pipeline's repair
// loop (3 passes, the serving setting), so generation, parse, lint,
// simulation, judging, repair and certification all do work; BM25 runs
// only in the ft+rag fifth.

#include <memory>

#include "agents/technique_resources.hpp"
#include "common/cache/hash.hpp"
#include "eval/parallel.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "workloads.hpp"

namespace qcgen::perfbench {

namespace {

constexpr std::size_t kSamplesPerCase = 4;
constexpr int kMaxPasses = 3;
constexpr std::size_t kSetupRepeats = 9;

std::vector<agents::TechniqueConfig> techniques() {
  const auto profile = llm::ModelProfile::kStarCoder3B;
  std::vector<agents::TechniqueConfig> out = {
      agents::TechniqueConfig::base(profile),
      agents::TechniqueConfig::fine_tuned_only(profile),
      agents::TechniqueConfig::with_rag(profile),
      agents::TechniqueConfig::with_cot(profile),
      agents::TechniqueConfig::with_scot(profile),
  };
  for (auto& technique : out) technique.max_passes = kMaxPasses;
  return out;
}

/// Digest of the accuracy figures of one technique's report.
std::uint64_t report_digest(const eval::AccuracyReport& report) {
  cache::KeyHasher hasher;
  hasher.mix(report.label);
  hasher.mix(static_cast<std::uint64_t>(report.cases));
  hasher.mix(report.syntactic_rate).mix(report.semantic_rate);
  hasher.mix(report.mean_passes_used).mix(report.completed_rate);
  for (const auto& [tier, rate] : report.semantic_by_tier) {
    hasher.mix(static_cast<std::uint64_t>(tier)).mix(rate);
  }
  return hasher.digest();
}

struct SetupTimes {
  double resources_s = 0.0;
  double oracle_s = 0.0;
};

/// Builds the shared state of the matrix, every technique's resources and
/// the suite's reference distributions, and returns how long each took.
/// evaluate_technique builds the same state again on every call.
SetupTimes time_setup(const std::vector<agents::TechniqueConfig>& configs,
                      const std::vector<eval::TestCase>& suite) {
  SetupTimes times;
  const auto start = Clock::now();
  std::vector<std::shared_ptr<const agents::TechniqueResources>> resources;
  for (const auto& config : configs) {
    resources.push_back(std::make_shared<const agents::TechniqueResources>(config));
  }
  times.resources_s = seconds_since(start);
  const auto oracle_start = Clock::now();
  eval::ReferenceOracle oracle;
  oracle.prewarm(suite);
  times.oracle_s = seconds_since(oracle_start);
  return times;
}

/// One matrix pass through the library; returns the digest of its
/// reports and appends each call's latency.
std::uint64_t library_pass(const std::vector<agents::TechniqueConfig>& configs,
                           const std::vector<eval::TestCase>& suite,
                           const eval::RunnerOptions& runner,
                           std::vector<double>* latencies_ms,
                           RunReport& report) {
  cache::KeyHasher hasher;
  for (const auto& config : configs) {
    const auto start = Clock::now();
    const eval::AccuracyReport result =
        eval::evaluate_technique(config, suite, runner);
    if (latencies_ms != nullptr) {
      latencies_ms->push_back(seconds_since(start) * 1e3);
    }
    const std::size_t trials = suite.size() * kSamplesPerCase;
    report.attempted += trials;
    report.failed += result.trial_failures.size();
    hasher.mix(report_digest(result));
  }
  return hasher.digest();
}

}  // namespace

RunReport run_eval_matrix(const RunOptions& options) {
  RunReport report;
  const auto configs = techniques();
  const auto suite = eval::semantic_suite();
  const std::size_t threads = hardware_threads();

  std::vector<double> setup_s, resources_s, oracle_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const SetupTimes times = time_setup(configs, suite);
    setup_s.push_back(times.resources_s + times.oracle_s);
    resources_s.push_back(times.resources_s);
    oracle_s.push_back(times.oracle_s);
  }

  eval::RunnerOptions runner;
  runner.samples_per_case = kSamplesPerCase;
  runner.seed = options.seed;
  runner.threads = threads;
  const std::size_t trials_per_pass =
      configs.size() * suite.size() * kSamplesPerCase;
  report.note("eval-matrix: " + std::to_string(configs.size()) +
              " techniques x " + std::to_string(suite.size()) + " cases x " +
              std::to_string(kSamplesPerCase) + " samples, " +
              std::to_string(threads) + " scheduler threads");

  if (!options.trace) {
    std::vector<double> latencies_ms;
    std::vector<double> pass_rates;
    std::uint64_t first = 0;
    const auto start = Clock::now();
    do {
      const auto pass_start = Clock::now();
      const std::uint64_t digest =
          library_pass(configs, suite, runner, &latencies_ms, report);
      pass_rates.push_back(trials_per_pass / seconds_since(pass_start));
      if (pass_rates.size() == 1) first = digest;
      if (digest != first) report.fail("eval-matrix: pass outputs differ");
    } while (seconds_since(start) < options.seconds);
    report.fingerprint = hex(first);
    report.set("setup_s", percentile(setup_s, 50.0));
    // The median pass rate: one slow pass (a descheduled worker) moves it
    // less than it moves the total.
    report.set("ops_per_s", percentile(pass_rates, 50.0));
    report.set("latency_p50_ms", percentile(latencies_ms, 50.0));
    report.note(tail_note("evaluate_technique", latencies_ms));
    return report;
  }

  // Traced run, technique by technique, alternating so that no variant
  // runs on a colder machine: the library untraced at the scheduler's
  // thread count, untraced at one thread, and at one thread with an
  // event-keeping trace sink. The per-layer figures come from the spans
  // and counters the library records into that sink.
  report.set("setup.resources_s", percentile(resources_s, 50.0));
  report.set("setup.oracle_s", percentile(oracle_s, 50.0));
  eval::RunnerOptions single = runner;
  single.threads = 1;
  LayerProfile profile;
  cache::KeyHasher parallel_hasher, single_hasher, traced_hasher;
  double parallel_s = 0.0, single_s = 0.0, traced_s = 0.0;
  for (const auto& config : configs) {
    auto start = Clock::now();
    const eval::AccuracyReport parallel =
        eval::evaluate_technique(config, suite, runner);
    parallel_s += seconds_since(start);
    parallel_hasher.mix(report_digest(parallel));

    start = Clock::now();
    const eval::AccuracyReport one_thread =
        eval::evaluate_technique(config, suite, single);
    single_s += seconds_since(start);
    single_hasher.mix(report_digest(one_thread));

    const auto sink = make_event_sink();
    eval::RunnerOptions traced = single;
    traced.trace = sink.get();
    start = Clock::now();
    const eval::AccuracyReport result =
        eval::evaluate_technique(config, suite, traced);
    traced_s += seconds_since(start);
    traced_hasher.mix(report_digest(result));
    for (const auto* run : {&parallel, &one_thread, &result}) {
      report.failed += run->trial_failures.size();
    }
    check_sink(report, *sink);
    profile.add(sink->events(), sink->summary());
  }
  report.attempted += 3 * trials_per_pass;
  const std::uint64_t untraced = parallel_hasher.digest();
  report.fingerprint = hex(untraced);
  if (single_hasher.digest() != untraced) {
    report.fail("eval-matrix: 1-thread outputs differ from " +
                std::to_string(threads) + "-thread outputs");
  }
  if (traced_hasher.digest() != untraced) {
    report.fail("eval-matrix: traced outputs differ from untraced outputs");
  }
  if (profile.root_seconds().size() != trials_per_pass) {
    report.fail("eval-matrix: " + std::to_string(profile.root_seconds().size()) +
                " traced pipeline runs for " + std::to_string(trials_per_pass) +
                " trials");
  }
  report_layers(report, profile);
  report.set("eval.scheduler.scaling_efficiency",
             single_s / (static_cast<double>(threads) * parallel_s));
  report.set("trace.overhead_share", traced_s / single_s - 1.0);
  report.note("pass times: " + std::to_string(parallel_s) + " s at " +
              std::to_string(threads) + " threads, " +
              std::to_string(single_s) + " s at 1 thread, " +
              std::to_string(traced_s) + " s at 1 thread traced");
  return report;
}

}  // namespace qcgen::perfbench
