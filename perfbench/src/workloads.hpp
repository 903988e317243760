#pragma once
// The benchmark's four workloads and the report each run produces.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agents/pipeline.hpp"
#include "arith.hpp"
#include "spans.hpp"

namespace qcgen::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Outcome of one run: the output checks, the operation counts and the
/// metrics by name. Unset metrics of the run's metric set print as 0.
struct RunReport {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Deterministic digest of the run's outputs (hex), compared against
  /// the committed reference for the reference seeds.
  std::string fingerprint;
  std::map<std::string, double> values;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void fail(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
  void set(const std::string& name, double value) { values[name] = value; }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics of an untraced run (every workload reports all of them).
const std::vector<MetricSpec>& end_to_end_metrics();
/// The metrics of a traced run; 0 where a layer does no work.
const std::vector<MetricSpec>& per_layer_metrics();

RunReport run_eval_matrix(const RunOptions& options);
RunReport run_qec_sweep(const RunOptions& options);
RunReport run_serving(const RunOptions& options, bool cached);

// ---- shared helpers ------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// 64-bit digest of the fields of a pipeline outcome the output checks
/// compare: verdicts, passes, program text and the QEC plan.
std::uint64_t pipeline_digest(const agents::PipelineResult& result);

std::string hex(std::uint64_t value);

/// "<what> latency over N samples: p50 .. ms, p<highest supported> .. ms";
/// the tail is logged, not gated (see README.md).
std::string tail_note(const std::string& what,
                      const std::vector<double>& latencies_ms);

/// Fills the per-layer metrics derived from the library's spans and
/// counters, and notes the spans with the most self time.
void report_layers(RunReport& report, const LayerProfile& profile);

/// A trace sink that keeps every span the traced runs record.
std::unique_ptr<trace::TraceSink> make_event_sink();

/// Fails the run when `sink` dropped events.
void check_sink(RunReport& report, const trace::TraceSink& sink);

/// Derives a distinct seed for item `index` of a workload.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Threads the machine offers.
std::size_t hardware_threads();

}  // namespace qcgen::perfbench
