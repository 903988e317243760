#pragma once
// Per-layer figures for the traced run, reduced from the spans and
// counters the library itself records. The benchmark installs a
// trace::TraceSink that keeps its events (through RunnerOptions::trace,
// Server::Options::trace or a SinkScope); nothing inside src/ changes.
// Each top-level span (a trial's or request's pipeline.run, or a plan)
// and the spans below it are rebuilt into a tree from their start times
// and nesting depths, every span is attributed to a layer, and each
// layer's self time is summed.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.hpp"

namespace qcgen::perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// Calls and self time of one layer or span name.
struct LayerTime {
  std::size_t calls = 0;
  double self_s = 0.0;
};

/// Self time of each span, in seconds: its duration minus the part of it
/// covered by the union of its children's intervals (children may
/// overlap each other; coverage outside the parent is clipped).
std::vector<double> span_self_seconds(const std::vector<Span>& spans);

/// Rebuilds the nesting of spans that one thread recorded, in any order:
/// sorted by start time (the shallower first on a tie), each span's
/// parent is the latest earlier span of smaller depth still open.
std::vector<Span> nest(const std::vector<trace::SpanEvent>& events);

/// Layer a library span reports under: "qasm.parse" for analyze.parse,
/// and so on. Empty for spans that belong to their parent's layer, such
/// as the individual lint passes under analyze.lint.
std::string_view layer_of(std::string_view span_name);

/// Per-layer self times and the library's counters over every sink
/// folded in.
class LayerProfile {
 public:
  /// Folds in spans in the order a sink keeps them: each top-level span
  /// follows the spans recorded under it, as the per-trial and
  /// per-request sinks merged by the runner and the server leave them.
  /// Throws when spans remain with no top-level span after them.
  void add(std::span<const trace::SpanEvent> events,
           const trace::Summary& summary);

  /// Self time and span count per layer.
  const std::map<std::string, LayerTime>& layers() const { return layers_; }
  /// Self time and span count per library span name.
  const std::map<std::string, LayerTime>& spans() const { return spans_; }
  /// Layer each library span name was attributed to.
  const std::map<std::string, std::string>& span_layers() const {
    return span_layers_;
  }
  const trace::Summary& summary() const { return summary_; }
  /// Duration of each top-level span, in the order folded in.
  const std::vector<double>& root_seconds() const { return root_seconds_; }
  /// Pipeline runs that needed no repair.
  std::size_t unrepaired_runs() const { return unrepaired_runs_; }

 private:
  void add_tree(const std::vector<trace::SpanEvent>& events);

  std::map<std::string, LayerTime> layers_;
  std::map<std::string, LayerTime> spans_;
  std::map<std::string, std::string> span_layers_;
  trace::Summary summary_;
  std::vector<double> root_seconds_;
  std::size_t unrepaired_runs_ = 0;
};

/// `after` minus `before` for the span counts, counters and histogram
/// counts and sums of a sink's summary (histogram min/max are dropped).
trace::Summary summary_delta(const trace::Summary& after,
                             const trace::Summary& before);

}  // namespace qcgen::perfbench
