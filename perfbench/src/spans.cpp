#include "spans.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace qcgen::perfbench {

std::vector<double> span_self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of child intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    out[i] = static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return out;
}

std::vector<Span> nest(const std::vector<trace::SpanEvent>& events) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const trace::SpanEvent& x = events[a];
    const trace::SpanEvent& y = events[b];
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.depth < y.depth;
  });
  std::vector<Span> spans;
  spans.reserve(events.size());
  std::vector<int> open;  // indices into spans, by increasing depth
  for (const std::size_t index : order) {
    const trace::SpanEvent& event = events[index];
    while (!open.empty() &&
           events[order[static_cast<std::size_t>(open.back())]].depth >=
               event.depth) {
      open.pop_back();
    }
    Span span;
    span.name = event.name;
    span.start_ns = static_cast<std::int64_t>(event.start_ns);
    span.end_ns = static_cast<std::int64_t>(event.start_ns + event.duration_ns);
    span.parent = open.empty() ? -1 : open.back();
    spans.push_back(std::move(span));
    open.push_back(static_cast<int>(spans.size() - 1));
  }
  return spans;
}

std::string_view layer_of(std::string_view span_name) {
  static constexpr std::pair<std::string_view, std::string_view> kLayers[] = {
      {"pipeline.run", "agents.pipeline"},
      {"pipeline.generate", "llm.generate"},
      {"pipeline.repair", "llm.repair"},
      {"bm25.query", "llm.bm25"},
      {"pipeline.analyze", "agents.analyze"},
      {"analyze.parse", "qasm.parse"},
      {"analyze.resources", "qasm.resources"},
      {"analyze.lint", "qasm.lint"},
      {"lint.abstract-interpret", "qasm.absint"},
      {"analyze.lower", "qasm.lower"},
      {"verify.prove", "qasm.certify"},
      {"pipeline.verify", "agents.verify"},
      {"analyze.simulate", "sim.exact"},
      {"analyze.judge", "agents.judge"},
      {"pipeline.qec_plan", "qec.plan"},
      {"qec.plan_for", "qec.plan"},  // qec-sweep's span around plan_for
      {"qec.estimate_logical_error", "qec.plan"},
      {"qec.syndrome_extraction", "qec.sample"},
      {"qec.decode", "qec.decode"},
  };
  for (const auto& [span, layer] : kLayers) {
    if (span == span_name) return layer;
  }
  return {};
}

void LayerProfile::add(std::span<const trace::SpanEvent> events,
                       const trace::Summary& summary) {
  std::vector<trace::SpanEvent> tree;
  for (const trace::SpanEvent& event : events) {
    tree.push_back(event);
    if (event.depth == 0) {
      add_tree(tree);
      tree.clear();
    }
  }
  if (!tree.empty()) {
    throw std::runtime_error(std::to_string(tree.size()) +
                             " trace spans have no top-level span");
  }
  summary_.merge(summary);
}

void LayerProfile::add_tree(const std::vector<trace::SpanEvent>& events) {
  const std::vector<Span> spans = nest(events);
  const std::vector<double> self = span_self_seconds(spans);
  // A span outside every named layer reports under its parent's layer;
  // a top-level one under its own name.
  std::vector<std::string> layer(spans.size());
  bool repaired = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view named = layer_of(spans[i].name);
    if (!named.empty()) {
      layer[i] = named;
    } else if (spans[i].parent >= 0) {
      layer[i] = layer[static_cast<std::size_t>(spans[i].parent)];
    } else {
      layer[i] = spans[i].name;
    }
    if (spans[i].name == "pipeline.repair") repaired = true;
    LayerTime& by_layer = layers_[layer[i]];
    ++by_layer.calls;
    by_layer.self_s += self[i];
    span_layers_.emplace(spans[i].name, layer[i]);
    LayerTime& by_span = spans_[spans[i].name];
    ++by_span.calls;
    by_span.self_s += self[i];
  }
  const Span& root = spans.front();
  root_seconds_.push_back(static_cast<double>(root.end_ns - root.start_ns) *
                          1e-9);
  if (root.name == "pipeline.run" && !repaired) ++unrepaired_runs_;
}

trace::Summary summary_delta(const trace::Summary& after,
                             const trace::Summary& before) {
  trace::Summary out = after;
  for (const auto& [name, n] : before.span_counts) out.span_counts[name] -= n;
  for (const auto& [name, v] : before.counters) out.counters[name] -= v;
  for (auto& [name, histogram] : out.histograms) {
    const auto found = before.histograms.find(name);
    if (found != before.histograms.end()) {
      histogram.count -= found->second.count;
      histogram.sum -= found->second.sum;
    }
    histogram.min = 0.0;
    histogram.max = 0.0;
  }
  return out;
}

}  // namespace qcgen::perfbench
