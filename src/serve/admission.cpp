#include "serve/admission.hpp"

#include <limits>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace qcgen::serve {

AdmissionOptions AdmissionOptions::unlimited() noexcept {
  AdmissionOptions options;
  options.no_rag_depth = std::numeric_limits<std::size_t>::max();
  options.static_only_depth = std::numeric_limits<std::size_t>::max();
  options.shed_depth = std::numeric_limits<std::size_t>::max();
  return options;
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  require(options_.virtual_servers >= 1,
          "AdmissionController: virtual_servers >= 1");
  require(options_.full_cost > 0.0 && options_.no_rag_cost > 0.0 &&
              options_.static_only_cost > 0.0,
          "AdmissionController: per-level costs must be positive");
  require(options_.no_rag_depth <= options_.static_only_depth &&
              options_.static_only_depth <= options_.shed_depth,
          "AdmissionController: thresholds must be non-decreasing "
          "(no_rag <= static_only <= shed)");
  for (std::size_t i = 0; i < options_.virtual_servers; ++i) {
    free_at_.push(0.0);
  }
}

void AdmissionController::advance(double now) {
  while (!outstanding_.empty() && outstanding_.top() <= now) {
    outstanding_.pop();
  }
}

AdmissionTicket AdmissionController::offer(std::uint64_t request_id,
                                           double arrival_vt) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++offered_;
  if (arrival_vt > clock_) clock_ = arrival_vt;
  advance(clock_);

  AdmissionTicket ticket;
  ticket.depth = outstanding_.size();
  if (ticket.depth >= options_.shed_depth) {
    ticket.level = AdmissionLevel::kShed;
    shed_events_.push_back({request_id, arrival_vt, ticket.depth});
    trace::Metrics::counter("serve.shed");
    return ticket;
  }
  double cost = options_.full_cost;
  if (ticket.depth >= options_.static_only_depth) {
    ticket.level = AdmissionLevel::kStaticOnly;
    cost = options_.static_only_cost;
  } else if (ticket.depth >= options_.no_rag_depth) {
    ticket.level = AdmissionLevel::kNoRag;
    cost = options_.no_rag_cost;
  }
  if (ticket.level != AdmissionLevel::kFull) {
    trace::Metrics::counter("serve.admission_degradations");
    // The rungs this level forces, in degradation-table order.
    for (std::size_t i = 0; i < agents::kStageCount; ++i) {
      const agents::StageRow& row =
          agents::stage_row(static_cast<agents::Stage>(i));
      if (row.admission.has_value() && ticket.level >= *row.admission) {
        degradations_.push_back({request_id, arrival_vt, ticket.depth,
                                 std::string(row.name), std::string(row.full),
                                 std::string(row.degraded)});
      }
    }
  }
  ++admitted_[static_cast<std::size_t>(ticket.level)];

  // Book the request onto the earliest-free model server (FCFS).
  const double server_free = free_at_.top();
  free_at_.pop();
  ticket.virtual_start = server_free > clock_ ? server_free : clock_;
  ticket.virtual_finish = ticket.virtual_start + cost;
  free_at_.push(ticket.virtual_finish);
  outstanding_.push(ticket.virtual_finish);
  return ticket;
}

std::vector<ShedEvent> AdmissionController::shed_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_events_;
}

std::vector<AdmissionDegradation> AdmissionController::degradations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degradations_;
}

std::size_t AdmissionController::offered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return offered_;
}

std::size_t AdmissionController::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_events_.size();
}

std::size_t AdmissionController::admitted_at(AdmissionLevel level) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto index = static_cast<std::size_t>(level);
  return index < 3 ? admitted_[index] : 0;
}

}  // namespace qcgen::serve
