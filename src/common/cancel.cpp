#include "common/cancel.hpp"

#include "common/request_context.hpp"
#include "common/trace.hpp"

namespace qcgen::cancel {

std::string_view cause_name(Cause cause) noexcept {
  switch (cause) {
    case Cause::kCancelled: return "cancelled";
    case Cause::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "unknown";
}

DeadlineBudget::DeadlineBudget(double total_units) {
  if (total_units > 0.0) {
    limited_ = true;
    total_ = total_units;
  }
}

void DeadlineBudget::charge(double units) {
  if (units <= 0.0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  consumed_ += units;
}

void DeadlineBudget::tighten(double extra_units) {
  if (extra_units < 0.0) extra_units = 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  const double bound = consumed_ + extra_units;
  if (!limited_ || bound < total_) {
    limited_ = true;
    total_ = bound;
  }
}

bool DeadlineBudget::limited() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limited_;
}

double DeadlineBudget::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limited_ ? total_ : 0.0;
}

double DeadlineBudget::consumed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return consumed_;
}

double DeadlineBudget::pressure() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!limited_ || total_ <= 0.0) {
    // A zero-total limited budget (tighten(0)) is infinitely pressured.
    return limited_ ? 1.0 : 0.0;
  }
  return consumed_ / total_;
}

bool DeadlineBudget::exhausted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limited_ && consumed_ >= total_;
}

DeadlineBudget* current_budget() noexcept {
  const RequestContext* context = current_context();
  return context != nullptr ? context->budget : nullptr;
}

void checkpoint(std::string_view site) {
  const RequestContext* context = current_context();
  if (context == nullptr) return;
  if (context->token.cancel_requested()) {
    trace::Metrics::counter("cancel.cancelled");
    throw CancelledError(Cause::kCancelled, std::string(site));
  }
  if (context->budget != nullptr && context->budget->exhausted()) {
    trace::Metrics::counter("cancel.deadline_exceeded");
    throw CancelledError(Cause::kDeadlineExceeded, std::string(site));
  }
}

void charge(std::string_view site, double units) {
  if (DeadlineBudget* budget = current_budget()) budget->charge(units);
  checkpoint(site);
}

double budget_pressure() noexcept {
  const DeadlineBudget* budget = current_budget();
  return budget != nullptr ? budget->pressure() : 0.0;
}

}  // namespace qcgen::cancel
