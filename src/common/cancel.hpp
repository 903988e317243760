#pragma once
// Cooperative cancellation and virtual-time deadline budgets.
//
// The serving layer measures request progress in the same abstract
// *virtual units* the resilience layer already charges for injected
// delays and retry backoff — never the wall clock — so a deadline
// decision is bit-identical at any worker thread count. A request
// carries two pieces of lifecycle state:
//
//   * a CancellationToken: a view of a CancelSource flag flipped by
//     Server::cancel(request_id) (or a draining shutdown);
//   * a DeadlineBudget: total allowed virtual units, consumed as the
//     pipeline charges per-stage costs, injected delays and retry
//     backoff against it.
//
// Both ride on the thread's bound RequestContext
// (common/request_context.hpp) for the span of one request, so the
// pipeline stages need no extra parameters: they call checkpoint(site)
// at stage boundaries, repair-loop iterations and decoder rounds, and
// charge(site, units) as work completes. A checkpoint that observes a cancelled token or an
// exhausted budget throws CancelledError, which the serving layer turns
// into a structured kCancelled / kDeadlineExceeded outcome — never a
// hung worker or silently discarded work.
//
// budget_pressure() exposes consumed/total, so a *tight* budget can
// start stages on cheaper rungs (agents/degradation.hpp) before the
// hard deadline cancels the request outright.

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace qcgen::cancel {

/// Why a checkpoint aborted the request.
enum class Cause {
  kCancelled = 0,         ///< CancelSource::request_cancel observed
  kDeadlineExceeded = 1,  ///< DeadlineBudget exhausted
};

std::string_view cause_name(Cause cause) noexcept;

/// Thrown by checkpoint()/charge() when the bound token is cancelled
/// or the bound budget is exhausted. Carries the checkpoint site that
/// observed the condition, so outcomes stay attributable (the same
/// discipline as failpoint::InjectedFault::site).
class CancelledError : public QcgenError {
 public:
  CancelledError(Cause cause, std::string site)
      : QcgenError(std::string(cause_name(cause)) + " at " + site),
        cause_(cause),
        site_(std::move(site)) {}
  Cause cause() const noexcept { return cause_; }
  const std::string& site() const noexcept { return site_; }

 private:
  Cause cause_;
  std::string site_;
};

/// Copyable view of a CancelSource flag. A default-constructed token is
/// never cancelled (the no-server, plain-pipeline configuration).
class CancellationToken {
 public:
  CancellationToken() = default;
  bool cancel_requested() const noexcept {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancelSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Owner side of a cancellation flag. Thread-safe: request_cancel may be
/// called from any thread (Server::cancel) while the request's worker
/// polls the token at checkpoints.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  void request_cancel() noexcept {
    flag_->store(true, std::memory_order_release);
  }
  bool cancel_requested() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }
  CancellationToken token() const { return CancellationToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// A request's virtual-time work allowance. Unlimited until constructed
/// with (or tightened to) a positive total; consumption is monotone.
/// Thread-safe: the owning worker charges while a draining shutdown may
/// tighten from another thread.
class DeadlineBudget {
 public:
  /// `total_units` <= 0 constructs an unlimited budget (consumption is
  /// still tracked, so a later tighten() can bound the remainder).
  explicit DeadlineBudget(double total_units = 0.0);

  void charge(double units);

  /// Bounds the remaining work: total becomes consumed + extra_units
  /// (never *looser* than an existing limit). extra_units 0 exhausts the
  /// budget at the next checkpoint — the drain(0) "cancel the rest" path.
  void tighten(double extra_units);

  bool limited() const;
  double total() const;
  double consumed() const;
  /// consumed / total in [0, inf); 0 when unlimited.
  double pressure() const;
  bool exhausted() const;

 private:
  mutable std::mutex mutex_;
  bool limited_ = false;
  double total_ = 0.0;
  double consumed_ = 0.0;
};

/// The budget of this thread's bound RequestContext (nullptr when no
/// context is bound or it carries no deadline).
DeadlineBudget* current_budget() noexcept;

/// Cooperative cancellation point. Throws CancelledError when the
/// bound token is cancelled (Cause::kCancelled) or the bound
/// budget is exhausted (Cause::kDeadlineExceeded); otherwise a cheap
/// thread-local read. `site` names the checkpoint for attribution.
void checkpoint(std::string_view site);

/// Charges `units` of completed virtual work against the bound
/// budget (no-op without one), then checkpoints: an exhausted budget is
/// observed as soon as the work that exhausted it completes.
void charge(std::string_view site, double units);

/// consumed/total of the bound budget; 0.0 when none is bound or
/// the budget is unlimited. Degradation ladders read this to pre-degrade
/// under budget pressure before the hard deadline fires.
double budget_pressure() noexcept;

}  // namespace qcgen::cancel
