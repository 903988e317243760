#pragma once
// The per-unit execution context: the fail-point injector, cancellation
// token, deadline budget and cache (tag, sequence) one trial or served
// request carries down the pipeline. failpoint::check/trip,
// cancel::checkpoint/charge and recording caches read the context bound
// to the calling thread, so library code takes no extra parameters.
// eval::run_unit binds it around every unit; trace::SinkScope stays a
// separate binding (benches bind their sink outside any unit).

#include <cstdint>

#include "common/cancel.hpp"

namespace qcgen {

namespace failpoint {
class Injector;
}  // namespace failpoint

struct RequestContext {
  failpoint::Injector* injector = nullptr;  ///< null: every site dormant
  cancel::CancellationToken token{};        ///< default: never cancelled
  cancel::DeadlineBudget* budget = nullptr;  ///< null: no deadline
  std::uint64_t cache_tag = 0;  ///< e.g. the request id
  std::uint64_t cache_seq = 0;  ///< lookups recorded under cache_tag
};

/// The context bound on this thread (nullptr outside any ContextScope).
RequestContext* current_context() noexcept;

/// RAII: binds `context` (may be null) to this thread and restores the
/// previous binding on destruction.
class ContextScope {
 public:
  explicit ContextScope(RequestContext* context) noexcept;
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  RequestContext* previous_;
};

}  // namespace qcgen
