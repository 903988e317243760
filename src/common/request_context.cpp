#include "common/request_context.hpp"

namespace qcgen {

namespace {

thread_local RequestContext* t_context = nullptr;

}  // namespace

RequestContext* current_context() noexcept { return t_context; }

ContextScope::ContextScope(RequestContext* context) noexcept
    : previous_(t_context) {
  t_context = context;
}

ContextScope::~ContextScope() { t_context = previous_; }

}  // namespace qcgen
