#pragma once
// Error handling primitives shared across qcgen libraries.
//
// Library-level failures throw QcgenError (or a subclass); expected,
// recoverable outcomes — e.g. "this generated program failed to parse" —
// are modelled as values (see qasm::Diagnostic), never as exceptions.

#include <stdexcept>
#include <string>
#include <string_view>

namespace qcgen {

/// Root exception for all qcgen failures.
class QcgenError : public std::runtime_error {
 public:
  explicit QcgenError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an API is called with arguments violating its preconditions.
class InvalidArgumentError : public QcgenError {
 public:
  explicit InvalidArgumentError(const std::string& what) : QcgenError(what) {}
};

/// Thrown when a simulator or decoder hits an internal invariant violation.
class InternalError : public QcgenError {
 public:
  explicit InternalError(const std::string& what) : QcgenError(what) {}
};

// The helpers take a string_view so that a passing check with a literal
// message builds no std::string (and allocates nothing) on hot paths.

/// Precondition helper: throws InvalidArgumentError when cond is false.
inline void require(bool cond, std::string_view message) {
  if (!cond) throw InvalidArgumentError(std::string(message));
}

/// Invariant helper: throws InternalError when cond is false.
inline void ensure(bool cond, std::string_view message) {
  if (!cond) throw InternalError(std::string(message));
}

}  // namespace qcgen
