#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace qopt {

/// Recoverable-error layer. Boundary code that processes external input
/// (workload files, CLI flags, backend dispatch) reports failures through
/// `Status` / `StatusOr<T>` instead of aborting; `QOPT_CHECK` remains
/// reserved for genuine internal invariants (see "Error handling contract"
/// in DESIGN.md).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< Caller-supplied input is malformed.
  kNotFound,            ///< A named resource (file, key) does not exist.
  kOutOfRange,          ///< A value falls outside its documented domain.
  kFailedPrecondition,  ///< The operation cannot run in the current state.
  kResourceExhausted,   ///< A size/budget limit would be exceeded.
  kUnavailable,         ///< A best-effort step failed (e.g. no embedding).
  kInternal,            ///< Invariant violation surfaced as an error.
  kDeadlineExceeded,    ///< The wall-clock budget ran out mid-operation.
  kCancelled,           ///< A CancelToken fired; the caller gave up.
};

/// Readable upper-snake name ("INVALID_ARGUMENT", ...).
std::string_view StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  /// Default-constructed status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    QOPT_CHECK_MSG(code != StatusCode::kOk || message_.empty(),
                   "OK status carries no message");
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  /// Explicitly discards the status — documents call sites that
  /// intentionally drop it despite [[nodiscard]].
  void IgnoreError() const {}

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status OutOfRangeError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnavailableError(std::string message);
Status InternalError(std::string message);
Status DeadlineExceededError(std::string message);
Status CancelledError(std::string message);

/// Returns `status` with "<context>: " prefixed to its message (OK passes
/// through untouched). Used to add file / field context while an error
/// propagates outward.
Status Annotate(const Status& status, std::string_view context);

/// Result-or-error. Exactly one of the two is held: either an engaged
/// value (and an OK status) or a non-OK status. Accessing the value of an
/// errored StatusOr is a programming error and aborts.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from an error status (must not be OK).
  StatusOr(Status status) : status_(std::move(status)) {
    QOPT_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }
  /// Implicit from a value.
  StatusOr(T value) : value_(std::move(value)) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    QOPT_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T& value() & {
    QOPT_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T&& value() && {
    QOPT_CHECK_MSG(ok(), status_.ToString().c_str());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// value() when ok, `fallback` otherwise.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;  // OK iff value_ is engaged.
  std::optional<T> value_;
};

}  // namespace qopt

/// Propagates a non-OK Status out of the calling function.
#define QOPT_RETURN_IF_ERROR(expr)                 \
  do {                                             \
    ::qopt::Status qopt_status_tmp_ = (expr);      \
    if (!qopt_status_tmp_.ok()) {                  \
      return qopt_status_tmp_;                     \
    }                                              \
  } while (0)

#define QOPT_STATUS_CONCAT_INNER_(a, b) a##b
#define QOPT_STATUS_CONCAT_(a, b) QOPT_STATUS_CONCAT_INNER_(a, b)

/// Evaluates a StatusOr expression; on error returns its Status, on
/// success assigns the value to `lhs` (which may declare a new variable):
///   QOPT_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(text));
#define QOPT_ASSIGN_OR_RETURN(lhs, expr) \
  QOPT_ASSIGN_OR_RETURN_IMPL_(           \
      QOPT_STATUS_CONCAT_(qopt_statusor_, __LINE__), lhs, expr)

#define QOPT_ASSIGN_OR_RETURN_IMPL_(statusor, lhs, expr) \
  auto statusor = (expr);                                \
  if (!statusor.ok()) {                                  \
    return statusor.status();                            \
  }                                                      \
  lhs = std::move(statusor).value();
