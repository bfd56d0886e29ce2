#include "common/status.h"

namespace qopt {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

Status OkStatus() { return Status(); }

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}

Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}

Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}

Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}

Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}

Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}

Status CancelledError(std::string message) {
  return Status(StatusCode::kCancelled, std::move(message));
}

Status Annotate(const Status& status, std::string_view context) {
  if (status.ok()) return status;
  std::string message(context);
  message += ": ";
  message += status.message();
  return Status(status.code(), std::move(message));
}

}  // namespace qopt
