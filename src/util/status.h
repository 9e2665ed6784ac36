// Structured error propagation for recoverable failures.
//
// The Pandia libraries distinguish two failure classes:
//
//   * programmer errors (violated invariants, impossible states) keep using
//     PANDIA_CHECK (src/util/check.h) and abort;
//   * recoverable conditions — malformed description files, implausible
//     measurements, user-supplied flags and placements — surface as a
//     `Status` (or a `StatusOr<T>` when a value is produced) that names the
//     offending field, file, or parameter so CLI front-ends can report it
//     and continue or exit cleanly.
//
// The libraries do not use exceptions; Status is a plain value type.
#ifndef PANDIA_SRC_UTIL_STATUS_H_
#define PANDIA_SRC_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace pandia {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     // malformed or out-of-range input
  kNotFound,            // missing file, unknown name
  kFailedPrecondition,  // valid input that the current state cannot accept
  kDataLoss,            // truncated/corrupted data
  kUnavailable,         // transient failure (e.g. an injected run crash)
  kInternal,            // everything else recoverable
};

const char* StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  // Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Holds either a T or a non-OK Status. Accessing the value of an errored
// StatusOr is a programmer error (PANDIA_CHECK).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Implicit from a value or from a non-OK Status, so functions can
  // `return value;` and `return Status::InvalidArgument(...);` alike.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    PANDIA_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK without a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    PANDIA_CHECK_MSG(ok(), status_.message().c_str());
    return *value_;
  }
  T& value() & {
    PANDIA_CHECK_MSG(ok(), status_.message().c_str());
    return *value_;
  }
  T&& value() && {
    PANDIA_CHECK_MSG(ok(), status_.message().c_str());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace pandia

// Early-returns the contained error from the enclosing Status-returning
// function. `expr` is evaluated once.
#define PANDIA_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::pandia::Status pandia_status_tmp_ = (expr);     \
    if (!pandia_status_tmp_.ok()) {                   \
      return pandia_status_tmp_;                      \
    }                                                 \
  } while (false)

#endif  // PANDIA_SRC_UTIL_STATUS_H_
