#ifndef STHSL_UTIL_STATUS_H_
#define STHSL_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace sthsl {

/// Lightweight error-status type in the RocksDB/absl style. The project
/// builds without exceptions; every fallible operation returns a `Status`
/// (or a `Result<T>`, see below) that callers must inspect.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIoError,
    kFailedPrecondition,
    kOutOfRange,
    kResourceExhausted,
    kInternal,
  };

  Status() : code_(Code::kOk) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(Code::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string for logging.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Value-or-error wrapper. `ok()` must be checked before `value()`;
/// accessing the value of a failed result aborts (see STHSL_CHECK).
template <typename T>
class Result {
 public:
  Result(T value) : status_(Status::Ok()), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {}                 // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

 private:
  Status status_;
  T value_{};
};

}  // namespace sthsl

#endif  // STHSL_UTIL_STATUS_H_
