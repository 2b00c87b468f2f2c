#ifndef ECDB_COMMON_STATUS_H_
#define ECDB_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace ecdb {

/// Error taxonomy for operations across the platform. The set is small on
/// purpose: callers branch on a handful of recoverable conditions (e.g.
/// `kConflict` drives NO_WAIT aborts) and treat the rest as failures.
enum class Code : uint8_t {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kConflict,       // lock conflict; transaction must abort (NO_WAIT)
  kAborted,        // transaction aborted (by protocol or CC)
  kBlocked,        // commit protocol cannot make progress (2PC blocking)
  kTimedOut,
  kInvalidArgument,
  kIOError,
  kUnavailable,    // node crashed or unreachable
  kInternal,
};

/// Result of an operation: a code plus an optional human-readable message.
/// Mirrors the RocksDB/Arrow `Status` idiom; functions that can fail return
/// `Status` (or `Result<T>`) instead of throwing.
class Status {
 public:
  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg = "") {
    return Status(Code::kAlreadyExists, std::move(msg));
  }
  static Status Conflict(std::string msg = "") {
    return Status(Code::kConflict, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status Blocked(std::string msg = "") {
    return Status(Code::kBlocked, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsConflict() const { return code_ == Code::kConflict; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsBlocked() const { return code_ == Code::kBlocked; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders e.g. "Conflict: lock held by txn 7" or "OK".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// A value or an error. `Result<T>` is the return type of fallible functions
/// that produce a value; check `ok()` before calling `value()`.
template <typename T>
class Result {
 public:
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {                 // NOLINT
    assert(!status_.ok() && "Result from Status requires an error");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace ecdb

#endif  // ECDB_COMMON_STATUS_H_
