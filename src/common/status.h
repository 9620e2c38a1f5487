// Status / Result<T> error-handling primitives in the Arrow/RocksDB idiom.
//
// Fallible operations return Status (or Result<T> for value-producing ones)
// instead of throwing. Internal invariant violations use ENSEMFDET_CHECK
// (logging.h), which aborts: a broken invariant is a bug, not an error the
// caller can handle.
#ifndef ENSEMFDET_COMMON_STATUS_H_
#define ENSEMFDET_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace ensemfdet {

/// Machine-readable error category carried by a non-OK Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kIOError,
  kFailedPrecondition,
  kNotImplemented,
  kInternal,
  kResourceExhausted,
};

/// Returns a stable human-readable name for a StatusCode ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// The outcome of a fallible operation: either OK or a code plus message.
///
/// Cheap to copy in the OK case (no allocation). Construct error statuses
/// through the named factories, e.g. `Status::InvalidArgument("bad ratio")`.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or a non-OK Status explaining its absence.
///
/// Access the value only after checking `ok()`; `ValueOrDie()` aborts on
/// error statuses and is intended for tests and examples.
template <typename T>
class Result {
 public:
  /// Implicit from a value: `return some_t;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from an error status: `return Status::IOError(...);`.
  /// An OK status carries no value; storing it would make ok() lie, so it
  /// degrades to an Internal error.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(status.ok()
                    ? Status::Internal("Result constructed from OK Status")
                    : std::move(status)) {}

  bool ok() const { return value_.has_value(); }

  /// OK when a value is held, the error otherwise.
  const Status& status() const { return status_; }

  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  /// Returns the value, aborting the process if this Result holds an error.
  const T& ValueOrDie() const&;
  T&& ValueOrDie() &&;

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

namespace internal {
/// Aborts with the status message; out-of-line to keep headers light.
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal

template <typename T>
const T& Result<T>::ValueOrDie() const& {
  if (!ok()) internal::DieOnBadResultAccess(status());
  return value();
}

template <typename T>
T&& Result<T>::ValueOrDie() && {
  if (!ok()) internal::DieOnBadResultAccess(status());
  return std::move(*this).value();
}

/// Propagates a non-OK Status to the caller (function must return Status).
#define ENSEMFDET_RETURN_NOT_OK(expr)            \
  do {                                           \
    ::ensemfdet::Status _st = (expr);            \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Evaluates a Result<T> expression, propagating error Status, else binding
/// the value to `lhs`. `lhs` may include a declaration, e.g.
/// ENSEMFDET_ASSIGN_OR_RETURN(auto g, LoadGraph(path));
#define ENSEMFDET_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  ENSEMFDET_ASSIGN_OR_RETURN_IMPL_(                                   \
      ENSEMFDET_STATUS_CONCAT_(_result, __LINE__), lhs, rexpr)

#define ENSEMFDET_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                     \
  if (!tmp.ok()) return tmp.status();                     \
  lhs = std::move(tmp).value()

#define ENSEMFDET_STATUS_CONCAT_INNER_(a, b) a##b
#define ENSEMFDET_STATUS_CONCAT_(a, b) ENSEMFDET_STATUS_CONCAT_INNER_(a, b)

}  // namespace ensemfdet

#endif  // ENSEMFDET_COMMON_STATUS_H_
