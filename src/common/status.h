// Status / Result error-handling primitives for the fmds library.
//
// Library code does not throw: fallible operations return Status (no payload)
// or Result<T> (payload or error). Mirrors absl::Status in spirit but is
// self-contained so the library has no third-party runtime dependencies.
#ifndef FMDS_SRC_COMMON_STATUS_H_
#define FMDS_SRC_COMMON_STATUS_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace fmds {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kUnavailable,
  kResourceExhausted,
  kAborted,
  kInternal,
  kUnimplemented,
  // A memory node's congestion front end shed the operation (bounded
  // service queue overflow, DESIGN.md §14). Retryable: backoff lets the
  // node drain; see RetryPolicy and FarClient::set_retry_policy.
  kOverloaded,
};

// Human-readable name for a status code ("OK", "NOT_FOUND", ...).
std::string_view StatusCodeName(StatusCode code);

// A success-or-error value. Cheap to copy on the success path (no allocation);
// error statuses carry a code and an optional message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}
  explicit Status(StatusCode code) : code_(code) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or e.g. "NOT_FOUND: key 17 missing".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status OutOfRange(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status Unavailable(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status Aborted(std::string msg) {
  return Status(StatusCode::kAborted, std::move(msg));
}
inline Status Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status Unimplemented(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status Overloaded(std::string msg) {
  return Status(StatusCode::kOverloaded, std::move(msg));
}

// Result<T>: either a value of type T or an error Status. Accessing value()
// on an error result asserts in debug builds and is undefined in release.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}                  // NOLINT
  Result(Status status) : status_(std::move(status)) {           // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  // value() if ok, otherwise `fallback`.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagate errors: RETURN_IF_ERROR(expr) where expr yields a Status.
#define FMDS_RETURN_IF_ERROR(expr)              \
  do {                                          \
    ::fmds::Status fmds_status_ = (expr);       \
    if (!fmds_status_.ok()) {                   \
      return fmds_status_;                      \
    }                                           \
  } while (false)

// Assign-or-return for Result<T>:
//   FMDS_ASSIGN_OR_RETURN(auto v, SomeResultReturningCall());
#define FMDS_ASSIGN_OR_RETURN(decl, expr)       \
  FMDS_ASSIGN_OR_RETURN_IMPL_(                  \
      FMDS_STATUS_CONCAT_(fmds_result_, __LINE__), decl, expr)
#define FMDS_ASSIGN_OR_RETURN_IMPL_(tmp, decl, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) {                                   \
    return tmp.status();                             \
  }                                                  \
  decl = std::move(tmp).value()
#define FMDS_STATUS_CONCAT_(a, b) FMDS_STATUS_CONCAT_IMPL_(a, b)
#define FMDS_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace fmds

#endif  // FMDS_SRC_COMMON_STATUS_H_
