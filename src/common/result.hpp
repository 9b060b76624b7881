// Result<T>: lightweight expected-style error handling for recoverable
// failures. Programming errors use assertions; Result is for I/O, protocol,
// validation and resource errors that callers are expected to handle.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace qcenv::common {

/// Coarse error category, stable across module boundaries.
enum class ErrorCode {
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kResourceExhausted,
  kFailedPrecondition,
  kUnavailable,
  kTimeout,
  kCancelled,
  kProtocol,
  kIo,
  kInternal,
};

/// Human-readable name for an ErrorCode ("invalid_argument", ...).
const char* to_string(ErrorCode code) noexcept;

/// An error: category plus a human-readable message describing the failure.
class Error {
 public:
  Error(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  ErrorCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "invalid_argument: shots must be positive"
  std::string to_string() const;

  bool operator==(const Error& other) const noexcept {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

namespace err {
Error invalid_argument(std::string msg);
Error not_found(std::string msg);
Error already_exists(std::string msg);
Error permission_denied(std::string msg);
Error resource_exhausted(std::string msg);
Error failed_precondition(std::string msg);
Error unavailable(std::string msg);
Error timeout(std::string msg);
Error cancelled(std::string msg);
Error protocol(std::string msg);
Error io(std::string msg);
Error internal(std::string msg);
}  // namespace err

/// Result<T> holds either a value or an Error. Access to the wrong
/// alternative asserts: check ok() (or use value_or) before dereferencing.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT implicit
  Result(Error error) : state_(std::move(error)) {}  // NOLINT implicit

  bool ok() const noexcept { return std::holds_alternative<T>(state_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    assert(ok() && "Result::value() on error");
    return std::get<T>(state_);
  }
  T& value() & {
    assert(ok() && "Result::value() on error");
    return std::get<T>(state_);
  }
  T&& value() && {
    assert(ok() && "Result::value() on error");
    return std::get<T>(std::move(state_));
  }

  T value_or(T fallback) const& {
    return ok() ? std::get<T>(state_) : std::move(fallback);
  }

  const Error& error() const& {
    assert(!ok() && "Result::error() on value");
    return std::get<Error>(state_);
  }

  /// Applies fn to the value (returning its Result) or forwards the error.
  template <typename Fn>
  auto and_then(Fn&& fn) const& -> decltype(fn(std::declval<const T&>())) {
    if (ok()) return fn(value());
    return error();
  }

  /// Maps the value through fn, wrapping the output in a Result.
  template <typename Fn>
  auto map(Fn&& fn) const& -> Result<decltype(fn(std::declval<const T&>()))> {
    if (ok()) return fn(value());
    return error();
  }

 private:
  std::variant<T, Error> state_;
};

/// Status: Result with no payload.
class [[nodiscard]] Status {
 public:
  Status() = default;  // success
  Status(Error error) : error_(std::move(error)) {}  // NOLINT implicit

  static Status ok_status() { return Status(); }

  bool ok() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  const Error& error() const {
    assert(!ok() && "Status::error() on success");
    return *error_;
  }

  std::string to_string() const {
    return ok() ? "ok" : error_->to_string();
  }

 private:
  std::optional<Error> error_;
};

/// RETURN_IF_ERROR(status_expr): early-return the error of a Status.
#define QCENV_RETURN_IF_ERROR(expr)                      \
  do {                                                   \
    auto qcenv_status_ = (expr);                         \
    if (!qcenv_status_.ok()) return qcenv_status_.error(); \
  } while (0)

/// ASSIGN_OR_RETURN(decl, result_expr): early-return the error of a Result,
/// else move its value into `decl` (a declaration or an lvalue). Expands to
/// several statements, so never use it as the body of an unbraced `if`.
#define QCENV_ASSIGN_OR_RETURN(decl, expr) \
  QCENV_ASSIGN_OR_RETURN_(QCENV_CONCAT_(qcenv_result_, __LINE__), decl, expr)
#define QCENV_ASSIGN_OR_RETURN_(tmp, decl, expr) \
  auto tmp = (expr);                             \
  if (!(tmp).ok()) return (tmp).error();         \
  decl = std::move(tmp).value()
#define QCENV_CONCAT_(a, b) QCENV_CONCAT_INNER_(a, b)
#define QCENV_CONCAT_INNER_(a, b) a##b

}  // namespace qcenv::common
