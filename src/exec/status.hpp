// rdc::exec — structured error/status taxonomy for the hardened execution
// layer.
//
// Internals throw (exceptions stay the error channel inside the library,
// matching the existing code), but every public batch-facing API converts
// to a `Status` at its boundary via `capture()` so one malformed circuit or
// one pathological solver instance degrades into a reportable error row
// instead of aborting a whole experiment run. `StatusError` is the bridge:
// an exception that carries a typed Status, thrown by budget checkpoints
// and fault-injection points, recovered losslessly by
// `status_from_current_exception()`.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace rdc::exec {

/// Stable error-code taxonomy (DESIGN.md §10). Codes are coarse categories
/// chosen for report rows and degradation decisions; the human detail lives
/// in the Status message and context chain.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,    ///< caller precondition violated
  kParseError,         ///< malformed input document (BLIF/PLA/AIGER/JSON)
  kDeadlineExceeded,   ///< wall-clock budget expired
  kCancelled,          ///< cooperative cancellation requested
  kResourceExhausted,  ///< iteration cap or memory high-water exceeded
  kFaultInjected,      ///< deterministic RDC_FAULT throw (tests only)
  kUnavailable,        ///< missing file / environment dependency
  kInternal,           ///< anything else (unclassified exception)
};

/// Stable UPPER_SNAKE name of a code ("DEADLINE_EXCEEDED"); these strings
/// are the `status` field of report error rows.
const char* status_code_name(StatusCode code);

/// An error code plus a message and an outermost-first context chain.
/// Default-constructed Status is OK. Statuses are cheap to move and are the
/// value half of `Result<T>`.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  /// The accumulated context chain, "frame: frame: " outermost first (""
  /// when no context was attached). Exposed so a Status can be serialized
  /// field-by-field — the serve wire protocol round-trips it.
  const std::string& context() const { return context_; }

  /// Reassembles a Status from its three serialized fields — the decoding
  /// inverse of code()/message()/context(). The result compares equal to
  /// the Status the fields were read from.
  static Status from_parts(StatusCode code, std::string message,
                           std::string context) {
    Status status(code, std::move(message));
    status.context_ = std::move(context);
    return status;
  }

  /// Prepends a context frame ("espresso", "circuit rd53") to the chain.
  /// Returns *this so boundaries can annotate as the error unwinds.
  Status& with_context(std::string frame) {
    if (!ok()) context_ = std::move(frame) + ": " + context_;
    return *this;
  }

  /// "DEADLINE_EXCEEDED: espresso: wall-clock budget of 5 ms expired".
  std::string to_string() const;

  bool operator==(const Status& other) const = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  std::string context_;  ///< "frame: frame: " prefix, outermost first
};

/// Exception carrying a typed Status across internal call stacks. Budget
/// checkpoints and fault points throw this; `status_from_current_exception`
/// recovers the payload without loss.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// True for the codes a budget trip produces — the ones graceful
/// degradation (best-effort partial results, ladder descent) applies to.
inline bool is_budget_code(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled ||
         code == StatusCode::kResourceExhausted;
}

/// Maps the in-flight exception to a Status. Call from a catch(...) block
/// only. StatusError keeps its payload; standard exception families map to
/// the closest code; unknown exceptions become kInternal.
Status status_from_current_exception();

/// A value or an error Status — the return type of exception→Status
/// boundaries. Holds the value only when status().ok().
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-*)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() { return *value_; }
  const T& value() const { return *value_; }
  T& operator*() { return *value_; }
  const T& operator*() const { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Runs `fn` behind the exception→Status boundary: the public-API adapter
/// that turns any internal throw into a typed error result.
template <typename Fn>
auto capture(Fn&& fn) -> Result<std::invoke_result_t<Fn&>> {
  using T = std::invoke_result_t<Fn&>;
  static_assert(!std::is_void_v<T>, "capture() needs a value; use try/catch");
  try {
    return Result<T>(fn());
  } catch (...) {
    return Result<T>(status_from_current_exception());
  }
}

}  // namespace rdc::exec
