// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Result<T>: a value-or-Status union in the Arrow style, for factory
// functions that either produce an object or explain why they could not.

#ifndef PLASTREAM_COMMON_RESULT_H_
#define PLASTREAM_COMMON_RESULT_H_

#include <cassert>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/status.h"

namespace plastream {

/// Holds either a T or a non-OK Status describing why no T was produced.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a successful result (implicit so `return value;` works).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs a failed result. `status` must not be OK.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!std::get<Status>(repr_).ok() &&
           "Result constructed from an OK status carries no value");
  }

  /// Converts a result whose value converts to T (implicit, like the
  /// value conversion itself); a failure carries over unchanged.
  template <typename U>
    requires(!std::is_same_v<U, T> && std::is_convertible_v<U &&, T>)
  Result(Result<U> other)  // NOLINT(runtime/explicit)
      : repr_(other.status()) {
    if (other.ok()) repr_ = T(std::move(other).value());
  }

  /// True iff a value is present.
  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// The failure status, or OK when a value is present.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  /// Borrow the value. Requires ok().
  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }

  /// Move the value out. Requires ok().
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  /// Value access shorthand.
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> repr_;
};

/// Propagates the error of a Result expression, or assigns its value.
/// Usage: PLASTREAM_ASSIGN_OR_RETURN(auto x, MakeX());
#define PLASTREAM_ASSIGN_OR_RETURN(decl, expr)              \
  PLASTREAM_ASSIGN_OR_RETURN_IMPL_(                         \
      PLASTREAM_CONCAT_(_result_, __LINE__), decl, expr)

#define PLASTREAM_CONCAT_INNER_(a, b) a##b
#define PLASTREAM_CONCAT_(a, b) PLASTREAM_CONCAT_INNER_(a, b)
#define PLASTREAM_ASSIGN_OR_RETURN_IMPL_(tmp, decl, expr)   \
  auto tmp = (expr);                                        \
  if (!tmp.ok()) return tmp.status();                       \
  decl = std::move(tmp).value()

}  // namespace plastream

#endif  // PLASTREAM_COMMON_RESULT_H_
