// Error-handling helpers: a library-wide exception type and an assertion
// macro for internal invariants that stays active in release builds (the
// simulator's correctness depends on them and their cost is negligible next
// to the work they guard).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace idr::util {

/// Thrown for API misuse and violated preconditions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void fail(const std::string& msg) { throw Error(msg); }

/// IDR_REQUIRE's failure path: throws Error("file:line: msg"). Kept out of
/// line and cold so a check costs its caller one compare and one call,
/// and small checked accessors stay cheap to inline.
[[noreturn, gnu::cold, gnu::noinline]] inline void fail_at(
    const char* file, int line, std::string_view msg) {
  throw Error(std::string(file) + ":" + std::to_string(line) + ": " +
              std::string(msg));
}

}  // namespace idr::util

/// Internal invariant check; throws idr::util::Error with location info.
#define IDR_REQUIRE(cond, msg)                                              \
  do {                                                                      \
    if (!(cond)) [[unlikely]] {                                             \
      ::idr::util::fail_at(__FILE__, __LINE__, (msg));                      \
    }                                                                       \
  } while (0)
