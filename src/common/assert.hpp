// Assertion machinery.
//
// RFD_REQUIRE is for preconditions and invariants that hold regardless of
// build type: simulators silently producing garbage are worse than aborting.
// The macro stays active in release builds, also where it sits on the
// paper-model simulator's per-step path (the inline ProcessSet members, a
// detection-delay row lookup): there each check is one compare and a
// branch that is never taken, against values the step already holds.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace rfd::detail {

[[noreturn]] inline void require_failed(const char* expr, const char* file,
                                        int line, const char* msg) {
  std::fprintf(stderr, "RFD_REQUIRE failed: %s\n  at %s:%d\n  %s\n", expr,
               file, line, msg != nullptr ? msg : "");
  std::abort();
}

}  // namespace rfd::detail

#define RFD_REQUIRE(expr)                                              \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::rfd::detail::require_failed(#expr, __FILE__, __LINE__, nullptr); \
    }                                                                  \
  } while (false)

#define RFD_REQUIRE_MSG(expr, msg)                                   \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::rfd::detail::require_failed(#expr, __FILE__, __LINE__, msg); \
    }                                                                \
  } while (false)

/// Marks a code path that is unreachable if the module invariants hold.
#define RFD_UNREACHABLE(msg) \
  ::rfd::detail::require_failed("unreachable", __FILE__, __LINE__, msg)
