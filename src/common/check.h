#ifndef ODYSSEY_COMMON_CHECK_H_
#define ODYSSEY_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

/// Odyssey requires C++20: for one, SeriesCollection's aligned allocator
/// defines only operator== and relies on the C++20 rewrite for the !=
/// that std::vector uses. Failing here gives a one-line diagnosis instead
/// of an error deep inside <vector>. MSVC keeps __cplusplus at 199711L
/// unless /Zc:__cplusplus is set, so check its _MSVC_LANG too.
#if defined(_MSVC_LANG)
static_assert(_MSVC_LANG >= 202002L,
              "Odyssey requires C++20; configure with "
              "CMAKE_CXX_STANDARD=20 or pass /std:c++20");
#else
static_assert(__cplusplus >= 202002L,
              "Odyssey requires C++20; configure with "
              "CMAKE_CXX_STANDARD=20 or pass -std=c++20");
#endif

/// CHECK-style invariant macros. A failed check indicates a programming
/// error (API misuse or broken internal invariant), never a data-dependent
/// condition, so the process aborts with a location message. Data-dependent
/// failures use Status instead.
#define ODYSSEY_CHECK(cond)                                                  \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "ODYSSEY_CHECK failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #cond);                                         \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#define ODYSSEY_CHECK_MSG(cond, msg)                                         \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "ODYSSEY_CHECK failed at %s:%d: %s (%s)\n",       \
                   __FILE__, __LINE__, #cond, msg);                          \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

/// Aborts if a Status-returning expression fails. For use in tools,
/// examples, and tests where propagating the error adds nothing.
#define ODYSSEY_CHECK_OK(expr)                                               \
  do {                                                                       \
    const ::odyssey::Status _status = (expr);                                \
    if (!_status.ok()) {                                                     \
      std::fprintf(stderr, "ODYSSEY_CHECK_OK failed at %s:%d: %s\n",         \
                   __FILE__, __LINE__, _status.ToString().c_str());          \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#endif  // ODYSSEY_COMMON_CHECK_H_
