// Counting global operator new for allocation-regression tests.
//
// Exactly one translation unit per executable may replace the global
// allocator, so the replacement lives in alloc_counter.cpp and every test
// that wants an allocation budget includes this header instead of defining
// its own operator new. Counting is disabled under ASan/TSan (the
// sanitizers intercept the allocator themselves); gate test bodies on
// CDNSIM_ALLOC_COUNTING and GTEST_SKIP otherwise.
#pragma once

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CDNSIM_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CDNSIM_ALLOC_COUNTING 0
#else
#define CDNSIM_ALLOC_COUNTING 1
#endif
#else
#define CDNSIM_ALLOC_COUNTING 1
#endif

namespace cdnsim::testsupport {

// Global operator new / new[] calls since process start. Monotonic; diff
// two reads around the region under test. Always linked (returns a frozen
// value when counting is disabled) so call sites need no #if around reads.
std::uint64_t allocation_count();

// Bytes requested from global operator new / new[] since process start,
// counted beside allocation_count() (frees are not subtracted). Frozen like
// allocation_count() when counting is disabled.
std::uint64_t allocated_bytes();

}  // namespace cdnsim::testsupport
