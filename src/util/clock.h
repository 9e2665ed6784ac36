// The monotonic clock every latency measurement and timestamp reads.
#ifndef PANDIA_SRC_UTIL_CLOCK_H_
#define PANDIA_SRC_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace pandia {
namespace util {

// Nanoseconds on std::chrono::steady_clock since its (unspecified) epoch;
// only differences are meaningful.
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace util
}  // namespace pandia

#endif  // PANDIA_SRC_UTIL_CLOCK_H_
