#include "rt/machine.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "util/error.hpp"

namespace xp::rt {

double calibrate_mflops(int iterations) {
  XP_REQUIRE(iterations > 0, "calibration needs at least one iteration");
  // A simple floating-point benchmark in the paper's spirit: a daxpy-like
  // loop whose flop count is known exactly.  Best of `iterations` runs.
  constexpr int kN = 1 << 16;
  double best_mflops = 0.0;
  std::vector<double> x(kN, 1.000001), y(kN, 0.999999);
  for (int it = 0; it < iterations; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    double acc = 0.0;
    for (int rep = 0; rep < 16; ++rep) {
      for (int i = 0; i < kN; ++i) {
        y[static_cast<std::size_t>(i)] =
            2.0000001 * x[static_cast<std::size_t>(i)] +
            y[static_cast<std::size_t>(i)];  // 2 flops
        acc += y[static_cast<std::size_t>(i)];  // 1 flop
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    // Keep the accumulator observable so the loop cannot be elided.
    XP_CHECK(acc != 0.0, "calibration accumulator vanished");
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();
    if (secs > 0) {
      const double flops = 3.0 * 16.0 * kN;
      best_mflops = std::max(best_mflops, flops / secs / 1e6);
    }
  }
  XP_CHECK(best_mflops > 0, "calibration produced no timing");
  return best_mflops;
}

}  // namespace xp::rt
