// Deterministic random number generation.
//
// Two generators:
//  * Xoshiro256ss — general-purpose PRNG used by workload generators and the
//    machine simulator's deterministic jitter.  Seeded explicitly; never
//    seeded from the wall clock, so every run of every experiment is
//    reproducible.
//  * NasLcg — the 46-bit linear congruential generator specified by the NAS
//    Parallel Benchmarks (x_{k+1} = a*x_k mod 2^46, a = 5^13), used by the
//    Embar (NAS EP) and Sparse (NAS CG) codes so their random streams have
//    the same leapfrog structure as the originals.
#pragma once

#include <cstdint>
#include <vector>

namespace xp::util {

/// xoshiro256** by Blackman & Vigna; small, fast, passes BigCrush.
class Xoshiro256ss {
 public:
  explicit Xoshiro256ss(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  std::uint64_t next();
  /// Uniform in [0, 1).
  double next_double();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n);
  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal();

  // UniformRandomBitGenerator interface, usable with <random> adaptors.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

 private:
  std::uint64_t s_[4];
};

/// NAS Parallel Benchmarks pseudorandom generator (46-bit LCG).  The state
/// is the 46-bit integer NAS's randlc keeps in a double; stepping it in
/// integer arithmetic (the product mod 2^64, masked to 46 bits, is the
/// product mod 2^46) yields randlc's stream bit for bit.
class NasLcg {
 public:
  static constexpr double kDefaultSeed = 271828183.0;

  /// `seed` is an integer in [0, 2^46), as in NAS.
  explicit NasLcg(double seed = kDefaultSeed)
      : x_(static_cast<std::uint64_t>(seed)) {}

  /// Next value in (0, 1).
  double next() {
    x_ = (x_ * kA) & kMask;
    return static_cast<double>(x_) * 0x1p-46;
  }

  /// Jump the seed forward by n steps from `seed` (leapfrogging for
  /// parallel streams), as NAS's randlc/ipow46 do.
  static double skip_ahead(double seed, std::uint64_t n);

  double state() const { return static_cast<double>(x_); }

 private:
  static constexpr std::uint64_t kA = 1220703125;  // 5^13
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << 46) - 1;

  std::uint64_t x_;
};

/// Fisher–Yates shuffle driven by Xoshiro; deterministic given the RNG state.
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256ss& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace xp::util
