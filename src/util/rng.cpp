#include "util/rng.hpp"

#include <cmath>

namespace xp::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// SplitMix64, used to expand a single seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is invalid for xoshiro; splitmix cannot produce four
  // zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256ss::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Xoshiro256ss::next_double() {
  // 53 high bits -> [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro256ss::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

std::uint64_t Xoshiro256ss::next_below(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ull - ~0ull % n;
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % n;
}

double Xoshiro256ss::normal() {
  double u1 = next_double();
  double u2 = next_double();
  if (u1 <= 0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

// --- NAS LCG -----------------------------------------------------------

double NasLcg::skip_ahead(double seed, std::uint64_t n) {
  // Multiply the seed by a^n mod 2^46, with a^n by binary exponentiation.
  std::uint64_t x = static_cast<std::uint64_t>(seed);
  std::uint64_t a = kA;
  while (n != 0) {
    if (n & 1) x = (x * a) & kMask;
    a = (a * a) & kMask;
    n >>= 1;
  }
  return static_cast<double>(x);
}

}  // namespace xp::util
