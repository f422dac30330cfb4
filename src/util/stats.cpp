#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace xp::util {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

void RunningStat::merge(const RunningStat& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_), nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += o.m2_ + delta * delta * na * nb / nt;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  n_ += o.n_;
}

double RunningStat::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> samples, double p) {
  XP_REQUIRE(!samples.empty(), "percentile of empty sample set");
  XP_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of [0,100]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double l2_norm(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x * x;
  return std::sqrt(s);
}

double r_squared(const std::vector<double>& y, const std::vector<double>& yhat) {
  XP_REQUIRE(y.size() == yhat.size() && !y.empty(),
             "r_squared needs matching nonempty samples");
  const double m = mean(y);
  double rss = 0.0, tss = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    rss += (y[i] - yhat[i]) * (y[i] - yhat[i]);
    tss += (y[i] - m) * (y[i] - m);
  }
  if (tss <= 0.0) return rss <= 0.0 ? 1.0 : 0.0;
  return 1.0 - rss / tss;
}

double adjusted_r_squared(double r2, std::size_t m, std::size_t k) {
  if (m <= k + 1) return -std::numeric_limits<double>::infinity();
  const double dof = static_cast<double>(m - k - 1);
  return 1.0 - (1.0 - r2) * static_cast<double>(m - 1) / dof;
}

}  // namespace xp::util
