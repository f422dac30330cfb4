// Small statistics helpers used by metrics computation and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xp::util {

/// Welford running mean/variance with min/max tracking.
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& o);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile (linear interpolation) over a copy of the samples.
double percentile(std::vector<double> samples, double p);

// Regression helpers shared by metrics::scalability and xp::fit -----------

/// Arithmetic mean (0 if empty).
double mean(const std::vector<double>& xs);

/// Euclidean norm; the column-scaling factor for normal-equation solves.
double l2_norm(const std::vector<double>& xs);

/// Coefficient of determination of predictions `yhat` against data `y`:
/// 1 - RSS/TSS.  1 for a perfect fit, <= 0 when no better than the mean.
/// A constant `y` gives 1 when matched exactly and 0 otherwise.
double r_squared(const std::vector<double>& y, const std::vector<double>& yhat);

/// R² adjusted for model size: 1 - (1-R²)(m-1)/(m-k-1) for m samples and
/// k fitted parameters beyond the intercept; -infinity when the degrees of
/// freedom run out (m <= k+1), so exhausted models always lose a
/// comparison.
double adjusted_r_squared(double r2, std::size_t m, std::size_t k);

}  // namespace xp::util
