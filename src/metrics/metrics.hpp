// Performance metrics (§2): quantities derived from performance
// information.  These are computed from extrapolation results (or from
// machine-simulation results mapped into the same shape).
#pragma once

#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "util/time.hpp"

namespace xp::metrics {

using core::SimResult;
using util::Time;

/// T(1) / T(n).
double speedup(Time t1, Time tn);

/// speedup / n.
double efficiency(double speedup_value, int n);

/// Fraction of aggregate processor-time spent in each activity class.
struct Breakdown {
  double compute = 0.0;
  double comm_wait = 0.0;
  double barrier_wait = 0.0;
  double service = 0.0;
  double overhead = 0.0;  ///< sends + polls
  /// Remainder up to makespan * n.  Can be NEGATIVE: request service and
  /// message handling overlap a thread's wait spans, so the activity
  /// classes are not mutually exclusive — a negative idle share quantifies
  /// that overlap.
  double idle = 0.0;
};
Breakdown breakdown(const SimResult& r);

/// One experiment curve: a metric across processor counts.
struct Curve {
  std::string label;
  std::vector<int> procs;
  std::vector<double> values;
};

/// Convert execution times to a speedup curve against the 1-processor time
/// (first entry must be the 1-processor run).
Curve to_speedup_curve(const std::string& label, const std::vector<int>& procs,
                       const std::vector<Time>& times);

/// Index of the minimum time (e.g. the processor count delivering minimum
/// execution time, Figure 7); the first on ties.
std::size_t argmin_time(const std::vector<Time>& values);

}  // namespace xp::metrics
