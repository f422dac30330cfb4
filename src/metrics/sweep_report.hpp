// Scalability analysis of a whole sweep batch.
//
// A SweepResult is a (label, n_threads) -> Prediction table; this module
// folds it back into per-label time curves and runs the scalability
// diagnostics (metrics/scalability.hpp) on every series with >= 2 points,
// using the series' smallest processor count as the relative-speedup
// baseline.  It is the batch-shaped counterpart of
// analyze_scalability: one call analyzes a machine_shootout-style grid in
// one pass.
#pragma once

#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "metrics/metrics.hpp"
#include "metrics/scalability.hpp"

namespace xp::metrics {

struct SweepSeries {
  std::string label;
  std::vector<int> procs;          ///< ascending, deduplicated
  std::vector<Time> times;         ///< predicted time per processor count
  std::vector<Time> ideal_times;   ///< zero-cost bound per processor count
  bool has_scalability = false;    ///< true when the series has >= 2 points
  ScalabilityReport scalability;   ///< valid iff has_scalability
};

struct SweepReport {
  std::vector<SweepSeries> series;  ///< label first-appearance order
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Per-stage timing and fast-path counters of the sweep
  /// (core::SweepStages): CPU sums per stage, the sweep's wall split at
  /// the last prepared trace, and core::SimCounters, which the report
  /// renders as its footer.
  core::SweepStages stages;
};

/// Group a sweep's predictions into per-label series.  Points sharing a
/// (label, n_threads) pair must agree (identical params give identical
/// predictions); throws util::Error on conflicting duplicates.
SweepReport analyze_sweep(const core::SweepResult& r);

/// Aligned time table + ASCII chart over all series, then the scalability
/// block for each series that has one.
std::string render_sweep(const SweepReport& r, bool chart = true);

}  // namespace xp::metrics
