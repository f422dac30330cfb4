// ExtraP facade — the end-to-end pipeline of Figure 2.
//
//   program --measure--> 1-processor trace --translate--> n ideal traces
//           --simulate--> extrapolated trace + predicted metrics
//
// Each stage is also available separately (rt::measure, core::translate,
// core::simulate) for tools that start from a stored trace file.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/translate.hpp"
#include "rt/runtime.hpp"
#include "trace/summary.hpp"

namespace xp::core {

struct Prediction {
  int n_threads = 0;
  Time predicted_time;     ///< extrapolated n-processor execution time
  Time ideal_time;         ///< translated makespan (zero-cost environment)
  Time measured_time;      ///< the 1-processor measured run's end time
  SimResult sim;           ///< full simulation result
  trace::Summary measured_summary;  ///< trace statistics of the measurement
};

/// A measurement carried through the translation stage: everything the
/// simulator needs, with the (expensive, parameter-independent) measure +
/// translate work done once.  Immutable after construction, so many
/// simulations — including concurrent ones from a sweep — can share one
/// instance (see core/sweep.hpp).
struct TranslatedTrace {
  int n_threads = 0;
  Time measured_time;               ///< measured run's end time
  Time ideal_time;                  ///< zero-cost n-processor makespan
  trace::Summary measured_summary;  ///< statistics of the measured trace
  /// One idealized trace per thread, for hand-built instances only:
  /// prepare_trace() leaves it empty (core::translate builds this form
  /// from a measured trace when a caller wants to keep or write it).
  std::vector<trace::Trace> translated;
  /// SoA replay form, lowered once by prepare_trace() and shared read-only
  /// by every simulation (predict() falls back to compiling `translated`
  /// on the fly for hand-built instances where this is null).
  std::shared_ptr<const CompiledTrace> compiled;
};

/// Run the measurement-side half of the pipeline: validate and translate
/// straight into compiled form (core::lower_measured), with default
/// TranslateOptions.
TranslatedTrace prepare_trace(const trace::Trace& measured);

/// Run the simulation-side half: replay a prepared trace against one
/// parameter set.  Pure — identical inputs give bitwise-identical
/// Predictions, the property the sweep differential tests pin down.
/// `opts` selects the simulation mode (core/simulator.hpp); both modes
/// yield the same numbers.
Prediction predict(const TranslatedTrace& prepared, const SimParams& params,
                   const SimOptions& opts = {});

class Extrapolator {
 public:
  explicit Extrapolator(SimParams params) : params_(std::move(params)) {}

  const SimParams& params() const { return params_; }
  SimParams& params() { return params_; }

  /// Measure `prog` with n threads on one (virtual) processor of the
  /// default host, translate, and simulate the n-processor execution.
  Prediction extrapolate(rt::Program& prog, int n_threads) const;

  /// Extrapolate from an existing measured 1-processor trace.
  Prediction extrapolate_trace(const trace::Trace& measured) const;

 private:
  SimParams params_;
};

}  // namespace xp::core
