// Shared helpers for the experiment harnesses (bench/).
//
// Each binary regenerates one table or figure from the paper's evaluation
// (§4).  Conventions: processor counts {1, 2, 4, 8, 16, 32} as in the
// paper; the distributed-memory preset for the benchmark studies; the
// Table 3 CM-5 preset for the Matmul validation.  Output is an aligned
// table (plus an ASCII rendition of the figure) and a short "shape check"
// block restating what the paper observed.
#pragma once

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/extrapolator.hpp"
#include "core/sweep.hpp"
#include "machine/machine_sim.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "suite/suite.hpp"
#include "util/chart.hpp"
#include "util/table.hpp"

namespace xp::bench {

using core::Extrapolator;
using core::Prediction;
using util::Time;

inline const std::vector<int>& paper_procs() {
  static const std::vector<int> procs{1, 2, 4, 8, 16, 32};
  return procs;
}

/// Measure-once-per-(bench, n), simulate many parameter sets: one
/// TranslateCache per bench, so parameter sweeps repeat neither the
/// measurement nor the translation — exactly the workflow ExtraP is built
/// for.
class TraceCache {
 public:
  explicit TraceCache(suite::SuiteConfig cfg = {}) : cfg_(std::move(cfg)) {}

  /// The measured-and-translated trace of `bench` at n threads.
  std::shared_ptr<const core::TranslatedTrace> prepared(
      const std::string& bench, int n) {
    const auto it = caches_.try_emplace(
        bench, core::measure_fresh([cfg = cfg_, bench] {
          return suite::make_by_name(bench, cfg);
        }));
    return it.first->second.get_or_prepare(n);
  }

  /// Extrapolate `bench` at n threads; only the simulation reruns per
  /// parameter set.
  Prediction predict(const std::string& bench, int n,
                     const model::SimParams& params) {
    return core::predict(*prepared(bench, n), params);
  }

  const suite::SuiteConfig& config() const { return cfg_; }

 private:
  suite::SuiteConfig cfg_;
  std::map<std::string, core::TranslateCache> caches_;
};

/// Predicted execution times across the paper's processor counts.
inline std::vector<Time> time_curve(TraceCache& cache, const std::string& bench,
                                    const model::SimParams& params,
                                    const std::vector<int>& procs =
                                        paper_procs()) {
  std::vector<Time> out;
  out.reserve(procs.size());
  for (int n : procs)
    out.push_back(cache.predict(bench, n, params).predicted_time);
  return out;
}

inline metrics::Curve speedup_curve(const std::string& label,
                                    const std::vector<int>& procs,
                                    const std::vector<Time>& times) {
  return metrics::to_speedup_curve(label, procs, times);
}

inline metrics::Curve time_curve_ms(const std::string& label,
                                    const std::vector<int>& procs,
                                    const std::vector<Time>& times) {
  metrics::Curve c;
  c.label = label;
  c.procs = procs;
  for (const Time& t : times) c.values.push_back(t.to_ms());
  return c;
}

/// `prepared` with its compiled form's epoch-class table dropped: Auto then
/// walks every epoch on the analytic path instead of sampling one exemplar
/// per class (the table is the sampled path's precondition).  This is the
/// full-analytic baseline the collapse and sampling gates time against.
/// The compiled form is copied, so `prepared` itself is left untouched.
inline core::TranslatedTrace without_epoch_classes(
    core::TranslatedTrace prepared) {
  auto compiled = std::make_shared<core::CompiledTrace>(*prepared.compiled);
  compiled->epoch_classes = {};
  prepared.compiled = std::move(compiled);
  return prepared;
}

inline void shape_check(const std::string& claim, bool holds) {
  std::cout << "  [" << (holds ? "OK " : "??? ") << "] " << claim << '\n';
}

}  // namespace xp::bench
