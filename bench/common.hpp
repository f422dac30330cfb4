// Shared helpers for the experiment harnesses (bench/).
//
// Each binary regenerates one table or figure from the paper's evaluation
// (§4).  Conventions: processor counts {1, 2, 4, 8, 16, 32} as in the
// paper; the distributed-memory preset for the benchmark studies; the
// Table 3 CM-5 preset for the Matmul validation.  Output is an aligned
// table (plus an ASCII rendition of the figure) and a short "shape check"
// block restating what the paper observed.  Claims a bench enforces are
// gates: a failed gate makes the binary exit nonzero (exit_code()), so a
// bench run alone is its own gate.  Machine-readable results are JsonRow
// lines that scripts/bench_json.sh merges into BENCH_sim.json.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
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

/// `prepared` with every epoch made its own class
/// (core::singleton_epoch_classes): Auto's analytic path then walks every
/// epoch instead of one exemplar per class.  This is the full-analytic
/// baseline the collapse and sampling gates time against.  The compiled
/// form is copied, so `prepared` itself is left untouched.
inline core::TranslatedTrace with_singleton_classes(
    core::TranslatedTrace prepared) {
  auto compiled = std::make_shared<core::CompiledTrace>(*prepared.compiled);
  compiled->epoch_classes = core::singleton_epoch_classes(*compiled);
  prepared.compiled = std::move(compiled);
  return prepared;
}

/// An informational claim: printed, never fails the run.
inline void shape_check(const std::string& claim, bool holds) {
  std::cout << "  [" << (holds ? "OK " : "??? ") << "] " << claim << '\n';
}

inline bool gate_failed = false;

/// An enforced claim: printed like shape_check, and a failure makes
/// exit_code() nonzero.
inline void gate(const std::string& claim, bool holds) {
  std::cout << "  [" << (holds ? "OK " : "FAIL") << "] " << claim << '\n';
  if (!holds) gate_failed = true;
}

/// main()'s return value: nonzero iff any gate failed.
inline int exit_code() { return gate_failed ? 1 : 0; }

/// The committed value of `field` in row `key` of a work table such as
/// bench/work_golden.json (deterministic work counts a bench gates at <=
/// the committed value), or -1 if the file, the row or the field is
/// missing.  The table is flat: {"<key>": {"<field>": <integer>, ...}, ...}.
inline std::int64_t work_golden(const std::string& path,
                                const std::string& key,
                                const std::string& field) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto row = text.find('"' + key + '"');
  if (row == std::string::npos) return -1;
  const auto end = text.find('}', row);
  const auto at = text.find('"' + field + '"', row);
  if (at == std::string::npos || at > end) return -1;
  const auto colon = text.find(':', at);
  return std::strtoll(text.c_str() + colon + 1, nullptr, 10);
}

/// Work-gate claims, held so a bench can print them after its tables.
inline std::vector<std::pair<std::string, bool>> work_claims;

/// Hold `value`, the `field` count of work row `key`, at <= its committed
/// value in the work table at `path` (a missing entry fails); return the
/// committed value.  gate_work() turns the held claims into gates.
inline std::int64_t hold_work(const std::string& path, const std::string& key,
                              const std::string& field, std::int64_t value) {
  const std::int64_t golden = work_golden(path, key, field);
  work_claims.emplace_back(key + " " + field + " " + std::to_string(value) +
                               " <= committed " + std::to_string(golden),
                           golden >= 0 && value <= golden);
  return golden;
}

inline void gate_work() {
  for (const auto& [claim, holds] : work_claims) gate(claim, holds);
  work_claims.clear();
}

/// One machine-readable result row, printed as a single-line JSON object
/// that names the BENCH_sim.json section and key it merges into, then its
/// fields.  A row whose only field is "value" merges as that scalar.
/// Names and string values are plain identifiers, so nothing is escaped;
/// a non-finite number is written as null.
class JsonRow {
 public:
  JsonRow(const std::string& section, const std::string& key) {
    field("section", section);
    field("key", key);
  }

  template <class T>
  JsonRow& field(const char* name, const T& v) {
    line_ += line_.empty() ? "{\"" : ",\"";
    line_ += name;
    line_ += "\":";
    if constexpr (std::is_same_v<T, bool>) {
      line_ += v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      line_ += std::to_string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", static_cast<double>(v));
      line_ += std::isfinite(v) ? buf : "null";
    } else {
      line_ += '"' + std::string(v) + '"';
    }
    return *this;
  }

  void emit() const { std::cout << line_ << "}\n"; }

 private:
  std::string line_;
};

}  // namespace xp::bench
