// Shared pieces of the ExtraP benchmark program (xpbench): command-line
// options, the result report, output digests and the span recorder of the
// traced run.  Everything here calls the library only through its public
// headers; no library code is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/extrapolator.hpp"
#include "suite/suite.hpp"

namespace xpbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test sizes: every workload at a size that runs in about a second.
  bool tiny = false;
  /// Run the set-up only and report setup_s (main() repeats set-up in
  /// child processes this way, since a cold start happens once a process).
  bool setup_only = false;
  /// Directory (relative paths allowed) for the server socket and the
  /// traced run's output files.
  std::string scratch = ".";
  Clock::time_point process_start;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: operations attempted and failed (a failure is an
/// error or an output that is not bitwise-equal to its reference), the
/// metrics of this run (end-to-end or per-layer), human-readable lines
/// printed before the result, and the raw samples behind the end-to-end
/// metrics (written next to the traces, for checking the estimators).
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::map<std::string, std::vector<double>> samples;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Order-only randomness: every workload derives its permutations from the
/// seed and nothing else, so one seed always gives the same operation order.
class Shuffler {
 public:
  explicit Shuffler(std::uint64_t seed) : rng_(seed * 0x9e3779b97f4a7c15ull + 1) {}

  /// A permutation of 0..n-1 (Fisher-Yates on the seeded engine).
  std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(rng_() % i);
      std::swap(p[i - 1], p[j]);
    }
    return p;
  }

 private:
  std::mt19937_64 rng_;
};

/// FNV-1a over every numeric output of a simulation that the library holds
/// bitwise-stable: makespan, per-thread statistics, message and byte
/// counts and the mean in-flight count.  Engine event counts and the
/// hybrid/sampling attribution are left out, since exact modes differ there
/// by design.
std::uint64_t digest(const xp::core::SimResult& r);

/// Percentile (0..100) of an unsorted sample, nearest-rank on the sorted
/// copy; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Mean of the middle half of a sample (between its first and third
/// quartiles).  A latency sample here mixes operations of very different
/// sizes, so it has several clusters; the median jumps from one cluster to
/// the next as their weights shift, and this centre moves smoothly.
double interquartile_mean(std::vector<double> v);

/// Calls `pass` (which returns its own wall seconds) for about `seconds`:
/// at least once, and not again once another pass would likely overrun.
/// Returns the number of passes.
template <class Pass>
int run_passes(double seconds, Pass pass) {
  const auto t0 = Clock::now();
  int n = 0;
  double last = 0;
  do {
    last = pass();
    ++n;
  } while (secs(t0, Clock::now()) + last <= seconds);
  return n;
}

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// The trimmed problem sizes of bench/abl_suite_validation.cpp, small
/// enough for the direct-execution machine simulator; also the smoke-test
/// (--tiny) sizes.
xp::suite::SuiteConfig trimmed_suite_config();

/// Mean |predicted / machine - 1| in percent over the Table-2 codes at 4
/// and 16 processors on the CM-5 preset, against the direct-execution
/// machine simulator, at the trimmed sizes of abl_suite_validation.
double prediction_error_pct();

// --- traced run ------------------------------------------------------------

/// One span: a named call into a library layer ("layer.call"), on one
/// benchmark thread.  Spans of one thread nest by time.
struct Span {
  const char* name = "";
  double t0 = 0;  ///< seconds since the recorder's origin
  double t1 = 0;
};

/// Per-thread span buffer.  Recording is a vector push at span start and
/// a store at span end; a disabled log records nothing.
class SpanLog {
 public:
  SpanLog(int tid, Clock::time_point origin, bool on)
      : tid_(tid), origin_(origin), on_(on) {}

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

  std::size_t begin(const char* name) {
    spans_.push_back({name, now(), 0});
    return spans_.size() - 1;
  }
  void end(std::size_t i) { spans_[i].t1 = now(); }

 private:
  double now() const { return secs(origin_, Clock::now()); }

  int tid_;
  Clock::time_point origin_;
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a null or disabled log.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name)
      : log_(log && log->on() ? log : nullptr),
        idx_(log_ ? log_->begin(name) : 0) {}
  ~Scoped() {
    if (log_) log_->end(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::size_t idx_;
};

/// Per span name: total duration and self time (duration minus the part
/// covered by child spans on the same thread), summed over all logs.
struct SpanTotals {
  std::string name;
  std::int64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::vector<SpanTotals> span_totals(const std::vector<const SpanLog*>& logs);

/// Total seconds of span `name` in `totals` (0 if absent).
double span_total_s(const std::vector<SpanTotals>& totals,
                    const std::string& name);

/// Adds the measure -> verify -> translate -> compile -> event-simulate
/// layer metrics of a traced run, per pass, from the spans "rt.measure",
/// "suite.verify", "core.translate", "core.compile" and
/// "core.simulate_event" and the run's event counts.
void add_pipeline_layers(Report& out, const std::vector<SpanTotals>& totals,
                         double passes, std::int64_t measured_events,
                         std::int64_t engine_events);

/// Write the logs as Chrome trace-event JSON ("X" events, microseconds) to
/// `path`, with the host stamp as process metadata.  Returns false when the
/// file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        const std::string& stamp_json);

/// Human-readable self-time table: per layer (the name up to the first '.')
/// and per span, with each one's share of all recorded self time.
std::string self_time_table(const std::vector<SpanTotals>& totals);

// --- workloads -------------------------------------------------------------

/// Each workload runs its set-up, then its timed phase for args.seconds,
/// and fills `out` with end-to-end metrics (args.trace == false) or
/// per-layer metrics from a traced run (args.trace == true).
/// `logs` receives the traced run's span logs (owned by the workload's
/// caller so they outlive the workload for output).
using SpanLogs = std::vector<std::unique_ptr<SpanLog>>;
void run_sweep_cold(const Args& args, Report& out, SpanLogs& logs);
void run_serve_warm(const Args& args, Report& out, SpanLogs& logs);
void run_huge_n(const Args& args, Report& out, SpanLogs& logs);

/// The per-layer metric names every traced run prints, in print order,
/// with their units; a workload that does not reach a layer reports 0 for
/// it (see README.md, "Per-layer metrics").
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

}  // namespace xpbench
