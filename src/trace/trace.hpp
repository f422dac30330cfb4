// In-memory traces.
//
// A Trace is the product of one measured (or simulated) program run: an
// event sequence plus metadata about the recording environment.  Traces can
// be split per thread, merged, and validated against the structural
// invariants the pC++ execution model guarantees (alternating barrier
// entry/exit, uniform barrier counts, …).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace xp::trace {

/// The largest timestamp a valid trace may carry: 2^53 ns (about 104
/// days).  Every time below it is exact in a double, so MipsRatio scaling
/// and the cost models stay far from overflowing Time.
inline constexpr std::int64_t kMaxTraceTimeNs = std::int64_t{1} << 53;

class Trace {
 public:
  Trace() = default;
  explicit Trace(int n_threads) : n_threads_(n_threads) {}

  int n_threads() const { return n_threads_; }
  void set_n_threads(int n) { n_threads_ = n; }

  void append(const Event& e) { events_.push_back(e); }
  void reserve(std::size_t n) { events_.reserve(n); }
  const std::vector<Event>& events() const { return events_; }
  std::vector<Event>& mutable_events() { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const Event& operator[](std::size_t i) const { return events_[i]; }

  /// Free-form metadata (program name, problem size, MFLOPS rating, …).
  void set_meta(const std::string& key, const std::string& value);
  std::string meta(const std::string& key, const std::string& def = "") const;
  const std::map<std::string, std::string>& all_meta() const { return meta_; }

  /// Stable sort by timestamp (preserves issue order at equal times).
  void sort_by_time();

  /// Split into n_threads per-thread traces (metadata copied to each).
  std::vector<Trace> split_by_thread() const;

  /// Merge per-thread traces into one time-ordered trace.
  static Trace merge(const std::vector<Trace>& parts);

  /// Time of the last event (zero for empty traces).
  Time end_time() const;

  /// Verify structural invariants; throws util::TraceError describing the
  /// first violation.  Checks: thread ids in range; timestamps in
  /// [0, kMaxTraceTimeNs] and non-decreasing in recording order; per-thread
  /// Begin first / End last; a BarrierEntry is followed by its BarrierExit
  /// before the thread's next event; every thread passes the same barriers
  /// in the same order; remote peers valid.
  void validate() const;

 private:
  int n_threads_ = 0;
  std::vector<Event> events_;
  std::map<std::string, std::string> meta_;
};

}  // namespace xp::trace
