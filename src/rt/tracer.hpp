// Event recording for the measurement runtime.
//
// The tracer appends high-level events with the current virtual-clock
// timestamp and (optionally) charges the configured per-event
// instrumentation overhead to the clock, modeling trace perturbation the
// way the paper's instrumented runtime incurred it.  The overhead value is
// stored in the trace metadata so the translator can remove it (§3.2: "the
// trace translation algorithm is easily modified to handle the overhead for
// recording the events").
//
// Recording appends to one event vector in recording order, and take()
// moves it out unchanged.  That is already the trace's (time, recording
// order) order: all n threads run on one processor and share one clock,
// which only moves forward (compute charges and overheads are >= 0, and
// host-clock mode reads a monotonic clock), so record() requires every
// timestamp to be at least the previous one.  A capacity hint (the event
// count of a previous run of the same program) reserves the vector once,
// so a rerun measurement never reallocates it.
#pragma once

#include <cstdint>
#include <string>

#include "trace/trace.hpp"
#include "util/time.hpp"

namespace xp::rt {

using util::Time;

class Tracer {
 public:
  Tracer(int n_threads, Time event_overhead, std::int64_t flush_every = 0,
         Time flush_cost = Time::zero(), std::int64_t capacity_hint = 0);

  /// Record an event at time `*clock`, which must not be earlier than the
  /// previous event's; adds the event overhead to *clock after stamping (so
  /// the overhead lands between this event and the next) and, every
  /// `flush_every` events, the buffer-flush cost.
  void record(Time* clock, trace::Event e);

  void set_meta(const std::string& k, const std::string& v);

  /// Finalize: return the trace, time-ordered as recorded (call once).
  trace::Trace take();

  std::int64_t events_recorded() const { return count_; }

 private:
  trace::Trace trace_;  ///< the log itself, plus n_threads and metadata
  Time overhead_;
  std::int64_t flush_every_;
  Time flush_cost_;
  std::int64_t count_ = 0;
};

}  // namespace xp::rt
