#include "rt/tracer.hpp"

#include "util/error.hpp"

namespace xp::rt {

Tracer::Tracer(int n_threads, Time event_overhead, std::int64_t flush_every,
               Time flush_cost, std::int64_t capacity_hint)
    : trace_(n_threads),
      overhead_(event_overhead),
      flush_every_(flush_every),
      flush_cost_(flush_cost) {
  XP_REQUIRE(n_threads > 0, "tracer needs a positive thread count");
  XP_REQUIRE(!event_overhead.is_negative(), "event overhead must be >= 0");
  XP_REQUIRE(flush_every >= 0, "flush period must be >= 0");
  XP_REQUIRE(!flush_cost.is_negative(), "flush cost must be >= 0");
  XP_REQUIRE(capacity_hint >= 0, "capacity hint must be >= 0");
  trace_.mutable_events().reserve(static_cast<std::size_t>(capacity_hint));
  trace_.set_meta("event_overhead_ns",
                  std::to_string(event_overhead.count_ns()));
  if (flush_every_ > 0) {
    trace_.set_meta("flush_every", std::to_string(flush_every_));
    trace_.set_meta("flush_cost_ns", std::to_string(flush_cost_.count_ns()));
  }
}

void Tracer::record(Time* clock, trace::Event e) {
  e.time = *clock;
  XP_REQUIRE(e.thread >= 0 && e.thread < trace_.n_threads(),
             "record: event thread out of range");
  std::vector<trace::Event>& log = trace_.mutable_events();
  XP_REQUIRE(log.empty() || log.back().time <= e.time,
             "record: clock went backwards");
  log.push_back(e);
  ++count_;
  *clock += overhead_;
  if (flush_every_ > 0 && count_ % flush_every_ == 0) *clock += flush_cost_;
}

void Tracer::set_meta(const std::string& k, const std::string& v) {
  trace_.set_meta(k, v);
}

trace::Trace Tracer::take() { return std::move(trace_); }

}  // namespace xp::rt
