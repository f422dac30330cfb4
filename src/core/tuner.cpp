#include "core/tuner.hpp"

#include <utility>

#include "util/error.hpp"

namespace xp::core {

const std::vector<Time>& default_poll_intervals() {
  static const std::vector<Time> intervals{
      Time::us(10),  Time::us(20),  Time::us(50),   Time::us(100),
      Time::us(200), Time::us(500), Time::us(1000), Time::us(2000),
      Time::us(5000)};
  return intervals;
}

namespace {

/// The tuner reads only makespans, so it logs no extrapolated trace.
Time makespan(const std::shared_ptr<const CompiledTrace>& compiled,
              const SimParams& params) {
  SimOptions opts;
  opts.emit_trace = false;
  return simulate_compiled(compiled, params, opts).makespan;
}

}  // namespace

PollTuneResult tune_poll_interval(
    const std::shared_ptr<const CompiledTrace>& compiled, SimParams params,
    const std::vector<Time>& candidates) {
  XP_REQUIRE(!candidates.empty(), "no poll intervals to try");
  params.proc.policy = model::ServicePolicy::Poll;
  PollTuneResult out;
  out.best_time = Time::max();
  for (const Time& iv : candidates) {
    XP_REQUIRE(iv > Time::zero(), "poll interval must be positive");
    params.proc.poll_interval = iv;
    const Time t = makespan(compiled, params);
    out.tried.emplace_back(iv, t);
    if (t < out.best_time) {
      out.best_time = t;
      out.best_interval = iv;
    }
  }
  return out;
}

PolicyChoice choose_service_policy(
    const std::shared_ptr<const CompiledTrace>& compiled, SimParams params,
    const std::vector<Time>& poll_candidates) {
  PolicyChoice c;

  params.proc.policy = model::ServicePolicy::NoInterrupt;
  c.no_interrupt_time = makespan(compiled, params);

  params.proc.policy = model::ServicePolicy::Interrupt;
  c.interrupt_time = makespan(compiled, params);

  c.poll = tune_poll_interval(compiled, params, poll_candidates);

  c.policy = model::ServicePolicy::NoInterrupt;
  c.predicted = c.no_interrupt_time;
  if (c.interrupt_time < c.predicted) {
    c.policy = model::ServicePolicy::Interrupt;
    c.predicted = c.interrupt_time;
  }
  if (c.poll.best_time < c.predicted) {
    c.policy = model::ServicePolicy::Poll;
    c.predicted = c.poll.best_time;
  }
  return c;
}

}  // namespace xp::core
