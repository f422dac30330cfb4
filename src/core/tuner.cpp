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

PollTuneResult tune_poll_interval(const CompiledTrace& compiled,
                                  SimParams params,
                                  const std::vector<Time>& candidates) {
  XP_REQUIRE(!candidates.empty(), "no poll intervals to try");
  params.proc.policy = model::ServicePolicy::Poll;
  PollTuneResult out;
  out.best_time = Time::max();
  for (const Time& iv : candidates) {
    XP_REQUIRE(iv > Time::zero(), "poll interval must be positive");
    params.proc.poll_interval = iv;
    const Time t = simulate_compiled(compiled, params).makespan;
    out.tried.emplace_back(iv, t);
    if (t < out.best_time) {
      out.best_time = t;
      out.best_interval = iv;
    }
  }
  return out;
}

PolicyChoice choose_service_policy(
    const CompiledTrace& compiled, SimParams params,
    const std::vector<Time>& poll_candidates) {
  PolicyChoice c;

  params.proc.policy = model::ServicePolicy::NoInterrupt;
  c.no_interrupt_time = simulate_compiled(compiled, params).makespan;

  params.proc.policy = model::ServicePolicy::Interrupt;
  c.interrupt_time = simulate_compiled(compiled, params).makespan;

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
