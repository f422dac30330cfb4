// Tests for the extrapolation-driven runtime tuner.
#include <gtest/gtest.h>

#include "core/extrapolator.hpp"
#include "core/tuner.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"

namespace xp::core {
namespace {

TranslatedTrace cyclic_prepared(int n) {
  suite::SuiteConfig cfg;
  cfg.cyclic_size = 64;
  cfg.cyclic_width = 8;
  auto prog = suite::make_cyclic(cfg);
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return prepare_trace(rt::measure(*prog, mo));
}

TEST(Tuner, PollTuneFindsTheMinimumOfItsCandidates) {
  const TranslatedTrace tt = cyclic_prepared(8);
  auto params = model::distributed_preset();
  params.comm.comm_startup = Time::us(100);
  const std::vector<Time> candidates{Time::us(25), Time::us(100),
                                     Time::us(1000)};
  const PollTuneResult r = tune_poll_interval(tt.compiled, params, candidates);
  ASSERT_EQ(r.tried.size(), 3u);
  for (const auto& [iv, t] : r.tried) {
    EXPECT_GE(t, r.best_time);
    if (iv == r.best_interval) {
      EXPECT_EQ(t, r.best_time);
    }
  }
}

TEST(Tuner, DefaultCandidatesAreSaneAndOrdered) {
  const auto& d = default_poll_intervals();
  ASSERT_GE(d.size(), 5u);
  for (std::size_t i = 1; i < d.size(); ++i) EXPECT_LT(d[i - 1], d[i]);
  EXPECT_GT(d.front(), Time::zero());
}

TEST(Tuner, RejectsBadCandidates) {
  const TranslatedTrace tt = cyclic_prepared(4);
  auto params = model::distributed_preset();
  EXPECT_THROW(tune_poll_interval(tt.compiled, params, {}), util::Error);
  EXPECT_THROW(tune_poll_interval(tt.compiled, params, {Time::zero()}),
               util::Error);
}

TEST(Tuner, ChoosesBestOfThreePolicies) {
  const TranslatedTrace tt = cyclic_prepared(8);
  auto params = model::distributed_preset();
  params.comm.comm_startup = Time::us(100);
  const PolicyChoice c = choose_service_policy(tt.compiled, params);
  // The chosen policy's time is the min of the three reported times.
  EXPECT_EQ(c.predicted,
            util::min(c.no_interrupt_time,
                      util::min(c.interrupt_time, c.poll.best_time)));
  EXPECT_GT(c.no_interrupt_time, Time::zero());
  EXPECT_GT(c.interrupt_time, Time::zero());
  EXPECT_GT(c.poll.best_time, Time::zero());
  EXPECT_EQ(c.poll.tried.size(), default_poll_intervals().size());
}

// policy_explorer prints the tuner's times in place of one core::predict
// per configuration, so every time the tuner reports must be bitwise what
// predict gives on the same prepared trace.
TEST(Tuner, EveryTimeEqualsPredictBitwise) {
  for (const int n : {2, 8}) {
    const TranslatedTrace tt = cyclic_prepared(n);
    auto params = model::distributed_preset();
    params.comm.comm_startup = Time::us(100);
    const std::vector<Time> candidates{Time::us(50), Time::us(100),
                                       Time::us(500), Time::us(1000)};
    const PolicyChoice c =
        choose_service_policy(tt.compiled, params, candidates);

    SimParams p = params;
    p.proc.policy = model::ServicePolicy::NoInterrupt;
    EXPECT_EQ(c.no_interrupt_time, predict(tt, p).predicted_time) << n;
    p.proc.policy = model::ServicePolicy::Interrupt;
    EXPECT_EQ(c.interrupt_time, predict(tt, p).predicted_time) << n;
    p.proc.policy = model::ServicePolicy::Poll;
    ASSERT_EQ(c.poll.tried.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(c.poll.tried[i].first, candidates[i]);
      p.proc.poll_interval = candidates[i];
      EXPECT_EQ(c.poll.tried[i].second, predict(tt, p).predicted_time)
          << n << " procs, poll " << candidates[i].str();
    }
  }
}

TEST(Tuner, TuningNeverWorseThanArbitraryInterval) {
  const TranslatedTrace tt = cyclic_prepared(8);
  auto params = model::distributed_preset();
  const PollTuneResult tuned = tune_poll_interval(tt.compiled, params);
  params.proc.policy = model::ServicePolicy::Poll;
  params.proc.poll_interval = Time::us(137);  // arbitrary untuned choice
  const Time arbitrary = predict(tt, params).predicted_time;
  EXPECT_LE(tuned.best_time, arbitrary * 1.0001);
}

TEST(Tuner, DeterministicChoice) {
  const TranslatedTrace tt = cyclic_prepared(4);
  const auto params = model::distributed_preset();
  const PolicyChoice a = choose_service_policy(tt.compiled, params);
  const PolicyChoice b = choose_service_policy(tt.compiled, params);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.poll.best_interval, b.poll.best_interval);
  EXPECT_EQ(a.poll.tried, b.poll.tried);
}

}  // namespace
}  // namespace xp::core
