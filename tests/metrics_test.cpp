// Tests for performance metrics and report rendering.
#include <gtest/gtest.h>

#include "core/extrapolator.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "rt/collection.hpp"
#include "util/error.hpp"

namespace xp::metrics {
namespace {

using util::Time;

TEST(Metrics, SpeedupAndEfficiency) {
  EXPECT_DOUBLE_EQ(speedup(Time::ms(100), Time::ms(25)), 4.0);
  EXPECT_DOUBLE_EQ(efficiency(4.0, 8), 0.5);
  EXPECT_THROW(speedup(Time::ms(1), Time::zero()), util::Error);
  EXPECT_THROW(efficiency(1.0, 0), util::Error);
}

core::SimResult fake_result() {
  core::SimResult r;
  r.makespan = Time::ms(10);
  core::ThreadStats a;
  a.compute = Time::ms(6);
  a.comm_wait = Time::ms(2);
  a.barrier_wait = Time::ms(1);
  a.send_overhead = Time::ms(1);
  a.finish = Time::ms(10);
  core::ThreadStats b;
  b.compute = Time::ms(4);
  b.barrier_wait = Time::ms(4);
  b.service_time = Time::ms(1);
  b.finish = Time::ms(9);
  r.threads = {a, b};
  return r;
}

TEST(Metrics, BreakdownSumsToOne) {
  const Breakdown b = breakdown(fake_result());
  EXPECT_NEAR(b.compute + b.comm_wait + b.barrier_wait + b.service +
                  b.overhead + b.idle,
              1.0, 1e-12);
  EXPECT_DOUBLE_EQ(b.compute, 0.5);  // 10 ms of compute over 20 proc-ms
}

TEST(Metrics, BreakdownEmptyResultIsZero) {
  core::SimResult r;
  const Breakdown b = breakdown(r);
  EXPECT_EQ(b.compute, 0.0);
}

TEST(Metrics, SpeedupCurve) {
  const Curve c = to_speedup_curve("demo", {1, 2, 4},
                                   {Time::ms(100), Time::ms(60), Time::ms(40)});
  ASSERT_EQ(c.values.size(), 3u);
  EXPECT_DOUBLE_EQ(c.values[0], 1.0);
  EXPECT_DOUBLE_EQ(c.values[1], 100.0 / 60.0);
  EXPECT_DOUBLE_EQ(c.values[2], 2.5);
  EXPECT_THROW(to_speedup_curve("x", {1, 2}, {Time::ms(1)}), util::Error);
}

TEST(Metrics, Argmin) {
  EXPECT_EQ(argmin_time({Time::ms(5), Time::ms(2), Time::ms(9)}), 1u);
  EXPECT_EQ(argmin_time({Time::ms(2), Time::ms(7), Time::ms(2)}), 0u);
  EXPECT_THROW(argmin_time({}), util::Error);
}

TEST(Report, PredictionRendering) {
  core::Prediction p;
  p.n_threads = 2;
  p.measured_time = Time::ms(20);
  p.ideal_time = Time::ms(10);
  p.predicted_time = Time::ms(13);
  p.sim = fake_result();
  const std::string out = render_prediction(p, true);
  EXPECT_NE(out.find("predicted"), std::string::npos);
  EXPECT_NE(out.find("breakdown"), std::string::npos);
  EXPECT_NE(out.find("thr"), std::string::npos);
}

TEST(Report, CurveRendering) {
  std::vector<Curve> curves{{"a", {1, 2, 4}, {1.0, 1.8, 3.1}},
                            {"b", {1, 2, 4}, {1.0, 1.2, 1.3}}};
  const std::string out = render_curves("Figure X", curves, "speedup");
  EXPECT_NE(out.find("Figure X"), std::string::npos);
  EXPECT_NE(out.find("procs"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("processors"), std::string::npos);
}

TEST(Report, CurveRenderingRejectsMismatch) {
  std::vector<Curve> curves{{"a", {1, 2}, {1.0, 2.0}},
                            {"b", {1, 4}, {1.0, 2.0}}};
  EXPECT_THROW(render_curves("t", curves, "v"), util::Error);
  EXPECT_THROW(render_curves("t", {}, "v"), util::Error);
}

}  // namespace
}  // namespace xp::metrics
