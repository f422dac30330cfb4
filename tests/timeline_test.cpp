// Tests for timeline reconstruction and rendering.
#include <gtest/gtest.h>

#include "core/extrapolator.hpp"
#include "metrics/timeline.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"

namespace xp::metrics {
namespace {

using trace::Event;
using trace::EventKind;
using trace::Trace;

Event ev(double t_us, int thread, EventKind kind, int barrier = -1,
         int peer = -1) {
  Event e;
  e.time = util::Time::us(t_us);
  e.thread = thread;
  e.kind = kind;
  e.barrier_id = barrier;
  e.peer = peer;
  if (trace::is_remote(kind)) {
    e.declared_bytes = 8;
    e.actual_bytes = 8;
  }
  return e;
}

Trace demo_trace() {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(10, 0, EventKind::BarrierEntry, 0));
  t.append(ev(30, 0, EventKind::BarrierExit, 0));
  t.append(ev(40, 0, EventKind::ThreadEnd));
  t.append(ev(5, 1, EventKind::ThreadBegin));
  t.append(ev(12, 1, EventKind::RemoteRead, -1, 0));
  t.append(ev(25, 1, EventKind::BarrierEntry, 0));
  t.append(ev(30, 1, EventKind::BarrierExit, 0));
  t.append(ev(33, 1, EventKind::ThreadEnd));
  t.sort_by_time();
  return t;
}

TEST(Timeline, SegmentsClassifyActivities) {
  const auto tl = build_timeline(demo_trace());
  ASSERT_EQ(tl.size(), 2u);
  // Thread 0: compute [0,10], barrier [10,30], compute [30,40].
  ASSERT_EQ(tl[0].size(), 3u);
  EXPECT_EQ(tl[0][0].what, Activity::Compute);
  EXPECT_EQ(tl[0][1].what, Activity::BarrierWait);
  EXPECT_EQ(tl[0][1].begin, util::Time::us(10));
  EXPECT_EQ(tl[0][1].end, util::Time::us(30));
  EXPECT_EQ(tl[0][2].what, Activity::Compute);
  // Thread 1: idle [0,5], compute [5,12], comm [12,25], barrier [25,30],
  // compute [30,33].
  ASSERT_EQ(tl[1].size(), 5u);
  EXPECT_EQ(tl[1][0].what, Activity::Idle);
  EXPECT_EQ(tl[1][2].what, Activity::CommWait);
  EXPECT_EQ(tl[1][3].what, Activity::BarrierWait);
}

TEST(Timeline, TotalsSumToSpan) {
  const auto tl = build_timeline(demo_trace());
  const ActivityTotals t0 = totals(tl[0], util::Time::us(40));
  EXPECT_EQ(t0.compute, util::Time::us(20));
  EXPECT_EQ(t0.barrier, util::Time::us(20));
  EXPECT_EQ(t0.idle, util::Time::zero());
  const ActivityTotals t1 = totals(tl[1], util::Time::us(40));
  EXPECT_EQ(t1.comm, util::Time::us(13));
  // Trailing idle after ThreadEnd at 33 up to the global end 40.
  EXPECT_EQ(t1.idle, util::Time::us(5 + 7));
}

TEST(Timeline, RenderingShowsGlyphsAndLegend) {
  const std::string out = render_timeline(demo_trace(), 40);
  EXPECT_NE(out.find('='), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('~'), std::string::npos);
  EXPECT_NE(out.find("barrier wait"), std::string::npos);
  // Two thread rows + axis + legend.
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Timeline, RejectsSillyWidth) {
  EXPECT_THROW(render_timeline(demo_trace(), 2), util::Error);
}

TEST(Timeline, GlyphsDistinct) {
  EXPECT_NE(activity_glyph(Activity::Compute),
            activity_glyph(Activity::CommWait));
  EXPECT_NE(activity_glyph(Activity::BarrierWait),
            activity_glyph(Activity::Idle));
}

TEST(Timeline, WorksOnRealExtrapolatedTrace) {
  suite::SuiteConfig cfg;
  cfg.grid_blocks = 4;
  cfg.grid_block_points = 8;
  cfg.grid_iters = 3;
  auto prog = suite::make_grid(cfg);
  core::Extrapolator x(model::distributed_preset());
  const core::Prediction p = x.extrapolate(*prog, 4);
  const auto tl = build_timeline(p.sim.extrapolated());
  ASSERT_EQ(tl.size(), 4u);
  // Segments tile [first event, last event] per thread without overlap.
  for (const auto& segs : tl) {
    for (std::size_t i = 1; i < segs.size(); ++i)
      EXPECT_EQ(segs[i].begin, segs[i - 1].end);
  }
  const std::string out = render_timeline(p.sim.extrapolated());
  EXPECT_FALSE(out.empty());
}

TEST(Timeline, LoadImbalanceDetectsIdleThreads) {
  suite::SuiteConfig cfg;
  cfg.grid_blocks = 4;
  cfg.grid_block_points = 8;
  cfg.grid_iters = 3;
  // 8 threads, square-floor: 4 idle -> strong imbalance.
  auto prog8 = suite::make_grid(cfg);
  core::Extrapolator x(model::distributed_preset());
  const double imb8 = load_imbalance(x.extrapolate(*prog8, 8).sim);
  EXPECT_GT(imb8, 0.5);
  // 4 threads: balanced.
  auto prog4 = suite::make_grid(cfg);
  const double imb4 = load_imbalance(x.extrapolate(*prog4, 4).sim);
  EXPECT_LT(imb4, 0.05);
}

TEST(Timeline, EmptyResultIsBalanced) {
  core::SimResult r;
  EXPECT_EQ(load_imbalance(r), 0.0);
}

}  // namespace
}  // namespace xp::metrics
