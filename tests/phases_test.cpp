// Tests for per-phase profiling and scalability analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "core/extrapolator.hpp"
#include "metrics/phases.hpp"
#include "metrics/scalability.hpp"
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
  if (trace::is_remote(kind)) e.declared_bytes = e.actual_bytes = 8;
  return e;
}

// Two threads, two barriers, asymmetric phases.
Trace two_phase_trace() {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(10, 0, EventKind::BarrierEntry, 0));
  t.append(ev(30, 0, EventKind::BarrierExit, 0));
  t.append(ev(70, 0, EventKind::BarrierEntry, 1));
  t.append(ev(70, 0, EventKind::BarrierExit, 1));
  t.append(ev(75, 0, EventKind::ThreadEnd));
  t.append(ev(0, 1, EventKind::ThreadBegin));
  t.append(ev(20, 1, EventKind::RemoteRead, -1, 0));
  t.append(ev(30, 1, EventKind::BarrierEntry, 0));
  t.append(ev(30, 1, EventKind::BarrierExit, 0));
  t.append(ev(50, 1, EventKind::BarrierEntry, 1));
  t.append(ev(70, 1, EventKind::BarrierExit, 1));
  t.append(ev(70, 1, EventKind::ThreadEnd));
  t.sort_by_time();
  return t;
}

TEST(Phases, SlicesAtBarriers) {
  const auto phases = profile_phases(two_phase_trace());
  ASSERT_EQ(phases.size(), 3u);  // two barrier phases + tail
  EXPECT_EQ(phases[0].barrier_id, 0);
  EXPECT_EQ(phases[1].barrier_id, 1);
  EXPECT_EQ(phases[2].barrier_id, -1);  // tail (thread 0's last 5 us)
}

TEST(Phases, BusySpansPerThread) {
  const auto phases = profile_phases(two_phase_trace());
  // Phase 0: thread 0 busy 0..10 (10), thread 1 busy 0..30 (30).
  EXPECT_EQ(phases[0].busy[0], util::Time::us(10));
  EXPECT_EQ(phases[0].busy[1], util::Time::us(30));
  EXPECT_EQ(phases[0].begin, util::Time::zero());
  EXPECT_EQ(phases[0].end, util::Time::us(30));
  // Phase 1: thread 0 busy 30..70 (40), thread 1 busy 30..50 (20).
  EXPECT_EQ(phases[1].busy[0], util::Time::us(40));
  EXPECT_EQ(phases[1].busy[1], util::Time::us(20));
  EXPECT_EQ(phases[1].end, util::Time::us(70));
}

TEST(Phases, ImbalanceAndAccessCounting) {
  const auto phases = profile_phases(two_phase_trace());
  // Phase 0: busy 10 and 30 -> mean 20, max 30 -> imbalance 0.5.
  EXPECT_NEAR(phases[0].imbalance(), 0.5, 1e-12);
  EXPECT_EQ(phases[0].total_accesses(), 1);
  EXPECT_EQ(phases[0].remote_accesses[1], 1);
  EXPECT_EQ(phases[1].total_accesses(), 0);
}

TEST(Phases, RenderingFlagsCostAndSkew) {
  const auto phases = profile_phases(two_phase_trace());
  const std::string out = render_phase_table(phases);
  EXPECT_NE(out.find("<=cost"), std::string::npos);
  EXPECT_NE(out.find("<=skew"), std::string::npos);
  EXPECT_NE(out.find("(tail)"), std::string::npos);
}

TEST(Phases, WorksOnRealBenchmarkTraces) {
  suite::SuiteConfig cfg;
  cfg.cyclic_size = 64;
  cfg.cyclic_width = 4;
  auto prog = suite::make_cyclic(cfg);
  rt::MeasureOptions mo;
  mo.n_threads = 4;
  const Trace measured = rt::measure(*prog, mo);
  const auto phases = profile_phases(measured);
  // init barrier + 6 reduction steps + final barrier (+ maybe tail).
  EXPECT_GE(phases.size(), 8u);
  util::Time total;
  for (const auto& p : phases) total += p.duration();
  EXPECT_GT(total, util::Time::zero());
  // Phase boundaries are non-decreasing.
  for (std::size_t i = 1; i < phases.size(); ++i)
    EXPECT_GE(phases[i].begin, phases[i - 1].begin);
}

TEST(Phases, ExtrapolatedTraceProfiles) {
  suite::SuiteConfig cfg;
  cfg.grid_blocks = 4;
  cfg.grid_block_points = 8;
  cfg.grid_iters = 4;
  auto prog = suite::make_grid(cfg);
  core::Extrapolator x(model::distributed_preset());
  const auto pred = x.extrapolate(*prog, 8);
  const auto phases = profile_phases(pred.sim.extrapolated());
  EXPECT_GE(phases.size(), 4u);
  // With 4 of 8 processors idle, per-phase imbalance is severe.
  double worst = 0;
  for (const auto& p : phases) worst = std::max(worst, p.imbalance());
  EXPECT_GT(worst, 0.5);
}

// --- scalability --------------------------------------------------------

TEST(Scalability, KarpFlattKnownValues) {
  // Perfect speedup -> zero serial fraction.
  EXPECT_NEAR(karp_flatt(4.0, 4), 0.0, 1e-12);
  // Amdahl with f = 0.1 at n = 4: S = 1/(0.1 + 0.9/4) = 3.0769...
  const double s = 1.0 / (0.1 + 0.9 / 4);
  EXPECT_NEAR(karp_flatt(s, 4), 0.1, 1e-12);
  EXPECT_THROW(karp_flatt(2.0, 1), util::Error);
  EXPECT_THROW(karp_flatt(0.0, 4), util::Error);
}

TEST(Scalability, AmdahlFitRecoversExactCurve) {
  // Generate times from a pure Amdahl law and recover f.
  const double f = 0.07, t1 = 1000.0;
  std::vector<int> procs{1, 2, 4, 8, 16, 32};
  std::vector<Time> times;
  for (int n : procs)
    times.push_back(util::Time::us(t1 * (f + (1 - f) / n)));
  const ScalabilityReport r = analyze_scalability(procs, times);
  EXPECT_NEAR(r.amdahl_f, f, 1e-5);  // ns rounding in Time
  EXPECT_NEAR(r.max_speedup(), 1.0 / f, 1e-2);
  EXPECT_NEAR(r.projected_speedup(64), 1.0 / (f + (1 - f) / 64), 1e-3);
  for (double kf : r.serial_fraction) EXPECT_NEAR(kf, f, 1e-5);
}

TEST(Scalability, PerfectScalingHasNoBound) {
  std::vector<int> procs{1, 2, 4};
  std::vector<Time> times{util::Time::ms(8), util::Time::ms(4),
                          util::Time::ms(2)};
  const ScalabilityReport r = analyze_scalability(procs, times);
  EXPECT_NEAR(r.amdahl_f, 0.0, 1e-12);
  EXPECT_TRUE(std::isinf(r.max_speedup()));
}

TEST(Scalability, ValidatesInput) {
  EXPECT_THROW(analyze_scalability({1}, {util::Time::ms(1)}), util::Error);
  EXPECT_THROW(analyze_scalability({0, 4}, {util::Time::ms(1),
                                            util::Time::ms(1)}),
               util::Error);
  EXPECT_THROW(analyze_scalability({1, 1}, {util::Time::ms(1),
                                            util::Time::ms(1)}),
               util::Error);
  EXPECT_THROW(analyze_scalability({1, 2}, {util::Time::ms(1),
                                            util::Time::zero()}),
               util::Error);
}

TEST(Scalability, NonUnitBaseline) {
  // A curve whose smallest count is 2: speedups are relative to that run
  // and the generalized Karp-Flatt / Amdahl fit recover the same serial
  // fraction that generated the data.
  const double f = 0.1, t1 = 1000.0;
  std::vector<int> procs{2, 4, 8, 16};
  std::vector<Time> times;
  for (int n : procs)
    times.push_back(util::Time::us(t1 * (f + (1 - f) / n)));
  const ScalabilityReport r = analyze_scalability(procs, times);
  EXPECT_EQ(r.baseline_procs, 2);
  EXPECT_NEAR(r.speedups.front(), 1.0, 1e-12);
  // Relative speedup at n=16 vs n=2 under Amdahl with serial fraction f.
  const double expect_s =
      (f + (1 - f) / 2.0) / (f + (1 - f) / 16.0);
  EXPECT_NEAR(r.speedups.back(), expect_s, 1e-4);
  EXPECT_NEAR(r.projected_speedup(16), expect_s, 1e-4);
  EXPECT_GT(r.amdahl_r2, 0.999);
  // The generalized Karp-Flatt recovers the serial fraction RELATIVE to
  // the 2-processor run: its parallel part is (1-f)/2 of the 1-proc time.
  const double f_rel = f / (f + (1 - f) / 2.0);
  for (double kf : r.serial_fraction) EXPECT_NEAR(kf, f_rel, 1e-4);
  const std::string out = render_scalability(r);
  EXPECT_NE(out.find("n=2 baseline"), std::string::npos);
}

TEST(Scalability, KarpFlattBaselineReducesToClassic) {
  EXPECT_NEAR(karp_flatt(3.0, 8, 1), karp_flatt(3.0, 8), 1e-15);
  EXPECT_THROW(karp_flatt(2.0, 4, 4), util::Error);
  EXPECT_THROW(karp_flatt(2.0, 4, 0), util::Error);
}

TEST(Scalability, RenderMentionsKeyFigures) {
  std::vector<int> procs{1, 2, 4, 8};
  std::vector<Time> times{util::Time::ms(80), util::Time::ms(45),
                          util::Time::ms(28), util::Time::ms(20)};
  const std::string out = render_scalability(
      analyze_scalability(procs, times));
  EXPECT_NE(out.find("Amdahl"), std::string::npos);
  EXPECT_NE(out.find("Karp-Flatt"), std::string::npos);
  EXPECT_NE(out.find("projected"), std::string::npos);
}

TEST(Scalability, OverheadGrowthFlagged) {
  // Times with overhead growing in n (communication-like): Karp-Flatt
  // fraction rises and the report calls it out.
  std::vector<int> procs{1, 2, 4, 8, 16};
  std::vector<Time> times;
  for (int n : procs)
    times.push_back(util::Time::us(1000.0 / n + 30.0 * n));
  const ScalabilityReport r = analyze_scalability(procs, times);
  EXPECT_GT(r.serial_fraction.back(), r.serial_fraction.front());
  EXPECT_NE(render_scalability(r).find("overhead"), std::string::npos);
}

}  // namespace
}  // namespace xp::metrics
