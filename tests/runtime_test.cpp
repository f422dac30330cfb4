// Unit tests for the 1-processor measurement runtime (§3.2).
#include <gtest/gtest.h>

#include <vector>

#include "rt/collection.hpp"
#include "core/extrapolator.hpp"
#include "fiber/context.hpp"
#include "fiber/stack_pool.hpp"
#include "rt/runtime.hpp"
#include "rt/tracer.hpp"
#include "suite/suite.hpp"
#include "trace/summary.hpp"
#include "util/error.hpp"

#include "trace_order.hpp"

namespace xp::rt {
namespace {

using trace::EventKind;

// A configurable test program: each thread computes, optionally reads a
// remote element, and barriers a given number of times.
class TestProgram : public Program {
 public:
  int barriers = 1;
  double flops_per_phase = 1.136;  // = 1 us on the default sun4 host
  bool do_remote = false;

  std::string name() const override { return "test"; }

  void setup(Runtime& rt) override {
    data_ = std::make_unique<Collection<double>>(
        rt, Distribution::d1(Dist::Block, rt.n_threads(), rt.n_threads()),
        64);
    for (int i = 0; i < rt.n_threads(); ++i) data_->init(i) = i * 1.0;
  }

  void thread_main(Runtime& rt) override {
    for (int b = 0; b < barriers; ++b) {
      rt.compute_flops(flops_per_phase);
      if (do_remote && rt.n_threads() > 1) {
        const int peer = (rt.thread_id() + 1) % rt.n_threads();
        sum_ += data_->get(peer, 8);
      }
      rt.barrier();
    }
  }

  double sum_ = 0;
  std::unique_ptr<Collection<double>> data_;
};

MeasureOptions opts(int n) {
  MeasureOptions o;
  o.n_threads = n;
  return o;
}

TEST(MeasureRuntime, ProducesValidTrace) {
  TestProgram p;
  p.barriers = 3;
  const trace::Trace t = measure(p, opts(4));
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.n_threads(), 4);
  EXPECT_EQ(t.meta("program"), "test");
  EXPECT_EQ(t.meta("host"), "sun4");
}

TEST(MeasureRuntime, EventCountsMatchStructure) {
  TestProgram p;
  p.barriers = 2;
  p.do_remote = true;
  const trace::Trace t = measure(p, opts(3));
  const trace::Summary s = summarize(t);
  EXPECT_EQ(s.barriers, 2);
  EXPECT_EQ(s.remote_reads, 2 * 3);  // one per thread per phase
  // begin + end per thread + (entry + exit) * barriers * threads + reads
  EXPECT_EQ(s.events, 3 * 2 + 2 * 2 * 3 + 6);
}

TEST(MeasureRuntime, VirtualClockChargesFlops) {
  TestProgram p;
  p.barriers = 1;
  p.flops_per_phase = 1.136 * 50;  // 50 us on the sun4 rating
  const trace::Trace t = measure(p, opts(1));
  // Single thread: begin(0), entry(50us), exit(50us), end(50us).
  EXPECT_EQ(t.end_time(), Time::us(50));
}

TEST(MeasureRuntime, SharedClockSerializesThreads) {
  TestProgram p;
  p.barriers = 1;
  p.flops_per_phase = 1.136 * 10;  // 10 us each
  const trace::Trace t = measure(p, opts(4));
  // Uniprocessor: 4 threads x 10 us of compute happen back to back, so the
  // measured end time is the sum, not the max.
  EXPECT_EQ(t.end_time(), Time::us(40));
}

TEST(MeasureRuntime, BarrierExitAfterLastEntry) {
  TestProgram p;
  p.barriers = 1;
  const trace::Trace t = measure(p, opts(4));
  Time last_entry = Time::zero();
  for (const auto& e : t.events())
    if (e.kind == EventKind::BarrierEntry)
      last_entry = util::max(last_entry, e.time);
  for (const auto& e : t.events())
    if (e.kind == EventKind::BarrierExit) {
      EXPECT_GE(e.time, last_entry);
    }
}

TEST(MeasureRuntime, EventOverheadPerturbsClock) {
  TestProgram p1, p2;
  MeasureOptions o = opts(2);
  const trace::Trace base = measure(p1, o);
  o.host.event_overhead = Time::us(5);
  const trace::Trace pert = measure(p2, o);
  EXPECT_GT(pert.end_time(), base.end_time());
  EXPECT_EQ(pert.meta("event_overhead_ns"), "5000");
}

TEST(MeasureRuntime, RemoteReadsRecordBothSizes) {
  TestProgram p;
  p.do_remote = true;
  const trace::Trace t = measure(p, opts(2));
  bool found = false;
  for (const auto& e : t.events())
    if (e.kind == EventKind::RemoteRead) {
      EXPECT_EQ(e.declared_bytes, 64);
      EXPECT_EQ(e.actual_bytes, 8);
      EXPECT_EQ(e.peer, (e.thread + 1) % 2);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(MeasureRuntime, DeterministicTraces) {
  TestProgram p1, p2;
  p1.barriers = p2.barriers = 3;
  p1.do_remote = p2.do_remote = true;
  const trace::Trace a = measure(p1, opts(4));
  const trace::Trace b = measure(p2, opts(4));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MeasureRuntime, ManyThreads) {
  TestProgram p;
  p.barriers = 2;
  p.do_remote = true;
  const trace::Trace t = measure(p, opts(32));
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(summarize(t).barriers, 2);
}

TEST(MeasureRuntime, PhaseMarkersRecorded) {
  class PhaseProg : public Program {
   public:
    std::string name() const override { return "phase"; }
    void setup(Runtime&) override {}
    void thread_main(Runtime& rt) override {
      rt.phase_begin(7);
      rt.compute_flops(10);
      rt.phase_end(7);
    }
  } p;
  const trace::Trace t = measure(p, opts(2));
  int begins = 0, ends = 0;
  for (const auto& e : t.events()) {
    if (e.kind == EventKind::PhaseBegin) {
      EXPECT_EQ(e.object, 7);
      ++begins;
    }
    if (e.kind == EventKind::PhaseEnd) ++ends;
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
}

TEST(MeasureRuntime, HostClockModeMeasuresRealTime) {
  // The paper's actual measurement method: wall-clock timestamps.  The
  // event STRUCTURE must match the virtual-clock run exactly; only the
  // times differ (and are nondeterministic).
  TestProgram p1, p2;
  p1.barriers = p2.barriers = 2;
  p1.do_remote = p2.do_remote = true;
  MeasureOptions virt = opts(3);
  MeasureOptions host = opts(3);
  host.host.clock_mode = HostMachine::ClockMode::HostClock;
  const trace::Trace tv = rt::measure(p1, virt);
  const trace::Trace th = rt::measure(p2, host);
  EXPECT_NO_THROW(th.validate());
  ASSERT_EQ(th.size(), tv.size());
  for (std::size_t i = 0; i < th.size(); ++i) {
    EXPECT_EQ(th[i].kind, tv[i].kind) << i;
    EXPECT_EQ(th[i].thread, tv[i].thread) << i;
  }
  EXPECT_TRUE(test::time_ordered(th));
  // Real time passed (begin-to-end span is positive on any host).
  EXPECT_GT(th.end_time(), util::Time::zero());
}

TEST(MeasureRuntime, HostClockTraceTranslatesAndSimulates) {
  class BusyProg : public Program {
   public:
    std::string name() const override { return "busy"; }
    void setup(Runtime&) override {}
    void thread_main(Runtime& rt) override {
      for (int k = 0; k < 2; ++k) {
        // Real work so the wall clock moves.
        volatile double acc = 0;
        for (int i = 0; i < 20000; ++i) acc = acc + i * 1e-9;
        rt.compute_flops(40000);
        rt.barrier();
      }
    }
  } p;
  MeasureOptions mo = opts(4);
  mo.host.clock_mode = HostMachine::ClockMode::HostClock;
  mo.host.mflops = calibrate_mflops(1);
  const trace::Trace t = rt::measure(p, mo);
  const auto parts = core::translate(t);
  const auto r = core::simulate(parts, model::distributed_preset());
  EXPECT_GT(r.makespan, util::Time::zero());
  EXPECT_LE(core::ideal_parallel_time(parts), t.end_time());
}

TEST(Tracer, ArenaOrderMatchesRecordingStableSort) {
  // Interleave records from two threads with many equal timestamps; take()
  // must order by (time, recording order) — what the old single-vector
  // tracer's stable sort produced.
  Tracer tr(2, Time::zero());
  Time clock = Time::zero();
  for (int i = 0; i < 100; ++i) {
    trace::Event e;
    e.thread = i % 2;
    e.kind = trace::EventKind::PhaseBegin;
    e.object = i;
    tr.record(&clock, e);
    if (i % 10 == 9) clock += Time::ns(5);
  }
  EXPECT_EQ(tr.events_recorded(), 100);
  const trace::Trace t = tr.take();
  ASSERT_EQ(t.size(), 100u);
  EXPECT_TRUE(test::time_ordered(t));
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(t[i].object, static_cast<std::int64_t>(i));  // recording order
}

TEST(Tracer, CapacityHintAllocatesLogOnce) {
  const auto record_n = [](Tracer& tr, int n_threads, int per_thread) {
    Time clock = Time::zero();
    for (int i = 0; i < per_thread; ++i)
      for (int t = 0; t < n_threads; ++t) {
        trace::Event e;
        e.thread = t;
        e.kind = trace::EventKind::PhaseBegin;
        tr.record(&clock, e);
      }
  };
  Tracer cold(2, Time::zero());
  record_n(cold, 2, 3000);
  Tracer warm(2, Time::zero(), 0, Time::zero(), cold.events_recorded());
  record_n(warm, 2, 3000);
  const trace::Trace a = cold.take();
  const trace::Trace b = warm.take();
  // take() moves the log out, so its capacity shows how it grew.  Hinted
  // with the previous run's total, it is the one reserve(6000) made at
  // construction: the log was never reallocated.  Unhinted, it grew.
  EXPECT_EQ(b.events().capacity(), 6000u);
  EXPECT_GT(a.events().capacity(), 6000u);
  // Identical output either way.
  EXPECT_EQ(a.size(), 6000u);
  EXPECT_EQ(a.events(), b.events());
}

TEST(Tracer, RejectsClockGoingBackwards) {
  Tracer tr(2, Time::zero());
  trace::Event e;
  e.thread = 0;
  e.kind = trace::EventKind::PhaseBegin;
  Time clock = Time::ns(10);
  tr.record(&clock, e);
  e.thread = 1;
  tr.record(&clock, e);  // an equal timestamp is fine
  clock = Time::ns(9);
  EXPECT_THROW(tr.record(&clock, e), util::Error);
  EXPECT_EQ(tr.events_recorded(), 2);
}

TEST(MeasureRuntime, RerunUsesCapacityHintFromFirstRun) {
  TestProgram p;
  p.barriers = 4;
  // Unique thread count for this test so earlier tests' registry entries
  // don't interfere.
  const int n = 7;
  const std::int64_t before = measured_event_hint(p.name(), n);
  const trace::Trace t1 = measure(p, opts(n));
  const std::int64_t hint = measured_event_hint(p.name(), n);
  EXPECT_EQ(hint, static_cast<std::int64_t>(t1.size()));
  EXPECT_GT(hint, before);
  // The hinted rerun records the identical trace.
  TestProgram p2;
  p2.barriers = 4;
  const trace::Trace t2 = measure(p2, opts(n));
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].time, t2[i].time);
    EXPECT_EQ(t1[i].thread, t2[i].thread);
  }
}

TEST(MeasureRuntime, RemeasureReusesEveryFiberStack) {
  if (fiber::default_backend() != fiber::Backend::Fcontext)
    GTEST_SKIP() << "pooled stacks need the fcontext backend";
  const auto run = [] {
    auto prog = suite::make_by_name("cyclic");
    return measure(*prog, opts(256));
  };
  const fiber::StackPoolStats base = fiber::stack_pool_stats();
  const trace::Trace first = run();
  const fiber::StackPoolStats mid = fiber::stack_pool_stats();
  EXPECT_EQ(mid.active, base.active);
  // The second measurement finds all 256 stacks in the pool.
  const trace::Trace second = run();
  const fiber::StackPoolStats after = fiber::stack_pool_stats();
  EXPECT_EQ(after.mapped, mid.mapped);
  EXPECT_GE(after.reused - mid.reused, 256u);
  EXPECT_EQ(after.active, base.active);
  EXPECT_EQ(first.events(), second.events());
  EXPECT_EQ(first.all_meta(), second.all_meta());
}

TEST(Calibration, MflopsRatingIsPlausible) {
  const double m = calibrate_mflops(2);
  // Any machine running this suite does between 10 MFLOPS and 100 GFLOPS
  // on a scalar daxpy loop.
  EXPECT_GT(m, 10.0);
  EXPECT_LT(m, 100000.0);
}

TEST(MeasureRuntime, VerifyFailurePropagates) {
  class FailProg : public TestProgram {
   public:
    void verify() override { throw util::Error("numerical mismatch"); }
  } p;
  EXPECT_THROW(measure(p, opts(2)), util::Error);
  // The rethrown error names the configuration that failed, so a mismatch
  // deep inside a sweep says which measurement it came from.
  try {
    measure(p, opts(3));
    FAIL() << "verify failure was swallowed";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test at n_threads=3"), std::string::npos) << what;
    EXPECT_NE(what.find("numerical mismatch"), std::string::npos) << what;
  }
}

TEST(MeasureRuntime, RejectsBadConfig) {
  TestProgram p;
  MeasureOptions o;
  o.n_threads = 0;
  EXPECT_THROW(measure(p, o), util::Error);
  o.n_threads = 2;
  o.host.mflops = 0;
  EXPECT_THROW(measure(p, o), util::Error);
}

TEST(Collection, LocalRejectsNonOwned) {
  class BadProg : public Program {
   public:
    std::string name() const override { return "bad"; }
    void setup(Runtime& rt) override {
      c_ = std::make_unique<Collection<int>>(
          rt, Distribution::d1(Dist::Block, rt.n_threads(), rt.n_threads()));
    }
    void thread_main(Runtime& rt) override {
      const int other = (rt.thread_id() + 1) % rt.n_threads();
      c_->local(other) = 1;  // not ours: must throw
    }
    std::unique_ptr<Collection<int>> c_;
  } p;
  EXPECT_THROW(measure(p, opts(2)), util::Error);
}

TEST(Collection, RemoteWriteRecorded) {
  class WriteProg : public Program {
   public:
    std::string name() const override { return "w"; }
    void setup(Runtime& rt) override {
      c_ = std::make_unique<Collection<int>>(
          rt, Distribution::d1(Dist::Block, rt.n_threads(), rt.n_threads()));
    }
    void thread_main(Runtime& rt) override {
      if (rt.thread_id() == 1) c_->put(0, 42);
      rt.barrier();
      if (rt.thread_id() == 0) got_ = c_->get(0);
    }
    void verify() override { XP_REQUIRE(got_ == 42, "write lost"); }
    std::unique_ptr<Collection<int>> c_;
    int got_ = 0;
  } p;
  const trace::Trace t = measure(p, opts(2));
  EXPECT_EQ(summarize(t).remote_writes, 1);
}

TEST(Collection, DeclaredSizeMustCoverType) {
  class TinyProg : public Program {
   public:
    std::string name() const override { return "tiny"; }
    void setup(Runtime& rt) override {
      // declared 2 bytes < sizeof(double): must be rejected.
      Collection<double> c(rt, Distribution::d1(Dist::Block, 2, 2), 2);
    }
    void thread_main(Runtime&) override {}
  } p;
  EXPECT_THROW(measure(p, opts(2)), util::Error);
}

}  // namespace
}  // namespace xp::rt
