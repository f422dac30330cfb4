// Unit tests for trace translation (§3.2) — the timestamp-adjustment
// algorithm at the heart of the extrapolation — and for its two forms:
// lower_measured() (the compiled form, in one pass) and translate() (its
// expansion into per-thread traces).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/extrapolator.hpp"
#include "core/translate.hpp"
#include "rt/collection.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

#include "pool_worker.hpp"
#include "trace_order.hpp"

namespace xp::core {
namespace {

using trace::Event;
using trace::EventKind;
using trace::Trace;

Event ev(std::int64_t t_us, int thread, EventKind kind, int barrier = -1) {
  Event e;
  e.time = Time::us(static_cast<double>(t_us));
  e.thread = thread;
  e.kind = kind;
  e.barrier_id = barrier;
  return e;
}

// Hand-built measured trace: two threads on one processor.
//  thread 0: begin@0, compute 10, entry@10 ........ exit@30, compute 5, end@35
//  thread 1: begin@10 (started after t0 blocked), compute 20, entry@30,
//            exit@30 (last arriver), end@40
Trace measured_two_threads() {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(10, 0, EventKind::BarrierEntry, 0));
  t.append(ev(10, 1, EventKind::ThreadBegin));
  t.append(ev(30, 1, EventKind::BarrierEntry, 0));
  t.append(ev(30, 1, EventKind::BarrierExit, 0));
  t.append(ev(30, 0, EventKind::BarrierExit, 0));
  t.append(ev(35, 0, EventKind::ThreadEnd));
  t.append(ev(40, 1, EventKind::ThreadEnd));
  t.sort_by_time();
  return t;
}

TEST(Translate, FirstEventMovesToZero) {
  const auto parts = translate(measured_two_threads());
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].events().front().time, Time::zero());
  EXPECT_EQ(parts[1].events().front().time, Time::zero());
}

TEST(Translate, DeltasPreservedForNonSyncEvents) {
  const auto parts = translate(measured_two_threads());
  // Thread 0: begin@0, entry@10 (delta 10 preserved).
  EXPECT_EQ(parts[0].events()[1].time, Time::us(10));
  // Thread 1: begin@0', entry at +20.
  EXPECT_EQ(parts[1].events()[1].time, Time::us(20));
}

TEST(Translate, BarrierExitAlignedToLatestEntry) {
  const auto parts = translate(measured_two_threads());
  // Latest translated entry is thread 1 at 20us; both exits land there.
  EXPECT_EQ(parts[0].events()[2].time, Time::us(20));
  EXPECT_EQ(parts[1].events()[2].time, Time::us(20));
}

TEST(Translate, PostBarrierDeltasMeasuredFromExit) {
  const auto parts = translate(measured_two_threads());
  // Thread 0: exit@30 -> end@35 is 5us of compute; translated 20 -> 25.
  EXPECT_EQ(parts[0].events()[3].time, Time::us(25));
  // Thread 1: exit@30 -> end@40: translated 20 -> 30.
  EXPECT_EQ(parts[1].events()[3].time, Time::us(30));
}

TEST(Translate, IdealParallelTime) {
  const auto parts = translate(measured_two_threads());
  EXPECT_EQ(ideal_parallel_time(parts), Time::us(30));
}

TEST(Translate, MultipleBarriersChainCorrectly) {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(5, 0, EventKind::BarrierEntry, 0));
  t.append(ev(5, 1, EventKind::ThreadBegin));
  t.append(ev(6, 1, EventKind::BarrierEntry, 0));   // last in: releases
  t.append(ev(6, 1, EventKind::BarrierExit, 0));
  t.append(ev(16, 1, EventKind::BarrierEntry, 1));  // computes 10
  t.append(ev(16, 0, EventKind::BarrierExit, 0));
  t.append(ev(18, 0, EventKind::BarrierEntry, 1));  // computes 2, last in
  t.append(ev(18, 0, EventKind::BarrierExit, 1));
  t.append(ev(19, 0, EventKind::ThreadEnd));
  t.append(ev(18, 1, EventKind::BarrierExit, 1));
  t.append(ev(20, 1, EventKind::ThreadEnd));
  t.sort_by_time();
  const auto parts = translate(t);
  // Barrier 0: entries at 5 (t0) and 1 (t1: begin 0, delta 6-5=1) -> release 5.
  EXPECT_EQ(parts[0].events()[1].time, Time::us(5));
  EXPECT_EQ(parts[1].events()[1].time, Time::us(1));
  EXPECT_EQ(parts[0].events()[2].time, Time::us(5));
  EXPECT_EQ(parts[1].events()[2].time, Time::us(5));
  // Barrier 1: t0 entry 5+2=7, t1 entry 5+10=15 -> release 15.
  EXPECT_EQ(parts[0].events()[3].time, Time::us(7));
  EXPECT_EQ(parts[1].events()[3].time, Time::us(15));
  EXPECT_EQ(parts[0].events()[4].time, Time::us(15));
  EXPECT_EQ(parts[1].events()[4].time, Time::us(15));
  // Tails: t0 end 15+1=16, t1 end 15+2=17.
  EXPECT_EQ(parts[0].events()[5].time, Time::us(16));
  EXPECT_EQ(parts[1].events()[5].time, Time::us(17));
}

TEST(Translate, RemovesInstrumentationOverhead) {
  Trace t(1);
  t.set_meta("event_overhead_ns", "2000");  // 2us per recorded event
  t.append(ev(0, 0, EventKind::ThreadBegin));
  // Real compute 10us, but the clock also carries 2us of overhead from
  // recording ThreadBegin: events are 12us apart.
  t.append(ev(12, 0, EventKind::PhaseBegin));
  t.append(ev(24, 0, EventKind::ThreadEnd));
  const auto parts = translate(t);
  EXPECT_EQ(parts[0].events()[1].time, Time::us(10));
  EXPECT_EQ(parts[0].events()[2].time, Time::us(20));
}

TEST(Translate, OverheadRemovalCanBeDisabled) {
  Trace t(1);
  t.set_meta("event_overhead_ns", "2000");
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(12, 0, EventKind::ThreadEnd));
  TranslateOptions opt;
  opt.remove_event_overhead = false;
  const auto parts = translate(t, opt);
  EXPECT_EQ(parts[0].events()[1].time, Time::us(12));
}

TEST(Translate, NegativeDeltasClampToZero) {
  Trace t(1);
  t.set_meta("event_overhead_ns", "5000");  // larger than the real gap
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(2, 0, EventKind::ThreadEnd));
  const auto parts = translate(t);
  EXPECT_EQ(parts[0].events()[1].time, Time::zero());
}

TEST(Translate, ValidatesInput) {
  Trace bad(1);
  bad.append(ev(0, 0, EventKind::BarrierExit, 0));
  EXPECT_THROW(translate(bad), util::TraceError);
}

TEST(Translate, NoBarriersPureDeltaChain) {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(7, 0, EventKind::ThreadEnd));
  t.append(ev(7, 1, EventKind::ThreadBegin));
  t.append(ev(20, 1, EventKind::ThreadEnd));
  const auto parts = translate(t);
  EXPECT_EQ(parts[0].events()[1].time, Time::us(7));
  EXPECT_EQ(parts[1].events()[1].time, Time::us(13));
  EXPECT_EQ(ideal_parallel_time(parts), Time::us(13));
}

TEST(Translate, RemovesBufferFlushCharges) {
  // Every 3rd recorded event flushes the buffer (100 us).  Removal must
  // reproduce the clean measurement's translated timeline exactly.
  class Prog : public rt::Program {
   public:
    std::string name() const override { return "flushy"; }
    void setup(rt::Runtime&) override {}
    void thread_main(rt::Runtime& rt) override {
      for (int k = 0; k < 4; ++k) {
        rt.compute_flops(1136.0 * (rt.thread_id() + 1));
        rt.phase_begin(k);
        rt.phase_end(k);
        rt.barrier();
      }
    }
  };
  auto run = [](std::int64_t flush_every, Time flush_cost) {
    Prog p;
    rt::MeasureOptions mo;
    mo.n_threads = 3;
    mo.host.flush_every = flush_every;
    mo.host.flush_cost = flush_cost;
    return rt::measure(p, mo);
  };
  const Trace clean = run(0, Time::zero());
  const Trace flushed = run(3, Time::us(100));
  EXPECT_GT(flushed.end_time(), clean.end_time());
  EXPECT_EQ(flushed.meta("flush_every"), "3");

  const auto a = translate(clean);
  const auto b = translate(flushed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size());
    for (std::size_t i = 0; i < a[t].size(); ++i)
      EXPECT_EQ(a[t][i].time, b[t][i].time)
          << "thread " << t << " event " << i;
  }
}

TEST(Translate, FlushAndEventOverheadComposeExactly) {
  class Prog : public rt::Program {
   public:
    std::string name() const override { return "combo"; }
    void setup(rt::Runtime&) override {}
    void thread_main(rt::Runtime& rt) override {
      for (int k = 0; k < 3; ++k) {
        rt.compute_flops(1136.0 * 7);
        rt.barrier();
      }
    }
  };
  auto run = [](bool perturbed) {
    Prog p;
    rt::MeasureOptions mo;
    mo.n_threads = 4;
    if (perturbed) {
      mo.host.event_overhead = Time::us(5);
      mo.host.flush_every = 5;
      mo.host.flush_cost = Time::us(40);
    }
    return rt::measure(p, mo);
  };
  const auto a = translate(run(false));
  const auto b = translate(run(true));
  for (std::size_t t = 0; t < a.size(); ++t)
    for (std::size_t i = 0; i < a[t].size(); ++i)
      EXPECT_EQ(a[t][i].time, b[t][i].time);
}

TEST(Translate, SwitchOverheadOnlyLandsInDiscardedSpans) {
  // The fiber-switch cost is charged when a thread blocks at a barrier;
  // it can only inflate barrier-wait spans, which translation discards.
  class Prog : public rt::Program {
   public:
    std::string name() const override { return "switchy"; }
    void setup(rt::Runtime&) override {}
    void thread_main(rt::Runtime& rt) override {
      for (int k = 0; k < 3; ++k) {
        rt.compute_flops(1136.0 * (1 + rt.thread_id()));
        rt.barrier();
      }
    }
  };
  auto run = [](Time sw) {
    Prog p;
    rt::MeasureOptions mo;
    mo.n_threads = 4;
    mo.host.switch_overhead = sw;
    return rt::measure(p, mo);
  };
  const auto a = translate(run(Time::zero()));
  const auto b = translate(run(Time::us(25)));
  for (std::size_t t = 0; t < a.size(); ++t)
    for (std::size_t i = 0; i < a[t].size(); ++i)
      EXPECT_EQ(a[t][i].time, b[t][i].time);
}

// End-to-end property: translating a real measured trace keeps all the
// structural invariants.
TEST(Translate, RealProgramInvariants) {
  class Prog : public rt::Program {
   public:
    std::string name() const override { return "p"; }
    void setup(rt::Runtime& rt) override {
      c_ = std::make_unique<rt::Collection<double>>(
          rt,
          rt::Distribution::d1(rt::Dist::Cyclic, 2 * rt.n_threads(),
                               rt.n_threads()));
      for (std::int64_t i = 0; i < c_->size(); ++i) c_->init(i) = 1.0;
    }
    void thread_main(rt::Runtime& rt) override {
      for (int k = 0; k < 3; ++k) {
        rt.compute_flops(100.0 * (rt.thread_id() + 1));
        (void)c_->get((rt.thread_id() + k) % c_->size(), 8);
        rt.barrier();
      }
    }
    std::unique_ptr<rt::Collection<double>> c_;
  } prog;
  rt::MeasureOptions mo;
  mo.n_threads = 5;
  const Trace measured = rt::measure(prog, mo);
  const auto parts = translate(measured);
  ASSERT_EQ(parts.size(), 5u);

  // Per-thread: time-ordered, first at zero; barrier exits equal across
  // threads and equal to the max entry.
  std::vector<Time> entry(5), exit_(5);
  for (int b = 0; b < 3; ++b) {
    Time max_entry;
    for (int t = 0; t < 5; ++t) {
      const auto& evs = parts[static_cast<size_t>(t)].events();
      EXPECT_TRUE(test::time_ordered(parts[static_cast<size_t>(t)]));
      EXPECT_EQ(evs.front().time, Time::zero());
      for (std::size_t i = 0; i < evs.size(); ++i) {
        if (evs[i].kind == EventKind::BarrierEntry && evs[i].barrier_id == b)
          entry[static_cast<size_t>(t)] = evs[i].time;
        if (evs[i].kind == EventKind::BarrierExit && evs[i].barrier_id == b)
          exit_[static_cast<size_t>(t)] = evs[i].time;
      }
      max_entry = util::max(max_entry, entry[static_cast<size_t>(t)]);
    }
    for (int t = 0; t < 5; ++t) EXPECT_EQ(exit_[static_cast<size_t>(t)], max_entry);
  }
}

// --- lower_measured() and the translate() bytes it must reproduce ---------

const char* const kCodes[] = {"embar", "cyclic", "sparse", "grid",
                              "mgrid", "poisson", "sort"};
const char* const kGoldens[] = {"grid_n4.xpt", "pattern_mapreduce_n2.xpt",
                                "pattern_pipeline_n2.xpt",
                                "pattern_taskpool_n2.xpt",
                                "pipestencil_long_n4.xpt"};

Trace measure_code(const std::string& code, int n) {
  auto prog = suite::make_by_name(code);
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return rt::measure(*prog, mo);
}

Trace golden(const std::string& name) {
  return trace::load(std::string(XP_GOLDEN_DIR) + "/" + name);
}

// A 3-thread trace carrying every piece of tracer perturbation the
// translation removes: a per-event overhead larger than some gaps (those
// deltas clamp to zero) and a flush every 4th recorded event.  Its merged
// order is one no single processor produces — thread 0 leaves barrier 0
// before thread 2 arrives — which validation allows and translation must
// not depend on.
Trace perturbed_trace() {
  Trace t(3);
  t.set_meta("event_overhead_ns", "700");
  t.set_meta("flush_every", "4");
  t.set_meta("flush_cost_ns", "3000");
  auto add = [&](std::int64_t ns, int th, EventKind k, int bar = -1,
                 int peer = -1, std::int64_t obj = -1, int decl = 0,
                 int act = 0) {
    Event e;
    e.time = Time::ns(ns);
    e.thread = th;
    e.kind = k;
    e.barrier_id = bar;
    e.peer = peer;
    e.object = obj;
    e.declared_bytes = decl;
    e.actual_bytes = act;
    t.append(e);
  };
  add(0, 0, EventKind::ThreadBegin);
  add(5000, 0, EventKind::RemoteRead, -1, 1, 7, 16, 16);
  add(9000, 0, EventKind::BarrierEntry, 0);
  add(9500, 1, EventKind::ThreadBegin);
  add(12000, 1, EventKind::PhaseBegin, -1, -1, 3);
  add(12300, 1, EventKind::PhaseEnd, -1, -1, 3);
  add(20000, 1, EventKind::BarrierEntry, 0);
  add(20500, 0, EventKind::BarrierExit, 0);
  add(21000, 0, EventKind::RemoteWrite, -1, 2, 11, 16, 8);
  add(21500, 2, EventKind::ThreadBegin);
  add(30000, 2, EventKind::BarrierEntry, 0);
  add(30000, 2, EventKind::BarrierExit, 0);
  add(30100, 1, EventKind::BarrierExit, 0);
  add(31000, 0, EventKind::BarrierEntry, 1);
  add(33000, 2, EventKind::RemoteRead, -1, 0, 2, 32, 32);
  add(36000, 2, EventKind::BarrierEntry, 1);
  add(38000, 1, EventKind::BarrierEntry, 1);
  add(38000, 1, EventKind::BarrierExit, 1);
  add(38200, 0, EventKind::BarrierExit, 1);
  add(38400, 2, EventKind::BarrierExit, 1);
  add(40000, 2, EventKind::ThreadEnd);
  add(41000, 0, EventKind::ThreadEnd);
  add(45000, 1, EventKind::RemoteRead, -1, 1, 5, 8, 8);
  add(47000, 1, EventKind::ThreadEnd);
  return t;
}

TranslateOptions keep_overhead() {
  TranslateOptions opt;
  opt.remove_event_overhead = false;
  return opt;
}

/// Differing fields between two compiled forms, each counted once per
/// array element; the first few are described in `log`.
int compiled_diffs(const CompiledTrace& a, const CompiledTrace& b,
                   std::string& log) {
  int diffs = 0;
  auto diff = [&](bool same, const std::string& what) {
    if (same) return;
    if (++diffs <= 5) log += what + "; ";
  };
  diff(a.n_threads == b.n_threads, "n_threads");
  diff(a.barrier_ids == b.barrier_ids, "barrier_ids");
  diff(a.ideal_time == b.ideal_time, "ideal_time");
  diff(a.threads.size() == b.threads.size(), "thread count");
  for (std::size_t t = 0; t < std::min(a.threads.size(), b.threads.size());
       ++t) {
    const CompiledThread& x = a.threads[t];
    const CompiledThread& y = b.threads[t];
    const std::string at = "thread " + std::to_string(t) + " ";
    diff(x.ops == y.ops, at + "ops");
    diff(x.pre_delta == y.pre_delta, at + "pre_delta");
    diff(x.proto == y.proto, at + "proto");
    diff(x.remotes.size() == y.remotes.size(), at + "remote count");
    for (std::size_t r = 0; r < std::min(x.remotes.size(), y.remotes.size());
         ++r) {
      const RemoteRec& p = x.remotes[r];
      const RemoteRec& q = y.remotes[r];
      diff(p.peer == q.peer &&
               p.declared_bytes == q.declared_bytes &&
               p.actual_bytes == q.actual_bytes && p.is_write == q.is_write,
           at + "remote " + std::to_string(r));
    }
    diff(x.segments.size() == y.segments.size(), at + "segment count");
    for (std::size_t k = 0;
         k < std::min(x.segments.size(), y.segments.size()); ++k) {
      const Segment& p = x.segments[k];
      const Segment& q = y.segments[k];
      diff(p.op_begin == q.op_begin && p.op_end == q.op_end &&
               p.remote_begin == q.remote_begin &&
               p.remote_end == q.remote_end && p.presum == q.presum &&
               p.nonself_remotes == q.nonself_remotes &&
               p.nonself_declared_bytes == q.nonself_declared_bytes &&
               p.nonself_actual_bytes == q.nonself_actual_bytes,
           at + "segment " + std::to_string(k));
    }
  }
  const EpochClassTable& p = a.epoch_classes;
  const EpochClassTable& q = b.epoch_classes;
  diff(p.fingerprint == q.fingerprint, "epoch fingerprints");
  diff(p.class_of == q.class_of, "epoch classes");
  diff(p.exemplar == q.exemplar, "epoch exemplars");
  diff(p.count == q.count, "epoch class counts");
  return diffs;
}

void expect_lowering_matches(const Trace& measured,
                             const TranslateOptions& opt,
                             const std::string& what) {
  const std::vector<Trace> parts = translate(measured, opt);
  std::string log;
  EXPECT_EQ(compiled_diffs(lower_measured(measured, opt),
                           CompiledTrace::compile(parts), log),
            0)
      << what << ": " << log;
  EXPECT_EQ(lower_measured(measured, opt).ideal_time,
            ideal_parallel_time(parts))
      << what;
}

// The one-pass lowering equals compiling the per-thread translation, field
// by field: every compiled array, the proto times, the segment table, the
// epoch classes and the ideal time.  With the digest table below pinning
// translate()'s bytes, this pins lower_measured() to the two-step path.
TEST(LowerMeasured, MatchesTranslateThenCompile) {
  for (const char* code : kCodes)
    for (const int n : {1, 2, 4, 16, 64, 256})
      expect_lowering_matches(measure_code(code, n), {},
                              std::string(code) + "/" + std::to_string(n));
  for (const char* name : kGoldens)
    expect_lowering_matches(golden(name), {}, name);
  expect_lowering_matches(perturbed_trace(), {}, "perturbed");
  expect_lowering_matches(perturbed_trace(), keep_overhead(),
                          "perturbed, overhead kept");
}

TEST(LowerMeasured, ValidatesInput) {
  Trace bad(1);
  bad.append(ev(0, 0, EventKind::BarrierExit, 0));
  EXPECT_THROW(lower_measured(bad), util::TraceError);
}

/// Index of the first event of `kind` in `events`.
std::size_t first_of(const std::vector<Event>& events, EventKind kind) {
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].kind == kind) return i;
  ADD_FAILURE() << "no " << trace::to_string(kind);
  return 0;
}

/// Index of the last event of `kind` in `events`.
std::size_t last_of(const std::vector<Event>& events, EventKind kind) {
  for (std::size_t i = events.size(); i-- > 0;)
    if (events[i].kind == kind) return i;
  ADD_FAILURE() << "no " << trace::to_string(kind);
  return 0;
}

/// Remove `count` events of `events` from index `i` on.
void erase_at(std::vector<Event>& events, std::size_t i,
              std::size_t count = 1) {
  const auto at = events.begin() + static_cast<std::ptrdiff_t>(i);
  events.erase(at, at + static_cast<std::ptrdiff_t>(count));
}

// compile() is the door for translated sets that did not come from
// lower_measured(): files and hand-built sets.  Each row breaks one thing
// replay needs in the translated grid_n4 golden; compile() must refuse it
// with a TraceError naming the problem.  The first six rows break one
// thread's own stream, the last two keep every stream well-formed but
// break lockstep, which used to end in a replay deadlock.
TEST(CompileRejects, InvalidTranslatedSetsThrowTraceError) {
  using Events = std::vector<Event>;
  struct Row {
    const char* what;
    void (*mutate)(std::vector<Trace>& parts);
    const char* message;
  };
  const Row rows[] = {
      {"empty thread",
       [](std::vector<Trace>& p) { p[1].mutable_events().clear(); },
       "thread 1: thread trace is empty"},
      {"foreign event",
       [](std::vector<Trace>& p) { p[1].mutable_events()[1].thread = 2; },
       "thread 1: translated trace contains foreign events"},
      {"time runs backwards",
       [](std::vector<Trace>& p) {
         Events& es = p[1].mutable_events();
         es[last_of(es, EventKind::ThreadEnd)].time = Time::zero();
       },
       "thread 1: translated trace not time-ordered"},
      {"entry without exit",
       [](std::vector<Trace>& p) {
         Events& es = p[1].mutable_events();
         erase_at(es, first_of(es, EventKind::BarrierExit));
       },
       "thread 1: BarrierEntry without paired BarrierExit"},
      {"exit without entry",
       [](std::vector<Trace>& p) {
         Events& es = p[1].mutable_events();
         erase_at(es, first_of(es, EventKind::BarrierEntry));
       },
       "thread 1: BarrierExit without BarrierEntry"},
      {"no ThreadEnd",
       [](std::vector<Trace>& p) {
         Events& es = p[1].mutable_events();
         erase_at(es, last_of(es, EventKind::ThreadEnd));
       },
       "thread 1: no ThreadEnd"},
      {"a thread's barrier id differs",
       [](std::vector<Trace>& p) {
         Events& es = p[2].mutable_events();
         const std::size_t entry = last_of(es, EventKind::BarrierEntry);
         es[entry].barrier_id = es[entry + 1].barrier_id = 1000;
       },
       "thread 2 passes barrier 1000 where another thread passes"},
      {"a thread passes one barrier fewer",
       [](std::vector<Trace>& p) {
         Events& es = p[0].mutable_events();
         erase_at(es, last_of(es, EventKind::BarrierEntry), 2);  // and exit
       },
       "thread 0 passes only"},
  };
  const std::vector<Trace> translated = translate(golden("grid_n4.xpt"));
  ASSERT_EQ(translated.size(), 4u);
  EXPECT_NO_THROW(CompiledTrace::compile(translated));
  for (const Row& row : rows) {
    std::vector<Trace> parts = translated;
    row.mutate(parts);
    try {
      CompiledTrace::compile(parts);
      ADD_FAILURE() << row.what << ": compiled";
    } catch (const util::TraceError& e) {
      EXPECT_NE(std::string(e.what()).find(row.message), std::string::npos)
          << row.what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << row.what << ": not a TraceError: " << e.what();
    }
  }
}

struct TranslateDigest {
  const char* source;  ///< code name, golden file, or "perturbed[/kept]"
  int n;               ///< measured thread count; 0 for other sources
  std::uint64_t fnv;
};

// FNV-1a of trace_io::write_binary of every translated thread trace, in
// thread order.  Recorded from the per-thread translator that preceded
// lower_measured(); translate() is now its expansion and must reproduce
// every byte.
// clang-format off
constexpr TranslateDigest kTranslateDigests[] = {
    {"embar", 1, 0x7c8371de00724acbull},
    {"embar", 4, 0x0041df67809cfb24ull},
    {"embar", 16, 0x46721a74431c1450ull},
    {"cyclic", 1, 0x40d31387aa633151ull},
    {"cyclic", 4, 0xce465fba212694d4ull},
    {"cyclic", 16, 0xe208702eb445486aull},
    {"sparse", 1, 0xe197ff2278534118ull},
    {"sparse", 4, 0xf444c90d92d26b10ull},
    {"sparse", 16, 0x272f571505c7b3c0ull},
    {"grid", 1, 0x70a0bb9ff2256f56ull},
    {"grid", 4, 0x1c07a9629b1bcd2cull},
    {"grid", 16, 0x404ce225eb13dba2ull},
    {"mgrid", 1, 0xc6f8ee73cc41f713ull},
    {"mgrid", 4, 0x624a3048dccce069ull},
    {"mgrid", 16, 0x08e18625e5d0cbf3ull},
    {"poisson", 1, 0xe09cc0c5d0b6c2a8ull},
    {"poisson", 4, 0x092ab73b23fd41c1ull},
    {"poisson", 16, 0x83c0f4e6fa0ab02full},
    {"sort", 1, 0x9cf4fe2c5a0ebf6bull},
    {"sort", 4, 0x787bdf502e6fc97dull},
    {"sort", 16, 0x83f0903f56b838cdull},
    {"grid_n4.xpt", 0, 0xf6c70e25f2daf969ull},
    {"pattern_mapreduce_n2.xpt", 0, 0x1ba603efb050deedull},
    {"pattern_pipeline_n2.xpt", 0, 0x8686e07aa19ebef7ull},
    {"pattern_taskpool_n2.xpt", 0, 0x45a92791009979b1ull},
    {"pipestencil_long_n4.xpt", 0, 0x2c4e483570a9db4full},
    {"perturbed", 0, 0x36c241c97f8846dcull},
    {"perturbed/kept", 0, 0x3ec0a447016d2a54ull},
};
// clang-format on

std::uint64_t translated_digest(const std::vector<Trace>& parts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Trace& p : parts) {
    std::ostringstream os(std::ios::binary);
    trace::write_binary(p, os);
    for (const unsigned char c : os.str()) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(TranslateDigest, TranslatedTracesAreByteIdentical) {
  for (const TranslateDigest& d : kTranslateDigests) {
    const std::string source = d.source;
    std::vector<Trace> parts;
    if (d.n > 0)
      parts = translate(measure_code(source, d.n));
    else if (source == "perturbed")
      parts = translate(perturbed_trace());
    else if (source == "perturbed/kept")
      parts = translate(perturbed_trace(), keep_overhead());
    else
      parts = translate(golden(source));
    const std::uint64_t got = translated_digest(parts);
    char row[128];
    std::snprintf(row, sizeof row, "{\"%s\", %d, 0x%016" PRIx64 "ull},",
                  d.source, d.n, got);
    EXPECT_EQ(got, d.fnv) << "translated trace moved; new row: " << row;
  }
}

// --- thread-range lowering (DESIGN.md §9) ----------------------------------
//
// From kParallelMinThreads threads on, outside any pool, the lowering
// (lower_measured and translate) splits its per-thread work over thread
// ranges and prepare_trace summarizes beside it.  Inside a pool task the
// same calls stay on one thread: both must give the same bytes, and the
// same error.

void expect_same_summary(const trace::Summary& a, const trace::Summary& b,
                         const std::string& what) {
  EXPECT_EQ(a.str(), b.str()) << what;
  EXPECT_EQ(a.n_threads, b.n_threads) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.barriers, b.barriers) << what;
  EXPECT_EQ(a.remote_reads, b.remote_reads) << what;
  EXPECT_EQ(a.remote_writes, b.remote_writes) << what;
  EXPECT_EQ(a.declared_bytes, b.declared_bytes) << what;
  EXPECT_EQ(a.actual_bytes, b.actual_bytes) << what;
  EXPECT_EQ(a.total_compute, b.total_compute) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
  ASSERT_EQ(a.threads.size(), b.threads.size()) << what;
  for (std::size_t t = 0; t < a.threads.size(); ++t) {
    const trace::ThreadSummary& x = a.threads[t];
    const trace::ThreadSummary& y = b.threads[t];
    EXPECT_TRUE(x.events == y.events && x.remote_reads == y.remote_reads &&
                x.remote_writes == y.remote_writes &&
                x.declared_bytes == y.declared_bytes &&
                x.actual_bytes == y.actual_bytes && x.compute == y.compute &&
                x.span == y.span)
        << what << ": thread " << t;
  }
}

TEST(ParallelLowering, MatchesOneThread) {
  for (const char* code : {"embar", "cyclic", "grid", "mgrid", "poisson"}) {
    const Trace measured = measure_code(code, kParallelMinThreads);
    const TranslatedTrace par = prepare_trace(measured);
    const TranslatedTrace seq =
        test::on_pool_worker([&] { return prepare_trace(measured); });
    std::string log;
    EXPECT_EQ(compiled_diffs(*par.compiled, *seq.compiled, log), 0)
        << code << ": " << log;
    expect_same_summary(seq.measured_summary, par.measured_summary, code);

    const std::vector<Trace> parts = translate(measured);
    EXPECT_EQ(translated_digest(parts),
              translated_digest(
                  test::on_pool_worker([&] { return translate(measured); })))
        << code;
  }
}

/// "TraceError: <message>" for the util::TraceError `f()` throws, "other:
/// <message>" for any other exception, "none" if it returns.
template <class F>
std::string error_of(F f) {
  try {
    f();
  } catch (const util::TraceError& e) {
    return std::string("TraceError: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("other: ") + e.what();
  }
  return "none";
}

TEST(ParallelLowering, InvalidInputThrowsTheOneThreadError) {
  const Trace measured = measure_code("grid", kParallelMinThreads);
  const auto same_error = [](const std::string& what, const auto& f) {
    const std::string seq =
        test::on_pool_worker([&] { return error_of(f); });
    EXPECT_EQ(error_of(f), seq) << what;
    EXPECT_EQ(seq.rfind("TraceError: ", 0), 0u) << what << ": " << seq;
  };

  // validate() refuses the trace before anything else reads it, the
  // summary that runs beside the lowering included.
  Trace foreign = measured;
  foreign.mutable_events()[measured.size() / 2].thread = kParallelMinThreads;
  same_error("thread out of range", [&] { prepare_trace(foreign); });
  Trace backwards = measured;
  backwards.mutable_events()[measured.size() / 3].time = Time::zero();
  same_error("time runs backwards", [&] { prepare_trace(backwards); });
  same_error("translate, time runs backwards",
             [&] { translate(backwards); });

}

}  // namespace
}  // namespace xp::core
