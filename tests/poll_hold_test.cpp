// Held poll intervals against the eager oracle at forced ties.
//
// Under the Poll policy, SimMode::Auto holds a compute interval as one
// completion and builds a chunk or poll boundary only when something
// touches the CPU (core/simulator.cpp, DESIGN.md §8 and §13).  Eager
// replay fires two events per boundary, and when a touch lands at exactly
// a boundary instant the engine's equal-time order decides the outcome:
// a request pushed at a poll end is drained at that poll or waits a whole
// chunk, and a barrier arrival front-inserted at a chunk end runs before
// or after the poll.  These tests place deliveries exactly on chunk ends
// and poll ends of a held interval — scheduled before, at the same instant
// as, and after the boundary's eager twin — and require Auto to equal
// EventDriven bit for bit.  Random traces on a coarse time grid, where
// such ties are everywhere, and an sp1 suite cell with fewer processors
// than threads close the file.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_trace.hpp"
#include "core/simulator.hpp"
#include "core/translate.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"

#include "sim_oracle.hpp"

namespace xp::core {
namespace {

using model::SimParams;
using trace::Event;
using trace::EventKind;
using trace::Trace;

Event ev(Time t, int thread, EventKind kind, int barrier = -1,
         int peer = -1) {
  Event e;
  e.time = t;
  e.thread = thread;
  e.kind = kind;
  e.barrier_id = barrier;
  e.peer = peer;
  return e;
}

/// Auto against EventDriven on one trace set; returns both runs.
std::pair<SimResult, SimResult> check(const std::vector<Trace>& traces,
                                      const SimParams& p,
                                      const std::string& what) {
  SimResult oracle = simulate(traces, p, {SimMode::EventDriven, true});
  SimResult held = simulate(traces, p, {SimMode::Auto, true});
  test::expect_same_result(oracle, held, what);
  return {std::move(oracle), std::move(held)};
}

std::vector<Time> finishes(const SimResult& r) {
  std::vector<Time> f;
  for (const ThreadStats& s : r.threads) f.push_back(s.finish);
  return f;
}

// --- deliveries on a boundary ---------------------------------------------
//
// Thread 0 computes one long interval from time 0: chunks 0..j+1 of the
// poll interval I, the last one half as long, with a poll of o after each
// but the last.  Chunk c starts at c·(I + o).  Thread 1 computes in pieces
// shorter than I (so it never polls itself) and then touches thread 0's
// CPU: a remote read (inbox push) or a barrier arrival (front insert).
// Its message's wire time sets the instant the delivery was scheduled
// relative to the twin's.  In the barrier cases thread 2 reads from
// thread 0 one nanosecond after the poll window of a chunk-end tie, so the
// two orders of arrival and poll are told apart by when it is served.

struct Boundary {
  bool barrier;   // touch by barrier arrival (else by request)
  bool poll_end;  // the poll end after chunk j (else chunk j's end)
  Time shift;     // delivery scheduled this much before the twin (< 0: after)
  Time offset;    // delivery at the boundary + offset
};

struct Machine {
  Time interval, overhead, send_cpu;
};

SimParams lab(const Machine& m, Time wire) {
  SimParams p;
  p.comm.msg_build = Time::us(1);
  p.comm.comm_startup = m.send_cpu - p.comm.msg_build;
  p.comm.hop_latency = wire;
  p.comm.byte_transfer = Time::zero();
  p.comm.recv_overhead = Time::us(2);
  p.comm.request_bytes = 0;
  p.comm.reply_header_bytes = 0;
  p.proc.policy = model::ServicePolicy::Poll;
  p.proc.poll_interval = m.interval;
  p.proc.poll_overhead = m.overhead;
  p.proc.request_service = Time::us(3);
  p.network.topology = net::TopologyKind::Crossbar;
  p.network.contention.enabled = false;
  p.barrier = model::BarrierParams{};
  p.barrier.alg = model::BarrierAlg::Linear;
  p.barrier.by_msgs = true;
  p.barrier.msg_size = 0;
  p.barrier.entry_time = Time::us(2);
  p.barrier.check_time = Time::us(1);
  p.barrier.exit_check_time = Time::us(1);
  p.barrier.exit_time = Time::us(2);
  p.barrier.model_time = Time::us(1);
  return p;
}

/// A thread that computes `until` in pieces shorter than `interval`, then
/// runs `tail` (events stamped `until`).
Trace toucher(int n, int id, Time until, Time interval,
              const std::vector<Event>& tail) {
  Trace t(n);
  t.append(ev(Time::zero(), id, EventKind::ThreadBegin));
  const Time piece = Time::ns(interval.count_ns() / 2);
  for (Time at = piece; at < until; at += piece)
    t.append(ev(at, id, EventKind::PhaseBegin));
  for (Event e : tail) {
    e.time = until;
    e.thread = id;
    t.append(e);
  }
  return t;
}

SimResult run_boundary(const Machine& m, const Boundary& b) {
  const int j = 2;
  const Time step = m.interval + m.overhead;
  const Time chunk_start = Time::ns(step.count_ns() * j);
  const Time at = chunk_start + m.interval + (b.poll_end ? m.overhead : Time::zero());
  const Time twin_sched = b.poll_end ? chunk_start + m.interval : chunk_start;
  const Time wire = at - twin_sched + b.shift;
  const SimParams p = lab(m, wire);
  const Time entry = p.barrier.entry_time;
  const int n = b.barrier ? 3 : 2;

  std::vector<Trace> ts;
  Trace owner(n);
  const Time length = Time::ns(m.interval.count_ns() * (j + 1)) +
                      Time::ns(m.interval.count_ns() / 2);
  owner.append(ev(Time::zero(), 0, EventKind::ThreadBegin));
  if (b.barrier) {
    owner.append(ev(length, 0, EventKind::BarrierEntry, 0));
    owner.append(ev(length, 0, EventKind::BarrierExit, 0));
  }
  owner.append(ev(length, 0, EventKind::ThreadEnd));
  ts.push_back(owner);

  const Time delivered = at + b.offset;
  if (b.barrier) {
    ts.push_back(toucher(n, 1, delivered - wire - m.send_cpu - entry,
                         m.interval,
                         {ev({}, 1, EventKind::BarrierEntry, 0),
                          ev({}, 1, EventKind::BarrierExit, 0),
                          ev({}, 1, EventKind::ThreadEnd)}));
    const Time probe = at + m.overhead + Time::ns(1);
    ts.push_back(toucher(n, 2, probe - wire - m.send_cpu, m.interval,
                         {ev({}, 2, EventKind::RemoteRead, -1, 0),
                          ev({}, 2, EventKind::BarrierEntry, 0),
                          ev({}, 2, EventKind::BarrierExit, 0),
                          ev({}, 2, EventKind::ThreadEnd)}));
  } else {
    ts.push_back(toucher(n, 1, delivered - wire - m.send_cpu, m.interval,
                         {ev({}, 1, EventKind::RemoteRead, -1, 0),
                          ev({}, 1, EventKind::ThreadEnd)}));
  }
  std::string what = std::string(b.barrier ? "barrier arrival" : "request") +
                     " at " + (b.poll_end ? "poll end" : "chunk end") +
                     ", scheduled " + std::to_string(b.shift.count_ns()) +
                     " ns before the twin, delivered at boundary + " +
                     std::to_string(b.offset.count_ns()) + " ns, I=" +
                     std::to_string(m.interval.count_ns()) +
                     " o=" + std::to_string(m.overhead.count_ns()) +
                     " send=" + std::to_string(m.send_cpu.count_ns());
  return check(ts, p, what).first;
}

// Machines chosen so the touch's scheduling event and the twin's compare
// every way: a send longer and shorter than the poll (chunk-end ties), a
// send shorter than the chunk, and a send as long as the chunk, where the
// two ancestries tie once more (poll-end ties).
const Machine kMachines[] = {
    {Time::us(50), Time::us(1), Time::us(3)},
    {Time::us(50), Time::us(5), Time::us(3)},
    {Time::us(50), Time::us(3), Time::us(3)},
    {Time::us(4), Time::us(1), Time::us(4)},
};

TEST(PollHold, DeliveryOnEveryBoundaryKindMatchesEventDriven) {
  for (const Machine& m : kMachines) {
    const Time d = Time::ns(std::min(m.overhead, m.interval).count_ns() / 2);
    for (const bool barrier : {false, true})
      for (const bool poll_end : {false, true})
        for (const Time shift : {d, Time::zero(), Time::zero() - d})
          for (const std::int64_t off : {-1, 0, 1})
            run_boundary(m, {barrier, poll_end, shift, Time::ns(off)});
  }
}

// The ties above are real: one nanosecond either side of the boundary
// gives a different eager outcome wherever the order is observable.
TEST(PollHold, BoundariesAreWhereTheTestPutsThem) {
  const Machine m = kMachines[0];
  for (const Boundary side : {Boundary{false, true, {}, {}},
                              Boundary{true, false, {}, {}}}) {
    Boundary before = side, after = side;
    before.offset = Time::ns(-1);
    after.offset = Time::ns(1);
    EXPECT_NE(finishes(run_boundary(m, before)),
              finishes(run_boundary(m, after)))
        << (side.barrier ? "barrier at chunk end" : "request at poll end");
  }
}

// --- random traces on a coarse grid -----------------------------------------
//
// Whole-microsecond costs and computations make equal instants the rule:
// boundaries, deliveries and other CPUs' boundaries coincide all the time,
// often with equal schedule instants several levels up.  Message and
// analytic barriers, shared processors and clusters vary per round.

TEST(PollHold, RandomCoarseGridTracesMatchEventDriven) {
  std::mt19937 rng(20261018);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  int held = 0;  // rounds where Auto held an interval
  for (int round = 0; round < 300; ++round) {
    const int n = pick(2, 6);
    const int barriers = pick(0, 3);
    std::vector<Trace> ts;
    for (int t = 0; t < n; ++t) {
      Trace tr(n);
      Time now;
      tr.append(ev(now, t, EventKind::ThreadBegin));
      for (int b = 0; b <= barriers; ++b) {
        for (int k = pick(0, 3); k > 0; --k) {
          now += Time::us(pick(0, 25));
          const int peer = pick(0, n - 1);
          tr.append(ev(now, t, EventKind::RemoteRead, -1, peer));
        }
        now += Time::us(pick(1, 25));
        if (b < barriers) {
          tr.append(ev(now, t, EventKind::BarrierEntry, b));
          tr.append(ev(now, t, EventKind::BarrierExit, b));
        }
      }
      tr.append(ev(now, t, EventKind::ThreadEnd));
      ts.push_back(tr);
    }
    Machine m{Time::us(pick(2, 6)), Time::us(pick(0, 2)),
              Time::us(pick(1, 4))};
    SimParams p = lab(m, Time::us(pick(0, 3)));
    p.comm.recv_overhead = Time::us(pick(0, 2));
    p.proc.request_service = Time::us(pick(0, 3));
    p.barrier.alg = pick(0, 1) ? model::BarrierAlg::Linear
                               : model::BarrierAlg::LogTree;
    // Analytic barriers collapse a whole run when no access crosses a
    // cluster; otherwise the engine replays it, holding poll intervals.
    p.barrier.by_msgs = pick(0, 3) > 0;
    p.cluster.procs_per_cluster = pick(1, n);
    p.cluster.intra_latency = Time::us(pick(0, 2));
    p.barrier.entry_time = Time::us(pick(0, 2));
    p.barrier.check_time = Time::us(pick(0, 2));
    p.proc.n_procs = pick(0, 1) ? 0 : pick(1, n);
    const auto [oracle, au] = check(ts, p, "round " + std::to_string(round));
    if (HasFailure()) return;
    held += au.engine_events < oracle.engine_events &&
            au.hybrid.segments_collapsed == 0;
  }
  EXPECT_GT(held, 100);
}

// --- a suite cell sharing processors ----------------------------------------

TEST(PollHold, Sp1WithFewerProcessorsThanThreadsMatchesEventDriven) {
  auto prog = suite::make_by_name("cyclic", suite::SuiteConfig{});
  rt::MeasureOptions mo;
  mo.n_threads = 8;
  auto ct = std::make_shared<const CompiledTrace>(
      CompiledTrace::compile(translate(rt::measure(*prog, mo))));
  for (const double mips : {model::sp1_preset().proc.mips_ratio, 4.0}) {
    SimParams p = model::sp1_preset();
    p.proc.mips_ratio = mips;
    p.proc.n_procs = 3;
    const SimResult oracle =
        simulate_compiled(ct, p, {SimMode::EventDriven, true});
    const SimResult held = simulate_compiled(ct, p, {SimMode::Auto, true});
    test::expect_same_result(oracle, held, "cyclic n=8 on 3 sp1 processors");
    if (mips > 1.0) {
      EXPECT_LT(held.engine_events, oracle.engine_events);
    }
  }
}

}  // namespace
}  // namespace xp::core
