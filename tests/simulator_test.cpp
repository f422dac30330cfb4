// Unit tests for the trace-driven extrapolation simulator (§3.3).
//
// Hand-built translated traces are replayed against hand-computed cost
// expectations, exercising each model component: MipsRatio scaling, the
// remote request/service/reply protocol, the linear message barrier, the
// analytic barrier, the three service policies, and the multithreading
// extension.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "core/simulator.hpp"
#include "core/translate.hpp"
#include "model/barrier_model.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

#include "trace_order.hpp"

namespace xp::core {
namespace {

using model::ServicePolicy;
using model::SimParams;
using trace::Event;
using trace::EventKind;
using trace::Trace;

Event ev(double t_us, int thread, EventKind kind, int barrier = -1,
         int peer = -1, int declared = 0, int actual = 0) {
  Event e;
  e.time = Time::us(t_us);
  e.thread = thread;
  e.kind = kind;
  e.barrier_id = barrier;
  e.peer = peer;
  e.declared_bytes = declared;
  e.actual_bytes = actual;
  return e;
}

// Build one thread's translated trace from events.
Trace thread_trace(int n_threads, std::vector<Event> events) {
  Trace t(n_threads);
  for (const Event& e : events) t.append(e);
  return t;
}

// All-zero-cost parameters.
SimParams ideal() { return model::ideal_preset(); }

// Distinct, hand-checkable costs over a crossbar (1 hop) without contention.
SimParams lab_params() {
  SimParams p;
  p.comm.msg_build = Time::us(1);
  p.comm.comm_startup = Time::us(10);
  p.comm.hop_latency = Time::us(0.5);
  p.comm.byte_transfer = Time::us(0.01);
  p.comm.recv_overhead = Time::us(2);
  p.comm.request_bytes = 32;
  p.comm.reply_header_bytes = 16;
  p.proc.request_service = Time::us(3);
  p.proc.interrupt_overhead = Time::us(4);
  p.proc.poll_overhead = Time::us(1);
  p.network.topology = net::TopologyKind::Crossbar;
  p.network.contention.enabled = false;
  p.size_mode = model::TransferSizeMode::Actual;
  // Barrier costs zeroed unless a test sets them.
  p.barrier = model::BarrierParams{};
  p.barrier.by_msgs = false;
  p.barrier.entry_time = Time::zero();
  p.barrier.exit_time = Time::zero();
  p.barrier.check_time = Time::zero();
  p.barrier.exit_check_time = Time::zero();
  p.barrier.model_time = Time::zero();
  return p;
}

TEST(Simulator, ZeroCostReproducesIdealTime) {
  // Two threads, one barrier, computes of 10 and 30 us.
  std::vector<Trace> ts;
  ts.push_back(thread_trace(
      2, {ev(0, 0, EventKind::ThreadBegin), ev(10, 0, EventKind::BarrierEntry, 0),
          ev(30, 0, EventKind::BarrierExit, 0), ev(35, 0, EventKind::ThreadEnd)}));
  ts.push_back(thread_trace(
      2, {ev(0, 1, EventKind::ThreadBegin), ev(30, 1, EventKind::BarrierEntry, 0),
          ev(30, 1, EventKind::BarrierExit, 0), ev(42, 1, EventKind::ThreadEnd)}));
  const SimResult r = simulate(ts, ideal());
  EXPECT_EQ(r.makespan, Time::us(42));
  EXPECT_EQ(r.makespan, ideal_parallel_time(ts));
}

TEST(Simulator, MipsRatioScalesComputation) {
  std::vector<Trace> ts;
  ts.push_back(thread_trace(1, {ev(0, 0, EventKind::ThreadBegin),
                                ev(100, 0, EventKind::ThreadEnd)}));
  SimParams p = ideal();
  p.proc.mips_ratio = 0.5;
  EXPECT_EQ(simulate(ts, p).makespan, Time::us(50));
  p.proc.mips_ratio = 2.0;
  EXPECT_EQ(simulate(ts, p).makespan, Time::us(200));
  EXPECT_EQ(simulate(ts, p).threads[0].compute, Time::us(200));
}

TEST(Simulator, RemoteAccessCostDecomposition) {
  // Requester (thread 1) reads from an already-finished owner (thread 0).
  std::vector<Trace> ts;
  ts.push_back(thread_trace(2, {ev(0, 0, EventKind::ThreadBegin),
                                ev(0, 0, EventKind::ThreadEnd)}));
  ts.push_back(thread_trace(
      2, {ev(0, 1, EventKind::ThreadBegin),
          ev(0, 1, EventKind::RemoteRead, -1, 0, 100, 20),
          ev(0, 1, EventKind::ThreadEnd)}));
  const SimParams p = lab_params();
  const SimResult r = simulate(ts, p);
  // send cpu (1+10) + request wire (0.5 + 32*0.01)
  // + service (2+3+1+10) + reply wire (0.5 + (16+20)*0.01) + recv (2)
  const Time expect = Time::us(11 + 0.5 + 0.32 + 16 + 0.5 + 0.36 + 2);
  EXPECT_EQ(r.threads[1].finish, expect);
  EXPECT_EQ(r.makespan, expect);
  EXPECT_EQ(r.messages, 2);
  EXPECT_EQ(r.bytes, 32 + 36);
  EXPECT_EQ(r.threads[0].requests_served, 1);
  EXPECT_EQ(r.threads[1].remote_accesses, 1);
}

TEST(Simulator, DeclaredSizeModeInflatesReply) {
  std::vector<Trace> ts;
  ts.push_back(thread_trace(2, {ev(0, 0, EventKind::ThreadBegin),
                                ev(0, 0, EventKind::ThreadEnd)}));
  ts.push_back(thread_trace(
      2, {ev(0, 1, EventKind::ThreadBegin),
          ev(0, 1, EventKind::RemoteRead, -1, 0, 100, 20),
          ev(0, 1, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.size_mode = model::TransferSizeMode::Declared;
  const SimResult declared = simulate(ts, p);
  p.size_mode = model::TransferSizeMode::Actual;
  const SimResult actual = simulate(ts, p);
  // 80 extra bytes at 0.01 us/B.
  EXPECT_EQ(declared.makespan - actual.makespan, Time::us(0.8));
  EXPECT_EQ(declared.bytes - actual.bytes, 80);
}

// Owner computing for 100us; requester asks at ~11.82us.  Policies resolve
// the service start differently.
std::vector<Trace> owner_busy_traces() {
  std::vector<Trace> ts;
  ts.push_back(thread_trace(2, {ev(0, 0, EventKind::ThreadBegin),
                                ev(100, 0, EventKind::ThreadEnd)}));
  ts.push_back(thread_trace(
      2, {ev(0, 1, EventKind::ThreadBegin),
          ev(0, 1, EventKind::RemoteRead, -1, 0, 20, 20),
          ev(0, 1, EventKind::ThreadEnd)}));
  return ts;
}

TEST(Simulator, NoInterruptServesAtOwnerCompletion) {
  SimParams p = lab_params();
  p.proc.policy = ServicePolicy::NoInterrupt;
  const SimResult r = simulate(owner_busy_traces(), p);
  // Owner finishes compute at 100, then services: 16us; reply wire
  // 0.5 + 36*0.01 = 0.86; recv 2.
  EXPECT_EQ(r.threads[1].finish, Time::us(100 + 16 + 0.86 + 2));
  // Owner's own finish is unaffected (it completed before servicing).
  EXPECT_EQ(r.threads[0].finish, Time::us(100));
}

TEST(Simulator, InterruptPreemptsOwnerCompute) {
  SimParams p = lab_params();
  p.proc.policy = ServicePolicy::Interrupt;
  const SimResult r = simulate(owner_busy_traces(), p);
  // Request arrives at 11 + 0.82 = 11.82; owner interrupted: service
  // (4 + 16) then finishes its remaining compute: 100 + 20 = 120.
  EXPECT_EQ(r.threads[0].finish, Time::us(120));
  // Requester: 11.82 + 20 (service) + 0.86 + 2 = 34.68.
  EXPECT_EQ(r.threads[1].finish, Time::us(11.82 + 20 + 0.86 + 2));
  EXPECT_EQ(r.threads[0].interrupts_taken, 1);
}

TEST(Simulator, PollServicesAtChunkBoundary) {
  SimParams p = lab_params();
  p.proc.policy = ServicePolicy::Poll;
  p.proc.poll_interval = Time::us(30);
  const SimResult r = simulate(owner_busy_traces(), p);
  // Owner chunks: 30,30,30,10 -> 3 poll checks.  Request (arrives 11.82)
  // is picked up at the first boundary: 30 + poll_overhead(1), then
  // serviced (16).  Requester resumes at 47 + 0.86 + 2.
  EXPECT_EQ(r.threads[1].finish, Time::us(47 + 0.86 + 2));
  EXPECT_EQ(r.threads[0].polls, 3);
  // Owner's compute stream is pushed back by the service work:
  // 100 + 3 polls + 16 service = 119.
  EXPECT_EQ(r.threads[0].finish, Time::us(119));
}

TEST(Simulator, AnalyticBarrierMatchesClosedForm) {
  std::vector<Trace> ts;
  ts.push_back(thread_trace(
      2, {ev(0, 0, EventKind::ThreadBegin), ev(40, 0, EventKind::BarrierEntry, 0),
          ev(70, 0, EventKind::BarrierExit, 0), ev(70, 0, EventKind::ThreadEnd)}));
  ts.push_back(thread_trace(
      2, {ev(0, 1, EventKind::ThreadBegin), ev(70, 1, EventKind::BarrierEntry, 0),
          ev(70, 1, EventKind::BarrierExit, 0), ev(70, 1, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.barrier.by_msgs = false;
  p.barrier.entry_time = Time::us(5);
  p.barrier.check_time = Time::us(2);
  p.barrier.model_time = Time::us(10);
  p.barrier.exit_check_time = Time::us(3);
  p.barrier.exit_time = Time::us(4);
  const SimResult r = simulate(ts, p);
  // Arrivals (after entry time): 45 and 75.  lowered = 75 + 2 + 10 = 87;
  // exits at 87 + 3 + 4 = 94.  No compute after the barrier.
  EXPECT_EQ(r.makespan, Time::us(94));
  EXPECT_EQ(model::analytic_release(p.barrier, {Time::us(45), Time::us(75)}),
            Time::us(94));
}

TEST(Simulator, MessageBarrierLinearProtocol) {
  std::vector<Trace> ts;
  for (int t = 0; t < 2; ++t)
    ts.push_back(thread_trace(
        2, {ev(0, t, EventKind::ThreadBegin), ev(0, t, EventKind::BarrierEntry, 0),
            ev(0, t, EventKind::BarrierExit, 0), ev(0, t, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.barrier.by_msgs = true;
  p.barrier.msg_size = 100;
  p.barrier.entry_time = Time::us(5);
  p.barrier.check_time = Time::us(2);
  p.barrier.model_time = Time::us(10);
  p.barrier.exit_check_time = Time::us(3);
  p.barrier.exit_time = Time::us(4);
  const SimResult r = simulate(ts, p);
  // Slave: entry 5, send 11 -> wire 0.5 + 1 = 1.5 -> arrives 17.5 at master.
  // Master: entry done at 5; handles arrive: recv 2 + check 2 -> 21.5; all
  // in -> model 10 -> 31.5; sends release 11 -> 42.5; wire 1.5 -> 44;
  // slave: recv 2 + exit_check 3 -> 49, exit_time 4 -> 53.
  // Master exits at 42.5 + 4 = 46.5.
  EXPECT_EQ(r.threads[0].finish, Time::us(46.5));
  EXPECT_EQ(r.threads[1].finish, Time::us(53));
  EXPECT_EQ(r.messages, 2);  // arrive + release
  EXPECT_EQ(r.bytes, 200);
}

TEST(Simulator, LogTreeBarrierBeatsLinearForManyThreads) {
  const int n = 16;
  std::vector<Trace> ts;
  for (int t = 0; t < n; ++t)
    ts.push_back(thread_trace(
        n, {ev(0, t, EventKind::ThreadBegin), ev(0, t, EventKind::BarrierEntry, 0),
            ev(0, t, EventKind::BarrierExit, 0), ev(0, t, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.barrier.by_msgs = true;
  p.barrier.entry_time = Time::us(1);
  p.barrier.exit_time = Time::us(1);
  p.barrier.alg = model::BarrierAlg::Linear;
  const Time linear = simulate(ts, p).makespan;
  p.barrier.alg = model::BarrierAlg::LogTree;
  const Time logtree = simulate(ts, p).makespan;
  // The master's serial send/receive chain dominates the linear barrier.
  EXPECT_LT(logtree, linear);
}

TEST(Simulator, HardwareBarrierIgnoresMessages) {
  const int n = 8;
  std::vector<Trace> ts;
  for (int t = 0; t < n; ++t)
    ts.push_back(thread_trace(
        n, {ev(0, t, EventKind::ThreadBegin), ev(0, t, EventKind::BarrierEntry, 0),
            ev(0, t, EventKind::BarrierExit, 0), ev(0, t, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.barrier.by_msgs = true;  // overridden by the Hardware algorithm
  p.barrier.alg = model::BarrierAlg::Hardware;
  p.barrier.model_time = Time::us(7);
  const SimResult r = simulate(ts, p);
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.makespan, Time::us(7 + 0 /*exit costs zero*/));
}

TEST(Simulator, MultithreadingSerializesSharedCpu) {
  std::vector<Trace> ts;
  for (int t = 0; t < 2; ++t)
    ts.push_back(thread_trace(2, {ev(0, t, EventKind::ThreadBegin),
                                  ev(100, t, EventKind::ThreadEnd)}));
  SimParams p = ideal();
  EXPECT_EQ(simulate(ts, p).makespan, Time::us(100));
  p.proc.n_procs = 1;
  EXPECT_EQ(simulate(ts, p).makespan, Time::us(200));
}

TEST(Simulator, MultithreadingWithBarriersCompletes) {
  // 8 threads on 3 processors with two message barriers and cross-thread
  // reads: a stress of CPU sharing + barrier protocol interleaving.
  const int n = 8;
  std::vector<Trace> ts;
  for (int t = 0; t < n; ++t) {
    std::vector<Event> evs{ev(0, t, EventKind::ThreadBegin)};
    evs.push_back(ev(10 * (t + 1), t, EventKind::BarrierEntry, 0));
    evs.push_back(ev(80, t, EventKind::BarrierExit, 0));
    evs.push_back(ev(85, t, EventKind::RemoteRead, -1, (t + 3) % n, 64, 64));
    evs.push_back(ev(90 + t, t, EventKind::BarrierEntry, 1));
    evs.push_back(ev(97, t, EventKind::BarrierExit, 1));
    evs.push_back(ev(100, t, EventKind::ThreadEnd));
    ts.push_back(thread_trace(n, evs));
  }
  SimParams p = lab_params();
  p.barrier.by_msgs = true;
  p.barrier.entry_time = Time::us(1);
  p.proc.n_procs = 3;
  const SimResult r = simulate(ts, p);
  EXPECT_GT(r.makespan, Time::us(100));
  EXPECT_NO_THROW(r.extrapolated().validate());
  // With 3 CPUs, total compute (sum of deltas) bounds the makespan below:
  // at least ceil(total/3) of pure compute must elapse.
  EXPECT_GE(r.makespan, r.total_compute() / 3.0);
  // Reads between co-located threads (distance-3 ring over 3 procs) are
  // partly local: fewer than n request/reply pairs hit the wire, but the
  // barrier messages still do.
  EXPECT_GT(r.messages, 0);
}

TEST(Simulator, MipsRatioDoesNotScaleCommunication) {
  // Scaling compute must leave pure-communication costs untouched: a
  // zero-compute remote access costs the same at any ratio.
  std::vector<Trace> ts;
  ts.push_back(thread_trace(2, {ev(0, 0, EventKind::ThreadBegin),
                                ev(0, 0, EventKind::ThreadEnd)}));
  ts.push_back(thread_trace(
      2, {ev(0, 1, EventKind::ThreadBegin),
          ev(0, 1, EventKind::RemoteRead, -1, 0, 20, 20),
          ev(0, 1, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.proc.mips_ratio = 1.0;
  const Time base = simulate(ts, p).makespan;
  p.proc.mips_ratio = 4.0;
  EXPECT_EQ(simulate(ts, p).makespan, base);
}

TEST(Simulator, SameProcessorRemoteAccessIsLocal) {
  std::vector<Trace> ts;
  ts.push_back(thread_trace(2, {ev(0, 0, EventKind::ThreadBegin),
                                ev(0, 0, EventKind::ThreadEnd)}));
  ts.push_back(thread_trace(
      2, {ev(0, 1, EventKind::ThreadBegin),
          ev(0, 1, EventKind::RemoteRead, -1, 0, 64, 64),
          ev(0, 1, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.proc.n_procs = 1;  // both threads on one processor
  const SimResult r = simulate(ts, p);
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.makespan, Time::zero());
}

TEST(Simulator, ExtrapolatedTraceIsValid) {
  std::vector<Trace> ts;
  for (int t = 0; t < 3; ++t)
    ts.push_back(thread_trace(
        3, {ev(0, t, EventKind::ThreadBegin),
            ev(10 * (t + 1), t, EventKind::BarrierEntry, 0),
            ev(30, t, EventKind::BarrierExit, 0),
            ev(40 + t, t, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.barrier.by_msgs = true;
  const SimResult r = simulate(ts, p);
  EXPECT_NO_THROW(r.extrapolated().validate());
  EXPECT_TRUE(test::time_ordered(r.extrapolated()));
  EXPECT_EQ(r.extrapolated().meta("extrapolated"), "1");
}

// --- the extrapolated trace, expanded on first read ------------------------

std::shared_ptr<const CompiledTrace> compiled_code(const std::string& code,
                                                   int n) {
  auto prog = suite::make_by_name(code);
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return std::make_shared<const CompiledTrace>(
      lower_measured(rt::measure(*prog, mo)));
}

std::string binary(const Trace& t) {
  std::ostringstream os(std::ios::binary);
  trace::write_binary(t, os);
  return os.str();
}

TEST(Simulator, CopiesOfAResultShareOneExpansion) {
  const SimResult a = simulate_compiled(compiled_code("grid", 4),
                                        model::distributed_preset());
  const SimResult b = a;
  const Trace& t = b.extrapolated();
  EXPECT_GT(t.size(), 0u);
  EXPECT_EQ(&a.extrapolated(), &t);
  EXPECT_EQ(&b.extrapolated(), &t);
}

// The first read expands the trace while the other readers wait; every
// reader gets the one expansion, byte-identical to a fresh result's.
TEST(Simulator, ConcurrentFirstReadsGetIdenticalBytes) {
  const auto code = compiled_code("mgrid", 8);
  const SimParams p = model::cm5_preset();
  const std::string want = binary(simulate_compiled(code, p).extrapolated());
  const SimResult r = simulate_compiled(code, p);
  constexpr int kReaders = 8;
  std::vector<std::string> got(kReaders);
  std::vector<const Trace*> seen(kReaders);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i)
    readers.emplace_back([&, i] {
      const SimResult copy = r;
      seen[static_cast<std::size_t>(i)] = &copy.extrapolated();
      got[static_cast<std::size_t>(i)] = binary(copy.extrapolated());
    });
  for (std::thread& t : readers) t.join();
  for (int i = 0; i < kReaders; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], want) << "reader " << i;
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], &r.extrapolated());
  }
}

TEST(Simulator, EmitTraceOffYieldsAnEmptyTrace) {
  SimOptions opts;
  opts.emit_trace = false;
  const SimResult r = simulate_compiled(compiled_code("cyclic", 4),
                                        model::distributed_preset(), opts);
  EXPECT_TRUE(r.extrapolated().empty());
  EXPECT_EQ(r.extrapolated().n_threads(), 4);
  EXPECT_GT(r.makespan, Time::zero());
}

// The emission log is reserved once, at one record per op plus one per
// barrier exit, and run() checks it ends holding exactly that many, so it
// never reallocates.  Every replay path keeps that count: the event engine,
// the epoch memo and the sampled analytic path.
TEST(Simulator, EmissionLogIsSizedOnceForEveryPath) {
  const auto code = compiled_code("grid", 8);
  std::size_t want = 0;
  for (const CompiledThread& th : code->threads)
    want += th.ops.size() + code->barrier_ids.size();
  SimParams one_cluster = model::shared_memory_preset();
  one_cluster.cluster.procs_per_cluster = 1 << 30;
  bool memo = false, sampled = false;
  for (const SimParams& p :
       {model::distributed_preset(), model::shared_memory_preset(),
        one_cluster}) {
    for (const SimMode mode : {SimMode::EventDriven, SimMode::Auto}) {
      const SimResult r = simulate_compiled(code, p, {mode, true});
      EXPECT_EQ(r.extrapolated().size(), want) << to_string(mode);
      memo |= r.hybrid.memo_hits > 0;
      sampled |= r.sampling.active;
    }
  }
  EXPECT_TRUE(memo && sampled);
}

TEST(Simulator, ContentionStretchesConcurrentTraffic) {
  // Threads 1..4 all read from thread 0 at the same instant.
  const int n = 5;
  auto build = [&] {
    std::vector<Trace> ts;
    ts.push_back(thread_trace(n, {ev(0, 0, EventKind::ThreadBegin),
                                  ev(0, 0, EventKind::ThreadEnd)}));
    for (int t = 1; t < n; ++t)
      ts.push_back(thread_trace(
          n, {ev(0, t, EventKind::ThreadBegin),
              ev(0, t, EventKind::RemoteRead, -1, 0, 4096, 4096),
              ev(0, t, EventKind::ThreadEnd)}));
    return ts;
  };
  SimParams p = lab_params();
  p.network.topology = net::TopologyKind::Bus;
  p.network.contention.enabled = false;
  const Time without = simulate(build(), p).makespan;
  p.network.contention.enabled = true;
  p.network.contention.factor = 1.0;
  const SimResult with = simulate(build(), p);
  EXPECT_GT(with.makespan, without);
  EXPECT_GT(with.avg_inflight, 0.0);
}

TEST(Simulator, AvgInflightIsTheExactMeanLoad) {
  // Threads 1..5 read from thread 0 at time 0 over a contended bus
  // (capacity 1; contention stretches only the per-byte transfer, 10 ns a
  // byte).  The five 32-byte requests inject together at 11 us (build +
  // start-up) and see 0..4 messages in flight; all arrive by 13.1 us, in
  // thread order.  Thread 0 serves them back to back, 16 us each (receive,
  // service, build, start-up), so reply j injects at 27.82 + 16 (j - 1) us.
  // Reply 1 (4016 bytes, x1) is in flight until 68.48 us, reply 2 (2016
  // bytes, x2) until 84.64 us, replies 3..5 (2016 bytes, x3) for 60.98 us
  // each: every reply but the first two sees the two before it, so the
  // replies see 0, 1, 2, 2, 2.  Ten injections, load sum 17: the mean is
  // 1.7 correctly rounded (a running mean ends one ulp above it).
  const int n = 6;
  const int payload[n] = {0, 4000, 2000, 2000, 2000, 2000};
  std::vector<Trace> ts;
  ts.push_back(thread_trace(n, {ev(0, 0, EventKind::ThreadBegin),
                                ev(0, 0, EventKind::ThreadEnd)}));
  for (int t = 1; t < n; ++t)
    ts.push_back(thread_trace(
        n, {ev(0, t, EventKind::ThreadBegin),
            ev(0, t, EventKind::RemoteRead, -1, 0, payload[t], payload[t]),
            ev(0, t, EventKind::ThreadEnd)}));
  SimParams p = lab_params();
  p.network.topology = net::TopologyKind::Bus;
  p.network.contention.enabled = true;
  p.network.contention.factor = 1.0;
  for (const SimMode mode : {SimMode::EventDriven, SimMode::Auto}) {
    const SimResult r = simulate(ts, p, {mode, false});
    EXPECT_EQ(r.messages, 10) << to_string(mode);
    EXPECT_EQ(r.avg_inflight, 17.0 / 10.0) << to_string(mode);
  }
}

TEST(Simulator, RemoteWriteCarriesPayloadOnRequest) {
  std::vector<Trace> ts;
  ts.push_back(thread_trace(2, {ev(0, 0, EventKind::ThreadBegin),
                                ev(0, 0, EventKind::ThreadEnd)}));
  ts.push_back(thread_trace(
      2, {ev(0, 1, EventKind::ThreadBegin),
          ev(0, 1, EventKind::RemoteWrite, -1, 0, 200, 200),
          ev(0, 1, EventKind::ThreadEnd)}));
  const SimResult r = simulate(ts, lab_params());
  // Request: 32 + 200 payload; reply: 16-byte ack.
  EXPECT_EQ(r.bytes, 232 + 16);
}

TEST(Simulator, StatsTotalsAggregate) {
  const SimResult r = simulate(owner_busy_traces(), lab_params());
  EXPECT_EQ(r.total_compute(), Time::us(100));
  EXPECT_GT(r.total_comm_wait(), Time::zero());
}

TEST(Simulator, RejectsEmptyInput) {
  EXPECT_THROW(simulate({}, ideal()), util::Error);
  std::vector<Trace> ts{Trace(1)};
  EXPECT_THROW(simulate(ts, ideal()), util::Error);
}

TEST(Simulator, DeterministicAcrossRuns) {
  SimParams p = lab_params();
  p.barrier.by_msgs = true;
  std::vector<Trace> ts;
  for (int t = 0; t < 4; ++t)
    ts.push_back(thread_trace(
        4, {ev(0, t, EventKind::ThreadBegin),
            ev(10 + 3 * t, t, EventKind::BarrierEntry, 0),
            ev(19, t, EventKind::BarrierExit, 0),
            ev(25 + t, t, EventKind::ThreadEnd)}));
  const SimResult a = simulate(ts, p);
  const SimResult b = simulate(ts, p);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.engine_events, b.engine_events);
}

}  // namespace
}  // namespace xp::core
