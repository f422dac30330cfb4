// Differential suite for barrier-epoch memoization on the event path
// (core/simulator.cpp, DESIGN.md §16).
//
// Under message barriers, Hybrid and Auto without trace emission simulate
// each barrier-to-barrier window once per epoch class and replay the
// recorded deltas for later windows of the same class.  The contract is
// bitwise: makespan, every ThreadStats field, messages, bytes and
// avg_inflight must equal the EventDriven oracle on every code, preset,
// thread count and MIPS ratio, and under the barrier, service-policy,
// processor-sharing and contention variants.  The memo must actually
// engage on the iterative codes, and must stay off where it does not
// apply: the EventDriven oracle itself, runs that emit a trace, and
// barrier points that are not quiescent.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/compiled_trace.hpp"
#include "core/simulator.hpp"
#include "core/translate.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"

namespace {

using namespace xp;
using core::CompiledTrace;
using core::SimMode;
using core::SimOptions;
using core::SimResult;
using trace::Event;
using trace::EventKind;
using util::Time;

void expect_bitwise_equal(const SimResult& ev, const SimResult& au,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(ev.makespan.count_ns(), au.makespan.count_ns());
  ASSERT_EQ(ev.threads.size(), au.threads.size());
  for (std::size_t t = 0; t < ev.threads.size(); ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    const auto& a = ev.threads[t];
    const auto& b = au.threads[t];
    EXPECT_EQ(a.compute.count_ns(), b.compute.count_ns());
    EXPECT_EQ(a.comm_wait.count_ns(), b.comm_wait.count_ns());
    EXPECT_EQ(a.barrier_wait.count_ns(), b.barrier_wait.count_ns());
    EXPECT_EQ(a.send_overhead.count_ns(), b.send_overhead.count_ns());
    EXPECT_EQ(a.service_time.count_ns(), b.service_time.count_ns());
    EXPECT_EQ(a.poll_time.count_ns(), b.poll_time.count_ns());
    EXPECT_EQ(a.finish.count_ns(), b.finish.count_ns());
    EXPECT_EQ(a.remote_accesses, b.remote_accesses);
    EXPECT_EQ(a.intra_cluster_accesses, b.intra_cluster_accesses);
    EXPECT_EQ(a.requests_served, b.requests_served);
    EXPECT_EQ(a.interrupts_taken, b.interrupts_taken);
    EXPECT_EQ(a.polls, b.polls);
  }
  EXPECT_EQ(ev.messages, au.messages);
  EXPECT_EQ(ev.bytes, au.bytes);
  EXPECT_EQ(ev.avg_inflight, au.avg_inflight);
}

const CompiledTrace& compiled(const std::string& bench, int n) {
  static std::map<std::string, CompiledTrace> cache;
  const std::string key = bench + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto prog = suite::make_by_name(bench, suite::SuiteConfig{});
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return cache
      .emplace(key, CompiledTrace::compile(core::translate(rt::measure(*prog, mo))))
      .first->second;
}

struct Preset {
  std::string name;
  model::SimParams params;
  bool messages;  // message barriers: the memo's domain
};

std::vector<Preset> all_presets() {
  return {{"distributed", model::distributed_preset(), true},
          {"cm5", model::cm5_preset(), true},
          {"paragon", model::paragon_preset(), true},
          {"sp1", model::sp1_preset(), true},
          {"ideal", model::ideal_preset(), false},
          {"shared", model::shared_memory_preset(), false},
          {"sgi", model::sgi_shared_preset(), false}};
}

SimResult run(const CompiledTrace& ct, const model::SimParams& p,
              SimMode mode, bool emit_trace = false) {
  SimOptions opts;
  opts.mode = mode;
  opts.emit_trace = emit_trace;
  return core::simulate_compiled(ct, p, opts);
}

/// Codes whose epochs repeat: the memo must replay windows on them.
bool iterative(const std::string& bench) {
  return bench == "grid" || bench == "mgrid" || bench == "sparse";
}

/// Windows from one barrier point to the next: the barrier count less the
/// last barrier, whose window runs into the End-terminated final epoch.
std::int64_t memo_windows(const CompiledTrace& ct) {
  const auto barriers =
      static_cast<std::int64_t>(ct.threads[0].barrier_ids.size());
  return barriers > 0 ? barriers - 1 : 0;
}

/// Auto vs EventDriven over one trace set and one machine, plus the
/// counter contract: the oracle never memoizes, and on a valid trace
/// every window is counted as a hit or a miss (every barrier point is
/// quiescent).  Returns Auto's hits.
std::int64_t check_cell(const CompiledTrace& ct, const model::SimParams& p,
                        bool messages, const std::string& what) {
  const SimResult ev = run(ct, p, SimMode::EventDriven);
  const SimResult au = run(ct, p, SimMode::Auto);
  expect_bitwise_equal(ev, au, what);
  EXPECT_EQ(ev.hybrid.memo_hits, 0) << what;
  EXPECT_EQ(ev.hybrid.memo_misses, 0) << what;
  if (messages) {
    EXPECT_EQ(au.hybrid.memo_hits + au.hybrid.memo_misses, memo_windows(ct))
        << what;
    EXPECT_LE(au.engine_events, ev.engine_events) << what;
  } else {
    EXPECT_EQ(au.hybrid.memo_hits + au.hybrid.memo_misses, 0) << what;
  }
  return au.hybrid.memo_hits;
}

}  // namespace

// The full matrix: 7 codes x 7 presets x n in {1..32} x MIPS {1, 4}.
TEST(EpochMemo, SuiteMatrixBitwise) {
  for (const std::string& bench : suite::benchmark_names()) {
    for (const Preset& preset : all_presets()) {
      std::int64_t hits = 0;
      for (int n : {1, 2, 4, 8, 16, 32}) {
        const CompiledTrace& ct = compiled(bench, n);
        for (double mips : {1.0, 4.0}) {
          model::SimParams p = preset.params;
          p.proc.mips_ratio = mips;
          hits += check_cell(ct, p, preset.messages,
                             bench + "/" + preset.name + "/n=" +
                                 std::to_string(n) + "/mips=" +
                                 std::to_string(mips));
        }
      }
      if (preset.messages && iterative(bench))
        EXPECT_GT(hits, 0) << bench << "/" << preset.name;
    }
  }
}

// Variants of the message-barrier machines: logarithmic barrier tree,
// NoInterrupt service, two threads per processor, contention off.
TEST(EpochMemo, VariantsBitwise) {
  struct Variant {
    std::string name;
    void (*apply)(model::SimParams&, int n);
  };
  const std::vector<Variant> variants = {
      {"logtree",
       [](model::SimParams& p, int) {
         p.barrier.alg = model::BarrierAlg::LogTree;
       }},
      {"nointerrupt",
       [](model::SimParams& p, int) {
         p.proc.policy = model::ServicePolicy::NoInterrupt;
       }},
      {"shared-procs",
       [](model::SimParams& p, int n) { p.proc.n_procs = n / 2; }},
      {"no-contention",
       [](model::SimParams& p, int) {
         p.network.contention.enabled = false;
       }},
  };
  for (const Variant& v : variants) {
    std::int64_t iterative_hits = 0;
    for (const std::string& bench : suite::benchmark_names()) {
      for (const Preset& preset : all_presets()) {
        if (!preset.messages) continue;
        for (int n : {4, 16}) {
          const CompiledTrace& ct = compiled(bench, n);
          for (double mips : {1.0, 4.0}) {
            model::SimParams p = preset.params;
            p.proc.mips_ratio = mips;
            v.apply(p, n);
            const std::int64_t hits =
                check_cell(ct, p, true,
                           v.name + "/" + bench + "/" + preset.name +
                               "/n=" + std::to_string(n) + "/mips=" +
                               std::to_string(mips));
            if (iterative(bench)) iterative_hits += hits;
          }
        }
      }
    }
    EXPECT_GT(iterative_hits, 0) << v.name;
  }
}

// Hybrid takes the memo path too under message barriers; trace emission
// turns it off (replayed windows have no events to emit).
TEST(EpochMemo, HybridMemoizesAndTraceEmissionDisablesIt) {
  const CompiledTrace& ct = compiled("grid", 8);
  const model::SimParams p = model::cm5_preset();
  const SimResult ev = run(ct, p, SimMode::EventDriven);
  const SimResult hy = run(ct, p, SimMode::Hybrid);
  expect_bitwise_equal(ev, hy, "grid/cm5 hybrid");
  EXPECT_GT(hy.hybrid.memo_hits, 0);

  const SimResult traced = run(ct, p, SimMode::Auto, /*emit_trace=*/true);
  expect_bitwise_equal(ev, traced, "grid/cm5 auto with trace");
  EXPECT_EQ(traced.hybrid.memo_hits, 0);
  EXPECT_EQ(traced.hybrid.memo_misses, 0);
  EXPECT_GT(traced.extrapolated.events().size(), 0u);
  EXPECT_EQ(traced.engine_events, run(ct, p, SimMode::EventDriven, true)
                                      .engine_events);
}

// On grid, one recorded window stands for every later iteration, so the
// engine fires a small fraction of the oracle's events.
TEST(EpochMemo, GridReplaysAlmostEveryWindow) {
  const CompiledTrace& ct = compiled("grid", 16);
  for (const Preset& preset : all_presets()) {
    if (!preset.messages) continue;
    const SimResult ev = run(ct, preset.params, SimMode::EventDriven);
    const SimResult au = run(ct, preset.params, SimMode::Auto);
    expect_bitwise_equal(ev, au, "grid/" + preset.name);
    EXPECT_GT(au.hybrid.memo_hits, 4 * au.hybrid.memo_misses) << preset.name;
    EXPECT_LT(au.engine_events * 4, ev.engine_events) << preset.name;
  }
}

// A hand-built trace whose barrier points are not all quiescent.  Trace
// validation rejects a barrier id used twice in a row, but compile() does
// not check ids, and the oracle runs this one to completion: threads 1, 2
// and 3 compute nothing between the two id-2 barriers, so their second
// arrival reaches the root while it is still sending the first release.
// The root counts it toward the barrier it is lowering and passes its
// arrival check a second time with releases still queued on its CPU.  At
// that point the memo must not record or replay anything, and the run
// must still match the oracle bit for bit.
TEST(EpochMemo, NonQuiescentBarrierPointKeepsMemoOff) {
  auto ev_at = [](std::int64_t t_ns, int th, EventKind kind, int id = -1) {
    Event e;
    e.time = Time::ns(t_ns);
    e.thread = th;
    e.kind = kind;
    e.barrier_id = id;
    return e;
  };
  const std::vector<int> ids = {2, 2, 3};
  const std::vector<std::vector<std::int64_t>> cost = {
      {874000, 0, 232000, 0}, {0, 0, 0, 204000}, {997000, 758000, 396000, 0}};
  constexpr int kThreads = 4;
  std::vector<trace::Trace> per_thread;
  for (int th = 0; th < kThreads; ++th) {
    trace::Trace t(kThreads);
    std::int64_t clock = 0;
    t.append(ev_at(clock, th, EventKind::ThreadBegin));
    for (std::size_t b = 0; b < ids.size(); ++b) {
      clock += cost[b][static_cast<std::size_t>(th)];
      t.append(ev_at(clock, th, EventKind::BarrierEntry, ids[b]));
      t.append(ev_at(clock, th, EventKind::BarrierExit, ids[b]));
    }
    t.append(ev_at(clock + 10, th, EventKind::ThreadEnd));
    per_thread.push_back(std::move(t));
  }
  const CompiledTrace ct = CompiledTrace::compile(per_thread);
  ASSERT_TRUE(ct.epoch_classes.built());
  const model::SimParams p = model::distributed_preset();
  const SimResult ev = run(ct, p, SimMode::EventDriven);
  const SimResult au = run(ct, p, SimMode::Auto);
  expect_bitwise_equal(ev, au, "non-quiescent hand-built trace");
  EXPECT_EQ(au.hybrid.memo_hits, 0);
  // A quiescent point counts its window as a hit or a miss; the
  // non-quiescent one counts nothing.
  EXPECT_LT(au.hybrid.memo_hits + au.hybrid.memo_misses, memo_windows(ct));
}
