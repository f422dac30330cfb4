// Differential suite for barrier-epoch memoization on the event path
// (core/simulator.cpp, DESIGN.md §16).
//
// Under message barriers, Auto simulates each barrier-to-barrier
// window once per epoch class and replay the recorded deltas for later
// windows of the same class, re-emitting the recorded events time-shifted
// when a trace is requested.  The contract is bitwise: makespan, every
// ThreadStats field, messages, bytes, avg_inflight and the extrapolated
// event sequence must equal the EventDriven oracle on every code, preset,
// thread count and MIPS ratio, and under the barrier, service-policy,
// processor-sharing and contention variants.  The memo must actually
// engage on the iterative codes, with and without a trace, and must stay
// off where it does not apply: the EventDriven oracle itself and barrier
// points that are not quiescent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/compiled_trace.hpp"
#include "core/simulator.hpp"
#include "core/translate.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"

#include "sim_oracle.hpp"

namespace {

using namespace xp;
using core::CompiledTrace;
using core::SimMode;
using core::SimOptions;
using core::SimResult;
using trace::Event;
using trace::EventKind;
using util::Time;

const std::shared_ptr<const CompiledTrace>& compiled(const std::string& bench,
                                                     int n) {
  static std::map<std::string, std::shared_ptr<const CompiledTrace>> cache;
  const std::string key = bench + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto prog = suite::make_by_name(bench, suite::SuiteConfig{});
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return cache
      .emplace(key, std::make_shared<const CompiledTrace>(CompiledTrace::compile(
                        core::translate(rt::measure(*prog, mo)))))
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

SimResult run(const std::shared_ptr<const CompiledTrace>& ct,
              const model::SimParams& p, SimMode mode,
              bool emit_trace = false) {
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
      static_cast<std::int64_t>(ct.barrier_ids.size());
  return barriers > 0 ? barriers - 1 : 0;
}

/// Auto vs EventDriven over one trace set and one machine, plus the
/// counter contract: the oracle never memoizes, and on a valid trace
/// every window is counted as a hit or a miss (every barrier point is
/// quiescent).  With `emit_trace` the extrapolated event sequences must
/// match too.  Returns Auto's hits.
std::int64_t check_cell(const std::shared_ptr<const CompiledTrace>& ct,
                        const model::SimParams& p,
                        bool messages, const std::string& what,
                        bool emit_trace = false) {
  const SimResult ev = run(ct, p, SimMode::EventDriven, emit_trace);
  const SimResult au = run(ct, p, SimMode::Auto, emit_trace);
  test::expect_same_result(ev, au, what);
  EXPECT_EQ(ev.extrapolated().empty(), !emit_trace) << what;
  EXPECT_EQ(ev.hybrid.memo_hits, 0) << what;
  EXPECT_EQ(ev.hybrid.memo_misses, 0) << what;
  if (messages) {
    EXPECT_EQ(au.hybrid.memo_hits + au.hybrid.memo_misses, memo_windows(*ct))
        << what;
    EXPECT_LE(au.engine_events, ev.engine_events) << what;
  } else {
    EXPECT_EQ(au.hybrid.memo_hits + au.hybrid.memo_misses, 0) << what;
  }
  return au.hybrid.memo_hits;
}

/// The full matrix: 7 codes x 7 presets x n in {1..32} x MIPS {1, 4}.
void check_matrix(bool emit_trace) {
  for (const std::string& bench : suite::benchmark_names()) {
    for (const Preset& preset : all_presets()) {
      std::int64_t hits = 0;
      for (int n : {1, 2, 4, 8, 16, 32}) {
        const auto& ct = compiled(bench, n);
        for (double mips : {1.0, 4.0}) {
          model::SimParams p = preset.params;
          p.proc.mips_ratio = mips;
          hits += check_cell(ct, p, preset.messages,
                             bench + "/" + preset.name + "/n=" +
                                 std::to_string(n) + "/mips=" +
                                 std::to_string(mips),
                             emit_trace);
        }
      }
      if (preset.messages && iterative(bench)) {
        EXPECT_GT(hits, 0) << bench << "/" << preset.name;
      }
    }
  }
}

}  // namespace

TEST(EpochMemo, SuiteMatrixBitwise) { check_matrix(/*emit_trace=*/false); }

// The same matrix with the extrapolated trace emitted: replayed windows
// re-emit their recorded events, so the memo stays on and every event
// sequence equals the oracle's, in order.
TEST(EpochMemo, SuiteMatrixTraceBitwise) { check_matrix(/*emit_trace=*/true); }

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
          const auto& ct = compiled(bench, n);
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

// Trace emission keeps the memo on: the replayed windows emit the
// oracle's events, with the same hits, misses and engine events as an
// untraced run.
TEST(EpochMemo, AutoMemoizesWithAndWithoutTrace) {
  const auto& ct = compiled("grid", 8);
  const model::SimParams p = model::cm5_preset();
  const SimResult ev = run(ct, p, SimMode::EventDriven);
  const SimResult au = run(ct, p, SimMode::Auto);
  test::expect_same_result(ev, au, "grid/cm5 auto");
  EXPECT_GT(au.hybrid.memo_hits, 0);

  const SimResult ev_traced = run(ct, p, SimMode::EventDriven, true);
  const SimResult traced = run(ct, p, SimMode::Auto, /*emit_trace=*/true);
  const std::string what = "grid/cm5 traced auto";
  test::expect_same_result(ev_traced, traced, what);
  EXPECT_EQ(traced.hybrid.memo_hits, au.hybrid.memo_hits) << what;
  EXPECT_EQ(traced.hybrid.memo_misses, au.hybrid.memo_misses) << what;
  EXPECT_EQ(traced.engine_events, au.engine_events) << what;
  EXPECT_GT(traced.extrapolated().size(), 0u) << what;
}

// On grid, one recorded window stands for every later iteration, so the
// engine fires a small fraction of the oracle's events.
TEST(EpochMemo, GridReplaysAlmostEveryWindow) {
  const auto& ct = compiled("grid", 16);
  for (const Preset& preset : all_presets()) {
    if (!preset.messages) continue;
    const SimResult ev = run(ct, preset.params, SimMode::EventDriven);
    const SimResult au = run(ct, preset.params, SimMode::Auto);
    test::expect_same_result(ev, au, "grid/" + preset.name);
    EXPECT_GT(au.hybrid.memo_hits, 4 * au.hybrid.memo_misses) << preset.name;
    EXPECT_LT(au.engine_events * 4, ev.engine_events) << preset.name;
  }
}

// A hand-built trace whose barrier points are not all quiescent.  Trace
// validation rejects a barrier id used twice in a row, but compile() only
// holds every thread to the same ids, not to increasing ones, and the
// oracle runs this one to completion: threads 1, 2 and 3 compute nothing
// between the two id-2 barriers, so their second arrival reaches the root
// while it is still sending the first release.  The root counts it toward
// the barrier it is lowering and passes its arrival check a second time
// with releases still queued on its CPU.  At that point the memo must not
// record or replay anything, and the run must still match the oracle bit
// for bit.
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
  const auto ct =
      std::make_shared<const CompiledTrace>(CompiledTrace::compile(per_thread));
  const model::SimParams p = model::distributed_preset();
  const SimResult ev = run(ct, p, SimMode::EventDriven);
  const SimResult au = run(ct, p, SimMode::Auto);
  test::expect_same_result(ev, au, "non-quiescent hand-built trace");
  test::expect_same_result(run(ct, p, SimMode::EventDriven, true),
                           run(ct, p, SimMode::Auto, true),
                           "non-quiescent hand-built trace, traced");
  EXPECT_EQ(au.hybrid.memo_hits, 0);
  // A quiescent point counts its window as a hit or a miss; the
  // non-quiescent one counts nothing.
  EXPECT_LT(au.hybrid.memo_hits + au.hybrid.memo_misses, memo_windows(*ct));
}
