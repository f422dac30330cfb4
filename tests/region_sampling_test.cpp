// Differential suite for representative-epoch sampling (DESIGN.md §15).
//
// The sampled Auto path walks the first epoch of each epoch class and
// replays that walk's recorded effect for every later epoch of the class.
// The contract under test: identical-epoch dedup must be BITWISE equal to
// full simulation on every input — the golden traces, the suite codes,
// and sweeps at any worker count — and only bit-identical epochs may
// share a class.  The fingerprint itself must be collision-robust:
// permuting work across threads must never merge epochs.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/compiled_trace.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "core/translate.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"

#include "sim_oracle.hpp"

namespace {

using namespace xp;
using core::CompiledTrace;
using core::EpochClassTable;
using core::SamplingStats;
using core::SimMode;
using core::SimOptions;
using core::SimResult;
using trace::Event;
using trace::EventKind;
using trace::Trace;
using util::Time;

const char* kLongGoldenPath = XP_GOLDEN_DIR "/pipestencil_long_n4.xpt";
const char* kGridGoldenPath = XP_GOLDEN_DIR "/grid_n4.xpt";

Trace load_golden(const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden trace " << path;
  return trace::read_text(in);
}

model::SimParams single_cluster(model::SimParams p) {
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

const Trace& measured(const std::string& bench, int n) {
  static std::map<std::string, Trace> cache;
  const std::string key = bench + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto prog = suite::make_by_name(bench, suite::SuiteConfig{});
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return cache.emplace(key, rt::measure(*prog, mo)).first->second;
}

std::shared_ptr<const CompiledTrace> shared(CompiledTrace ct) {
  return std::make_shared<const CompiledTrace>(std::move(ct));
}

SimResult run(const std::shared_ptr<const CompiledTrace>& ct,
              const model::SimParams& params, SimMode mode,
              bool emit_trace = false) {
  return core::simulate_compiled(ct, params, {mode, emit_trace});
}

Event ev(std::int64_t t_ns, int thread, EventKind kind, int barrier = -1) {
  Event e;
  e.time = Time::ns(t_ns);
  e.thread = thread;
  e.kind = kind;
  e.barrier_id = barrier;
  return e;
}

/// Hand-built 2-thread measured trace whose interior epochs carry the
/// per-thread compute costs in `epochs` (one inner vector per epoch,
/// n_threads entries each).  All epochs share one shape: a single compute
/// interval per thread, terminated by a barrier.
Trace epoch_trace(const std::vector<std::vector<std::int64_t>>& epochs) {
  const int n = static_cast<int>(epochs.front().size());
  Trace t(n);
  std::vector<std::int64_t> clock(n, 0);
  for (int th = 0; th < n; ++th) t.append(ev(clock[th], th, EventKind::ThreadBegin));
  int barrier = 0;
  for (const auto& costs : epochs) {
    std::int64_t last = 0;
    for (int th = 0; th < n; ++th) {
      clock[th] += costs[th];
      t.append(ev(clock[th], th, EventKind::BarrierEntry, barrier));
      last = std::max(last, clock[th]);
    }
    for (int th = 0; th < n; ++th) {
      clock[th] = last;
      t.append(ev(clock[th], th, EventKind::BarrierExit, barrier));
    }
    ++barrier;
  }
  for (int th = 0; th < n; ++th) {
    clock[th] += 50;
    t.append(ev(clock[th], th, EventKind::ThreadEnd));
  }
  t.sort_by_time();
  t.validate();
  return t;
}

CompiledTrace compile_trace(const Trace& t) {
  core::TranslateOptions topt;
  topt.remove_event_overhead = false;  // keep the hand-built deltas verbatim
  return CompiledTrace::compile(core::translate(t, topt));
}

}  // namespace

// Structural invariants of the compile-time epoch-class table on the long
// iterative v2 golden (80 epochs, pipeline steady state repeats).
TEST(EpochClasses, LongGoldenTableInvariants) {
  const CompiledTrace ct =
      CompiledTrace::compile(core::translate(load_golden(kLongGoldenPath)));
  const EpochClassTable& tab = ct.epoch_classes;
  EXPECT_GE(tab.epochs(), 50);
  EXPECT_LT(tab.n_classes(), tab.epochs() / 2)
      << "an iterative trace must actually repeat epochs";

  // Exemplars are first occurrences, in order; counts partition the trace.
  std::int64_t total = 0;
  for (std::int64_t c = 0; c < tab.n_classes(); ++c) {
    ASSERT_GE(tab.exemplar[c], 0);
    ASSERT_LT(tab.exemplar[c], tab.epochs());
    EXPECT_EQ(tab.class_of[static_cast<std::size_t>(tab.exemplar[c])], c);
    if (c > 0) {
      EXPECT_GT(tab.exemplar[c], tab.exemplar[c - 1]);
    }
    EXPECT_GE(tab.count[c], 1);
    total += tab.count[c];
  }
  EXPECT_EQ(total, tab.epochs());

  // Every member is VERIFIED identical to its exemplar (no hash trust),
  // and shares its fingerprint.
  for (std::int64_t e = 0; e < tab.epochs(); ++e) {
    const std::int32_t c = tab.class_of[static_cast<std::size_t>(e)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, tab.n_classes());
    EXPECT_TRUE(core::epochs_identical(ct, tab.exemplar[c], e));
    EXPECT_EQ(core::epoch_fingerprint(ct, e),
              tab.fingerprint[static_cast<std::size_t>(e)]);
  }

  // The final End-terminated epoch never merges with a barrier epoch.
  EXPECT_EQ(tab.count[tab.class_of.back()], 1);
}

// Permuting WHICH thread does the work must never merge two epochs: the
// per-thread sums are equal, so a fingerprint that ignored thread identity
// (or a grouping that trusted hashes) would collide here.
TEST(EpochClasses, PermutedThreadEpochsDoNotCollide) {
  const Trace t = epoch_trace({{50, 50},      // epoch 0: warmup (carries Begin)
                               {100, 200},    // epoch 1: t0 light, t1 heavy
                               {200, 100},    // epoch 2: permuted
                               {100, 200}});  // epoch 3: repeats epoch 1
  const CompiledTrace ct = compile_trace(t);
  ASSERT_EQ(ct.epoch_classes.epochs(), 5);

  // Epoch 0 contains the ThreadBegin ops, so only epochs 1..3 share a
  // shape; the interesting comparisons are all interior.
  EXPECT_NE(core::epoch_fingerprint(ct, 1), core::epoch_fingerprint(ct, 2));
  EXPECT_FALSE(core::epochs_identical(ct, 1, 2));
  EXPECT_TRUE(core::epochs_identical(ct, 1, 3));

  const EpochClassTable& tab = ct.epoch_classes;
  EXPECT_NE(tab.class_of[1], tab.class_of[2]);
  EXPECT_EQ(tab.class_of[1], tab.class_of[3]);
}

// Dedup merges only bit-identical epochs: epochs that differ by 5 ns on
// one thread stay in separate classes, and the sampled prediction built
// from those classes is bitwise-equal to EventDriven.
TEST(EpochClasses, NearIdenticalEpochsStaySeparateClasses) {
  const Trace t = epoch_trace({{500, 500},    // warmup epoch (carries Begin)
                               {1000, 1000},
                               {1005, 1000},  // +5 ns on thread 0
                               {1000, 1000},
                               {1005, 1000}});
  const auto ct = shared(compile_trace(t));
  const EpochClassTable& tab = ct->epoch_classes;
  ASSERT_EQ(tab.epochs(), 6);
  // warmup + {e1,e3} + {e2,e4} + final = 4 classes.
  EXPECT_EQ(tab.n_classes(), 4);
  EXPECT_NE(tab.class_of[1], tab.class_of[2]);
  EXPECT_EQ(tab.class_of[1], tab.class_of[3]);
  EXPECT_EQ(tab.class_of[2], tab.class_of[4]);

  const model::SimParams params = single_cluster(model::shared_memory_preset());
  const SimResult exact = run(ct, params, SimMode::EventDriven);
  const SimResult au = run(ct, params, SimMode::Auto);
  ASSERT_TRUE(au.sampling.active);
  EXPECT_EQ(au.sampling.epochs_simulated, 4);  // one walk per class
  test::expect_same_result(au, exact, "5 ns apart: auto vs event");
}

// Tier-1 acceptance bar: on every suite workload the Auto sampled path is
// bitwise-equal to both the full analytic walk (the same path over a
// singleton class table, so every epoch is walked) and EventDriven under
// the analytic presets where it can engage, with and without a trace.
TEST(EpochClasses, SuiteWorkloadsBitwiseAcrossModes) {
  const std::vector<std::pair<std::string, model::SimParams>> presets = {
      {"ideal/1cluster", single_cluster(model::ideal_preset())},
      {"shared/1cluster", single_cluster(model::shared_memory_preset())},
      {"shared", model::shared_memory_preset()}};
  for (const std::string& bench : suite::benchmark_names()) {
    const auto ct =
        shared(CompiledTrace::compile(core::translate(measured(bench, 4))));
    CompiledTrace split = *ct;
    split.epoch_classes = core::singleton_epoch_classes(*ct);
    const auto unsampled = shared(std::move(split));
    for (const auto& [name, params] : presets) {
      for (const bool trace : {false, true}) {
        const std::string what = bench + "/" + name +
                                 (trace ? "/trace" : "/no trace");
        const SimResult ev = run(ct, params, SimMode::EventDriven, trace);
        const SimResult full = run(unsampled, params, SimMode::Auto, trace);
        const SimResult au = run(ct, params, SimMode::Auto, trace);
        EXPECT_EQ(full.sampling.epochs_simulated, full.sampling.epochs)
            << what;
        test::expect_same_result(au, full, what + " auto vs full walk");
        test::expect_same_result(au, ev, what + " auto vs event");
        if (name != "shared") {
          // One cluster: every segment collapses, so Auto samples.
          // Iterative codes dedup; codes with all-distinct epochs (embar,
          // cyclic) legitimately walk every one.
          EXPECT_TRUE(au.sampling.active) << what;
          EXPECT_TRUE(full.sampling.active) << what;
          EXPECT_EQ(au.sampling.epochs_simulated, ct->epoch_classes.n_classes())
              << what;
        }
      }
    }
  }
}

// build_epoch_classes fingerprints all epochs in one pass over the threads.
// Its fingerprints must equal epoch_fingerprint's, bitwise, and its classes,
// exemplars and counts must equal a grouping that never looks at a hash
// (each epoch joins the first earlier exemplar it is identical to), so the
// choice of hash can only cost comparisons, never change a class.
TEST(EpochClasses, ThreadPassMatchesEpochByEpochGrouping) {
  for (const std::string& bench : suite::benchmark_names()) {
    for (const int n : {4, 16, 256}) {
      SCOPED_TRACE(bench + " n=" + std::to_string(n));
      const CompiledTrace ct =
          CompiledTrace::compile(core::translate(measured(bench, n)));
      const EpochClassTable& tab = ct.epoch_classes;
      EpochClassTable ref;
      for (std::int64_t e = 0; e < tab.epochs(); ++e) {
        ref.fingerprint.push_back(core::epoch_fingerprint(ct, e));
        std::int32_t cls = -1;
        for (std::size_t c = 0; c < ref.exemplar.size() && cls < 0; ++c)
          if (core::epochs_identical(ct, ref.exemplar[c], e))
            cls = static_cast<std::int32_t>(c);
        if (cls < 0) {
          cls = static_cast<std::int32_t>(ref.exemplar.size());
          ref.exemplar.push_back(e);
          ref.count.push_back(0);
        }
        ref.class_of.push_back(cls);
        ++ref.count[static_cast<std::size_t>(cls)];
      }
      EXPECT_EQ(tab.fingerprint, ref.fingerprint);
      EXPECT_EQ(tab.class_of, ref.class_of);
      EXPECT_EQ(tab.exemplar, ref.exemplar);
      EXPECT_EQ(tab.count, ref.count);
    }
  }
}

// The long iterative golden must actually take the sampled path and win:
// far fewer exemplar walks than epochs, bitwise-equal anyway — and with a
// trace requested, each exemplar's emission slice replayed once per member
// epoch gives EventDriven's exact trace.
TEST(EpochClasses, LongGoldenSampledPathEngagesAndStaysExact) {
  const auto ct = shared(
      CompiledTrace::compile(core::translate(load_golden(kLongGoldenPath))));
  const model::SimParams params = single_cluster(model::shared_memory_preset());
  for (const bool trace : {false, true}) {
    SCOPED_TRACE(trace ? "trace" : "no trace");
    const SimResult ev = run(ct, params, SimMode::EventDriven, trace);
    const SimResult au = run(ct, params, SimMode::Auto, trace);
    ASSERT_TRUE(au.sampling.active);
    EXPECT_EQ(au.sampling.epochs, ct->epoch_classes.epochs());
    EXPECT_EQ(au.sampling.epochs_simulated, ct->epoch_classes.n_classes());
    EXPECT_LT(au.sampling.epochs_simulated, au.sampling.epochs / 2);
    EXPECT_EQ(au.extrapolated().events().empty(), !trace);
    test::expect_same_result(au, ev, "long golden auto vs event");
  }
}

// Poll policy: Auto bitwise-equal to EventDriven on the grid golden.
// Poll chunking makes an epoch's cost jump at every poll boundary, so
// only exact dedup can be sound here.
TEST(EpochClasses, PollPolicyAutoBitwiseEqualToEventDriven) {
  const auto ct = shared(
      CompiledTrace::compile(core::translate(load_golden(kGridGoldenPath))));
  model::SimParams params = single_cluster(model::shared_memory_preset());
  params.proc.policy = model::ServicePolicy::Poll;
  const SimResult ev = run(ct, params, SimMode::EventDriven);
  const SimResult au = run(ct, params, SimMode::Auto);
  test::expect_same_result(au, ev, "poll policy, auto vs event");
}

// Sweeps must stay deterministic and bitwise-identical across worker
// counts with sampling in play, match the EventDriven oracle per cell
// (extrapolated traces included), and the runner must attribute the
// sampled cells in SweepStages.  The sweep runs with its defaults, which
// keep every cell's trace, so this also proves a default sweep samples.
TEST(EpochClasses, SweepBitwiseAcrossWorkerCounts) {
  std::vector<core::SweepPoint> grid;
  for (int n : {2, 4, 8}) {
    core::SweepPoint p;
    p.n_threads = n;
    p.params = single_cluster(model::shared_memory_preset());
    p.label = "sampled";
    grid.push_back(p);
  }

  std::vector<core::SweepResult> results;
  for (int workers : {1, 2, 8}) {
    core::SweepOptions opt;
    opt.n_workers = workers;
    core::SweepRunner runner(
        [] { return suite::make_by_name("grid", suite::SuiteConfig{}); },
        opt);
    results.push_back(runner.run(grid));
  }

  for (std::size_t w = 1; w < results.size(); ++w) {
    ASSERT_EQ(results[w].predictions.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE("workers run " + std::to_string(w) + ", cell " +
                   std::to_string(i));
      EXPECT_EQ(results[0].predictions[i].predicted_time.count_ns(),
                results[w].predictions[i].predicted_time.count_ns());
    }
  }
  for (const core::SweepResult& r : results) {
    // Every cell took the sampled path.
    EXPECT_EQ(r.stages.sim.cells_sampled, 3);
    EXPECT_GT(r.stages.sim.epochs_total, 0);
    EXPECT_GT(r.stages.sim.epochs_simulated, 0);
    EXPECT_LT(r.stages.sim.epochs_simulated, r.stages.sim.epochs_total);
  }
  // The EventDriven oracle, built per cell from the same program.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::TranslatedTrace prepared =
        core::prepare_trace(measured("grid", grid[i].n_threads));
    const core::Prediction oracle =
        core::predict(prepared, grid[i].params, {SimMode::EventDriven});
    EXPECT_EQ(results[0].predictions[i].predicted_time.count_ns(),
              oracle.predicted_time.count_ns())
        << "cell " << i;
    EXPECT_EQ(results[0].predictions[i].sim.extrapolated().events(),
              oracle.sim.extrapolated().events())
        << "cell " << i;
  }
}
