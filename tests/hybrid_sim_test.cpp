// Differential suite for segment collapse (core/simulator.hpp, SimMode::
// Auto's engine-free path).
//
// Collapse is all-or-nothing: a run whose every barrier-delimited segment
// has a provably exact closed form skips the event engine, and every other
// run replays every segment through it.  The contract under test is
// therefore not "close" but *bitwise identical* — makespan, every
// per-thread stat, message/byte counts, and the extrapolated event
// sequence must match EventDriven on every input: the golden trace, all
// seven suite codes at n in {4, 8, 16}, and randomized contention
// configurations.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <vector>

#include "core/compiled_trace.hpp"
#include "core/simulator.hpp"
#include "core/translate.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"

#include "sim_oracle.hpp"

namespace {

using namespace xp;
using core::CompiledTrace;
using core::SimMode;
using core::SimOptions;
using core::SimResult;
using trace::Event;
using trace::Trace;
using util::Time;

const char* kGoldenPath = XP_GOLDEN_DIR "/grid_n4.xpt";

model::SimParams single_cluster(model::SimParams p) {
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

/// The analytic-barrier presets (by_msgs=false), where the hybrid path can
/// engage; the message-barrier presets collapse nothing.
std::vector<std::pair<std::string, model::SimParams>> analytic_presets() {
  return {{"ideal", model::ideal_preset()},
          {"shared", model::shared_memory_preset()},
          {"sgi", model::sgi_shared_preset()},
          {"ideal/1cluster", single_cluster(model::ideal_preset())},
          {"shared/1cluster", single_cluster(model::shared_memory_preset())}};
}

std::vector<std::pair<std::string, model::SimParams>> message_presets() {
  return {{"distributed", model::distributed_preset()},
          {"cm5", model::cm5_preset()},
          {"paragon", model::paragon_preset()},
          {"sp1", model::sp1_preset()}};
}

/// The differential oracle, asked for explicitly: the default mode is Auto.
std::shared_ptr<const CompiledTrace> shared(CompiledTrace ct) {
  return std::make_shared<const CompiledTrace>(std::move(ct));
}

SimResult event_driven(const std::shared_ptr<const CompiledTrace>& ct,
                       const model::SimParams& p) {
  return core::simulate_compiled(ct, p, {SimMode::EventDriven});
}

Trace load_golden() {
  std::ifstream in(kGoldenPath);
  EXPECT_TRUE(in.good()) << "missing golden trace " << kGoldenPath;
  return trace::read_text(in);
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

}  // namespace

// Structural invariants of the compile-time segment table the classifier
// builds on.
TEST(HybridSim, SegmentTableInvariants) {
  const auto translated = core::translate(load_golden());
  const auto ct = shared(CompiledTrace::compile(translated));
  for (const auto& th : ct->threads) {
    ASSERT_EQ(th.segments.size(), ct->barrier_ids.size() + 1);
    std::uint32_t next_op = 0, next_remote = 0;
    Time total;
    for (std::size_t s = 0; s < th.segments.size(); ++s) {
      const core::Segment& seg = th.segments[s];
      EXPECT_EQ(seg.op_begin, next_op);
      EXPECT_EQ(seg.remote_begin, next_remote);
      ASSERT_LT(seg.op_end, th.ops.size());
      const core::OpKind term = th.ops[seg.op_end];
      EXPECT_EQ(term, s + 1 == th.segments.size() ? core::OpKind::End
                                                  : core::OpKind::Barrier);
      Time presum;
      for (std::uint32_t i = seg.op_begin; i <= seg.op_end; ++i)
        presum += th.pre_delta[i];
      EXPECT_EQ(presum.count_ns(), seg.presum.count_ns());
      total += presum;
      next_op = seg.op_end + 1;
      next_remote = seg.remote_end;
    }
    EXPECT_EQ(next_op, th.ops.size());
    EXPECT_EQ(next_remote, th.remotes.size());
  }
}

// The acceptance bar: Auto == EventDriven bitwise on the golden trace
// under every preset, analytic and message-barrier alike.
TEST(HybridSim, GoldenTraceBitwiseAllPresets) {
  const auto translated = core::translate(load_golden());
  const auto ct = shared(CompiledTrace::compile(translated));
  auto presets = analytic_presets();
  for (auto& [name, p] : message_presets()) presets.emplace_back(name, p);
  for (const auto& [name, params] : presets) {
    const SimResult ev = event_driven(ct, params);
    const SimResult au = core::simulate_compiled(ct, params, {SimMode::Auto});
    test::expect_same_result(ev, au, "golden/" + name + "/auto");
    EXPECT_EQ(ev.hybrid.segments_collapsed, 0);  // oracle never collapses
  }
}

// Single-cluster analytic presets must actually engage the fast path on the
// golden trace — a fast path that silently collapses nothing would pass
// the differential tests while delivering no speedup.
TEST(HybridSim, GoldenTraceCollapsesUnderSingleCluster) {
  const auto translated = core::translate(load_golden());
  const auto ct = shared(CompiledTrace::compile(translated));
  const SimResult hy = core::simulate_compiled(
      ct, single_cluster(model::shared_memory_preset()), {SimMode::Auto});
  EXPECT_TRUE(hy.sampling.active);
  EXPECT_EQ(hy.hybrid.segments_collapsed, hy.hybrid.segments_total);
  EXPECT_GT(hy.hybrid.ops_collapsed, 0);
  EXPECT_EQ(hy.engine_events, 0u);
  EXPECT_EQ(hy.messages, 0);
}

// All seven suite codes at n in {4, 8, 16}: Auto bitwise-matches
// the event-driven oracle under analytic presets (where segments collapse)
// and message presets (where nothing collapses).
TEST(HybridSim, SuiteCodesBitwise) {
  std::int64_t collapsed_total = 0;
  for (const std::string& bench : suite::benchmark_names()) {
    for (int n : {4, 8, 16}) {
      const auto translated = core::translate(measured(bench, n));
      const auto ct = shared(CompiledTrace::compile(translated));
      const std::vector<std::pair<std::string, model::SimParams>> params = {
          {"shared/1cluster", single_cluster(model::shared_memory_preset())},
          {"sgi", model::sgi_shared_preset()},
          {"distributed", model::distributed_preset()},
      };
      for (const auto& [pname, p] : params) {
        const SimResult ev = event_driven(ct, p);
        const SimResult hy = core::simulate_compiled(ct, p, {SimMode::Auto});
        test::expect_same_result(
            ev, hy, bench + "/n=" + std::to_string(n) + "/" + pname);
        collapsed_total += hy.hybrid.segments_collapsed;
      }
    }
  }
  EXPECT_GT(collapsed_total, 0);
}

// A contended multi-cluster run (cross-cluster control/ghost traffic)
// collapses nothing: it is the EventDriven replay, event for event.
TEST(HybridSim, ContendedMultiClusterRunCollapsesNothing) {
  for (const std::string& bench : {std::string("grid"), std::string("sparse")}) {
    const auto translated = core::translate(measured(bench, 8));
    const auto ct = shared(CompiledTrace::compile(translated));
    model::SimParams p = model::shared_memory_preset();
    p.cluster.procs_per_cluster = 2;  // 4 clusters of 2 at n=8
    const SimResult ev = event_driven(ct, p);
    const SimResult hy = core::simulate_compiled(ct, p, {SimMode::Auto});
    test::expect_same_result(ev, hy, bench + "/2per-cluster");
    EXPECT_FALSE(hy.sampling.active) << bench;
    EXPECT_EQ(hy.hybrid.segments_collapsed, 0) << bench;
    EXPECT_EQ(hy.hybrid.ops_collapsed, 0) << bench;
    EXPECT_EQ(hy.engine_events, ev.engine_events) << bench;
  }
}

// sp1 uses the Poll service policy; a single-cluster analytic-barrier
// variant of it exercises the poll-boundary arithmetic in the closed form
// ((scaled-1)/interval extra poll checks per interval).
TEST(HybridSim, PollPolicyClosedFormMatches) {
  const auto translated = core::translate(measured("grid", 8));
  const auto ct = shared(CompiledTrace::compile(translated));
  model::SimParams p = single_cluster(model::sp1_preset());
  p.barrier.by_msgs = false;  // sp1 is a message-barrier preset by default
  const SimResult ev = event_driven(ct, p);
  const SimResult hy = core::simulate_compiled(ct, p, {SimMode::Auto});
  test::expect_same_result(ev, hy, "grid/sp1-analytic-barrier");
  EXPECT_GT(hy.hybrid.segments_collapsed, 0);
  std::int64_t polls = 0;
  for (const auto& t : hy.threads) polls += t.polls;
  EXPECT_GT(polls, 0);  // the formula actually ran
}

// Randomized-contention property test: random cluster shapes, MIPS ratios,
// and presets over random suite codes.  Auto is exact, never approximate,
// collapse is all-or-nothing, and across the sample both whole-run
// collapse and whole-run replay must occur.
TEST(HybridSim, RandomizedContentionPropertyAutoIsExact) {
  std::mt19937 rng(0x5eed);
  const std::vector<std::string> benches = {"grid", "cyclic", "sparse",
                                            "embar"};
  const std::vector<int> clusters = {1, 2, 4, 1 << 20};
  const std::vector<double> mips = {0.41, 1.0, 1.136, 2.0};
  int collapsed_runs = 0, event_runs = 0;
  for (int iter = 0; iter < 24; ++iter) {
    const std::string bench = benches[rng() % benches.size()];
    const int n = (rng() % 2) ? 4 : 8;
    auto presets = analytic_presets();
    model::SimParams p = presets[rng() % presets.size()].second;
    p.cluster.procs_per_cluster = clusters[rng() % clusters.size()];
    p.proc.mips_ratio = mips[rng() % mips.size()];
    const auto translated = core::translate(measured(bench, n));
    const auto ct = shared(CompiledTrace::compile(translated));
    const SimResult ev = event_driven(ct, p);
    const SimResult au = core::simulate_compiled(ct, p, {SimMode::Auto});
    test::expect_same_result(ev, au,
                         "iter" + std::to_string(iter) + "/" + bench + "/n=" +
                             std::to_string(n) + "/ppc=" +
                             std::to_string(p.cluster.procs_per_cluster));
    const std::int64_t collapsed = au.hybrid.segments_collapsed;
    EXPECT_TRUE(collapsed == 0 || collapsed == au.hybrid.segments_total)
        << "iter" << iter;
    collapsed_runs += collapsed > 0;
    event_runs += collapsed == 0;
  }
  EXPECT_GT(collapsed_runs, 0);  // the fast path engaged somewhere
  EXPECT_GT(event_runs, 0);      // and cross-cluster traffic refused it
}

// emit_trace=false is a pure memory/time saving: identical numerics, empty
// extrapolated stream.  The event path, the full analytic walk and the
// epoch-sampled path all honor it (the presum shortcut is only legal
// without emission, so this covers it too).  The full walk is the sampled
// path over a singleton class table, so it walks every epoch either way.
TEST(HybridSim, EmitTraceOffKeepsNumerics) {
  const auto translated = core::translate(measured("cyclic", 8));
  const auto ct = shared(CompiledTrace::compile(translated));
  CompiledTrace split = *ct;
  split.epoch_classes = core::singleton_epoch_classes(*ct);
  const auto unsampled = shared(std::move(split));
  const std::vector<std::pair<std::shared_ptr<const CompiledTrace>, SimMode>>
      runs = {{ct, SimMode::EventDriven},
              {unsampled, SimMode::Auto},
              {ct, SimMode::Auto}};
  std::vector<Event> oracle;  // the EventDriven run's trace, first in `runs`
  for (const auto& [code, mode] : runs) {
    SimOptions with{mode, true};
    SimOptions without{mode, false};
    const SimResult a = core::simulate_compiled(code, single_cluster(
        model::ideal_preset()), with);
    const SimResult b = core::simulate_compiled(code, single_cluster(
        model::ideal_preset()), without);
    EXPECT_EQ(a.makespan.count_ns(), b.makespan.count_ns());
    EXPECT_EQ(a.messages, b.messages);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
      EXPECT_EQ(a.threads[t].finish.count_ns(),
                b.threads[t].finish.count_ns());
      EXPECT_EQ(a.threads[t].compute.count_ns(),
                b.threads[t].compute.count_ns());
    }
    EXPECT_GT(a.extrapolated().events().size(), 0u);
    EXPECT_EQ(b.extrapolated().events().size(), 0u);
    if (oracle.empty()) oracle = a.extrapolated().events();
    EXPECT_EQ(a.extrapolated().events(), oracle);
    EXPECT_EQ(a.sampling.active, mode == SimMode::Auto);
    EXPECT_EQ(b.sampling.active, mode == SimMode::Auto);
    if (code == unsampled) {
      EXPECT_EQ(a.sampling.epochs_simulated, a.sampling.epochs);
      EXPECT_EQ(b.sampling.epochs_simulated, b.sampling.epochs);
    }
  }
}

// Multithreading extension (n_procs < n_threads) shares CPUs between
// threads, which the classifier must refuse: nothing collapses, results
// still match the oracle.
TEST(HybridSim, SharedProcessorsDemoteWholesale) {
  const auto translated = core::translate(measured("grid", 8));
  const auto ct = shared(CompiledTrace::compile(translated));
  model::SimParams p = single_cluster(model::shared_memory_preset());
  p.proc.n_procs = 4;  // 2 threads per processor
  const SimResult ev = event_driven(ct, p);
  const SimResult hy = core::simulate_compiled(ct, p, {SimMode::Auto});
  test::expect_same_result(ev, hy, "grid/n_procs=4");
  EXPECT_FALSE(hy.sampling.active);
  EXPECT_EQ(hy.hybrid.segments_collapsed, 0);
  EXPECT_GT(hy.hybrid.segments_total, 0);
}
