// xp::pattern coverage: node execution + verification, pattern-event
// discipline in measured traces, region extraction, compositional model
// fitting (held-out accuracy against direct simulation), bitwise
// determinism of composition, and the Extra-P experiment exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "core/extrapolator.hpp"
#include "core/sweep.hpp"
#include "model/params.hpp"
#include "pattern/compose.hpp"
#include "pattern/extrap_writer.hpp"
#include "pattern/pattern.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

namespace xp::pattern {
namespace {

/// Small problem sizes: the tests sweep several thread counts per program.
suite::SuiteConfig small_cfg() {
  suite::SuiteConfig cfg;
  cfg.pipe_stages = 6;
  cfg.pipe_items = 24;
  cfg.pat_items = 1 << 10;
  cfg.pat_bins = 8;
  cfg.pat_tasks = 32;
  cfg.pat_levels = 3;
  return cfg;
}

trace::Trace measure_bench(const std::string& name, int n) {
  auto prog = suite::make_by_name(name, small_cfg());
  rt::MeasureOptions opt;
  opt.n_threads = n;
  return rt::measure(*prog, opt);
}

core::SweepResult sweep_bench(const std::string& name,
                              const std::vector<int>& procs) {
  const suite::SuiteConfig cfg = small_cfg();
  core::SweepRunner runner([name, cfg] { return suite::make_by_name(name, cfg); });
  return runner.run_grid(procs, {model::distributed_preset()}, {"dist"});
}

TEST(PatternExec, AllBenchesRunAndVerifyAtSeveralThreadCounts) {
  for (const std::string& name : suite::pattern_benchmark_names())
    for (int n : {1, 3, 4}) {
      SCOPED_TRACE(name + "/" + std::to_string(n));
      // measure() validates the trace and runs the program's verify()
      // (every node checks its sequential reference exactly).
      const trace::Trace t = measure_bench(name, n);
      EXPECT_GT(t.size(), 0u);
      const auto regions = extract_regions(t);
      ASSERT_FALSE(regions.empty());
      // Region ids are assigned pre-order from 1 and are n-independent.
      for (std::size_t i = 0; i < regions.size(); ++i)
        EXPECT_EQ(regions[i].region, static_cast<std::int64_t>(i) + 1);
    }
}

TEST(PatternExec, PatternTracesSerializeAsV2) {
  const trace::Trace t = measure_bench("mrhist", 2);
  std::ostringstream os;
  trace::write_text(t, os);
  EXPECT_EQ(os.str().substr(0, 11), "#XPTRACE v2");
}

TEST(PatternExec, RegionStructureOfPipestencil) {
  const trace::Trace t = measure_bench("pipestencil", 4);
  const auto regions = extract_regions(t);
  ASSERT_EQ(regions.size(), 4u);  // seq + {init, sweep, residual}

  EXPECT_EQ(regions[0].kind, Kind::Sequence);
  EXPECT_EQ(regions[0].parent, 0);
  EXPECT_EQ(regions[0].detail, 3);
  ASSERT_EQ(regions[0].children,
            (std::vector<std::int64_t>{2, 3, 4}));

  EXPECT_EQ(regions[1].kind, Kind::MapReduce);
  EXPECT_EQ(regions[2].kind, Kind::Pipeline);
  EXPECT_EQ(regions[2].detail, 6);  // pipe_stages
  EXPECT_EQ(regions[3].kind, Kind::MapReduce);
  for (std::size_t i = 1; i < regions.size(); ++i) {
    EXPECT_EQ(regions[i].parent, 1);
    EXPECT_TRUE(regions[i].children.empty());
    EXPECT_EQ(regions[i].self, regions[i].span);  // leaves: self == span
  }

  // Sequential children occupy disjoint, ordered intervals inside the
  // parent, and the parent's self time is the slack around them.
  EXPECT_LE(regions[0].begin, regions[1].begin);
  EXPECT_LE(regions[1].end, regions[2].begin);
  EXPECT_LE(regions[2].end, regions[3].begin);
  EXPECT_LE(regions[3].end, regions[0].end);
  EXPECT_EQ(regions[0].self,
            regions[0].span - regions[1].span - regions[2].span -
                regions[3].span);
}

TEST(PatternExec, RegionIdsStableAcrossThreadCounts) {
  const auto r2 = extract_regions(measure_bench("taskgraph", 2));
  const auto r5 = extract_regions(measure_bench("taskgraph", 5));
  ASSERT_EQ(r2.size(), r5.size());
  for (std::size_t i = 0; i < r2.size(); ++i) {
    EXPECT_EQ(r2[i].region, r5[i].region);
    EXPECT_EQ(r2[i].kind, r5[i].kind);
    EXPECT_EQ(r2[i].parent, r5[i].parent);
    EXPECT_EQ(r2[i].detail, r5[i].detail);
  }
}

TEST(PatternExec, LabelsCoverEveryRegion) {
  const auto labels = suite::pattern_labels("pipestencil", small_cfg());
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels.at(1), "seq:pipestencil");
  EXPECT_EQ(labels.at(3), "pipeline:sweep");
  EXPECT_THROW(suite::pattern_labels("embar", small_cfg()), util::Error);
}

// --- extraction hardening ------------------------------------------------

trace::Event pat_event(trace::EventKind k, int thread, std::int64_t region,
                       std::int32_t kind_code, std::int64_t t_ns) {
  trace::Event e;
  e.time = util::Time::ns(t_ns);
  e.thread = thread;
  e.kind = k;
  e.object = region;
  e.barrier_id = kind_code;
  return e;
}

TEST(PatternExtract, RejectsUnmatchedEnd) {
  trace::Trace t;
  t.set_n_threads(1);
  t.append(pat_event(trace::EventKind::PatternEnd, 0, 1, 0, 10));
  EXPECT_THROW(extract_regions(t), util::Error);
}

TEST(PatternExtract, RejectsOpenRegionAtThreadEnd) {
  trace::Trace t;
  t.set_n_threads(1);
  t.append(pat_event(trace::EventKind::PatternBegin, 0, 1, 0, 10));
  EXPECT_THROW(extract_regions(t), util::Error);
}

TEST(PatternExtract, RejectsRegionMissingOnSomeThread) {
  trace::Trace t;
  t.set_n_threads(2);
  t.append(pat_event(trace::EventKind::PatternBegin, 0, 1, 0, 10));
  t.append(pat_event(trace::EventKind::PatternEnd, 0, 1, 0, 20));
  EXPECT_THROW(extract_regions(t), util::Error);
}

TEST(PatternExtract, RejectsInconsistentNestingAcrossThreads) {
  trace::Trace t;
  t.set_n_threads(2);
  // Thread 0: region 2 nested in 1; thread 1: region 2 at top level.
  t.append(pat_event(trace::EventKind::PatternBegin, 0, 1, 3, 10));
  t.append(pat_event(trace::EventKind::PatternBegin, 0, 2, 0, 11));
  t.append(pat_event(trace::EventKind::PatternEnd, 0, 2, 0, 12));
  t.append(pat_event(trace::EventKind::PatternEnd, 0, 1, 3, 13));
  t.append(pat_event(trace::EventKind::PatternBegin, 1, 2, 0, 10));
  t.append(pat_event(trace::EventKind::PatternEnd, 1, 2, 0, 12));
  EXPECT_THROW(extract_regions(t), util::Error);
}

TEST(PatternExtract, RejectsUnknownPatternKind) {
  trace::Trace t;
  t.set_n_threads(1);
  t.append(pat_event(trace::EventKind::PatternBegin, 0, 1, 99, 10));
  t.append(pat_event(trace::EventKind::PatternEnd, 0, 1, 99, 20));
  EXPECT_THROW(extract_regions(t), util::Error);
}

TEST(PatternExtract, EmptyForPatternFreeTrace) {
  auto prog = suite::make_embar();
  rt::MeasureOptions opt;
  opt.n_threads = 2;
  EXPECT_TRUE(extract_regions(rt::measure(*prog, opt)).empty());
}

// --- composition ---------------------------------------------------------

TEST(PatternCompose, ComposedModelTracksFittedCounts) {
  const std::vector<int> procs = {1, 2, 3, 4, 6, 8};
  const auto sweep = sweep_bench("pipestencil", procs);
  const Experiment e =
      collect(sweep, "pipestencil", suite::pattern_labels("pipestencil",
                                                          small_cfg()));
  const ComposedModel cm = compose(e);
  ASSERT_EQ(cm.regions.size(), 4u);
  EXPECT_EQ(cm.regions[0].depth, 0);
  EXPECT_EQ(cm.regions[1].depth, 1);
  EXPECT_EQ(cm.regions[2].label, "pipeline:sweep");

  // Per-point: the pipeline's self time is a staircase (ceil(stages/n)
  // pipeline steps per thread) that a smooth PMNF rounds through, so
  // individual fitted counts can sit off the curve; the fit must still
  // track each point within 25% and the curve within 10% on average.
  double rel_sum = 0;
  for (std::size_t k = 0; k < procs.size(); ++k) {
    const double total = e.totals[k].to_us();
    const double rel = std::abs(cm.eval(procs[k]) - total) / total;
    EXPECT_LE(rel, 0.25) << "composed model off at fitted n=" << procs[k];
    rel_sum += rel;
  }
  EXPECT_LE(rel_sum / static_cast<double>(procs.size()), 0.10);
}

TEST(PatternCompose, HeldOutPredictionMatchesDirectSimulation) {
  for (const std::string& name : suite::pattern_benchmark_names()) {
    SCOPED_TRACE(name);
    const std::vector<int> train = {1, 2, 3, 4, 6, 8};
    const auto sweep = sweep_bench(name, train);
    const ComposedModel cm = compose(collect(sweep, name));

    const suite::SuiteConfig cfg = small_cfg();
    const core::Extrapolator ex(model::distributed_preset());
    for (int n : {12, 16}) {
      auto prog = suite::make_by_name(name, cfg);
      const double direct =
          ex.extrapolate(*prog, n).predicted_time.to_us();
      const double composed = cm.eval(n);
      // Held-out accuracy: inside the composed confidence band widened by
      // a modest model-error allowance (deterministic simulated curves
      // leave the residual bootstrap almost no spread).
      const auto band = cm.band(n);
      const double slack = 0.25 * direct;
      EXPECT_GE(direct, band.lo - slack) << "n=" << n;
      EXPECT_LE(direct, band.hi + slack) << "n=" << n;
      // The point prediction itself is held to the same allowance.  At
      // n = 12/16 it is off by 9.1/23.5% on pipestencil, 17.0/22.0% on
      // mrhist and 0.1/6.8% on taskgraph, so abl_pattern_fit's 5.9-12.9%
      // held-out errors (other sizes and training sets) cannot justify a
      // tighter bound here.
      EXPECT_LE(std::abs(composed - direct), slack) << "n=" << n;
    }
  }
}

TEST(PatternCompose, BitwiseDeterministicAndCandidateOrderInvariant) {
  const std::vector<int> procs = {1, 2, 3, 4, 6, 8};
  const auto sweep = sweep_bench("taskgraph", procs);
  const Experiment e = collect(sweep, "taskgraph");

  ComposeOptions opt;
  opt.candidates = fit::generate_terms(opt.fit.grid);
  const ComposedModel a = compose(e, opt);
  std::reverse(opt.candidates.begin(), opt.candidates.end());
  const ComposedModel b = compose(e, opt);
  const ComposedModel c = compose(e, opt);

  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(b.str(), c.str());
  for (double n : {2.0, 8.0, 32.0, 128.0}) {
    // Bitwise: canonicalized candidates + fixed bootstrap seed.
    EXPECT_EQ(a.eval(n), b.eval(n));
    EXPECT_EQ(a.band(n).lo, b.band(n).lo);
    EXPECT_EQ(a.band(n).hi, b.band(n).hi);
  }
}

TEST(PatternCompose, SyntheticSelfTimesRecovered) {
  // Inject exact per-region self costs of known PMNF shape and check the
  // composed total reproduces their sum out of sample.
  const std::vector<int> procs = {1, 2, 4, 8, 16, 32};
  std::vector<std::vector<RegionSpan>> spans;
  std::vector<Time> totals;
  for (int n : procs) {
    RegionSpan root;
    root.region = 1;
    root.kind = Kind::Sequence;
    root.detail = 1;
    root.children = {2};
    RegionSpan leaf;
    leaf.region = 2;
    leaf.kind = Kind::MapReduce;
    leaf.detail = 64;
    leaf.parent = 1;

    const double leaf_us = 4000.0 / n + 12.0;       // strong-scaling map
    const double root_self_us = 30.0;               // constant glue
    leaf.self = leaf.span = Time::us(leaf_us);
    root.span = Time::us(root_self_us + leaf_us);
    root.self = Time::us(root_self_us);
    root.begin = Time();
    root.end = root.span;
    totals.push_back(root.span + Time::us(5.0));    // +5us outside regions
    spans.push_back({root, leaf});
  }
  ComposeOptions opt;
  opt.fit.bootstrap = 0;
  const ComposedModel cm = compose_regions(procs, spans, totals, opt);
  for (double n : {64.0, 128.0}) {
    const double expect = 4000.0 / n + 12.0 + 30.0 + 5.0;
    EXPECT_NEAR(cm.eval(n), expect, 0.02 * expect) << "n=" << n;
  }
}

// --- exporter ------------------------------------------------------------

TEST(PatternExport, ExtrapFileShape) {
  const std::vector<int> procs = {1, 2, 3, 4};
  const auto sweep = sweep_bench("pipestencil", procs);
  const Experiment e =
      collect(sweep, "pipestencil",
              suite::pattern_labels("pipestencil", small_cfg()));
  std::ostringstream os;
  write_extrap(e, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("PARAMETER n\n"), std::string::npos);
  EXPECT_NE(text.find("POINTS 1 2 3 4\n"), std::string::npos);
  EXPECT_NE(text.find("EXPERIMENT pipestencil\n"), std::string::npos);
  EXPECT_NE(text.find("METRIC time_us\n"), std::string::npos);
  EXPECT_NE(text.find("CALLPATH main\n"), std::string::npos);
  EXPECT_NE(
      text.find("CALLPATH main->seq:pipestencil#1->pipeline:sweep#3\n"),
      std::string::npos);

  // One DATA line per callpath: main + every region.
  std::size_t data_lines = 0, pos = 0;
  while ((pos = text.find("DATA", pos)) != std::string::npos) {
    ++data_lines;
    pos += 4;
  }
  EXPECT_EQ(data_lines, 1u + e.spans[0].size());

  // Deterministic export: same experiment, same bytes.
  std::ostringstream os2;
  write_extrap(e, os2);
  EXPECT_EQ(text, os2.str());
}

}  // namespace
}  // namespace xp::pattern
