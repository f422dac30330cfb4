// Differential battery for pattern workloads: the composed-pattern path
// rides the same sweep machinery as everything else, so its inputs must
// inherit the sweep's bitwise guarantees.  Held here, in sweep_test
// style:
//
//   * every SweepRunner prediction over a pattern program (simulated in
//     SimMode::Auto, the sweep's one mode) is bitwise identical to a
//     sequential EventDriven prediction of the same measured trace —
//     numeric fields AND the serialized extrapolated event stream (which
//     carries the re-timestamped pattern delimiters the composed model is
//     extracted from);
//   * across pool sizes {1, 2, 8};
//   * therefore the composed ComposedModel — regions, fitted curves,
//     bands — is bitwise identical however the sweep that fed it ran, and
//     equal to the model composed from the EventDriven predictions.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/extrapolator.hpp"
#include "core/sweep.hpp"
#include "model/params.hpp"
#include "pattern/compose.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"

namespace xp::pattern {
namespace {

suite::SuiteConfig small_cfg() {
  suite::SuiteConfig cfg;
  cfg.pipe_stages = 6;
  cfg.pipe_items = 24;
  cfg.pat_items = 1 << 10;
  cfg.pat_tasks = 32;
  return cfg;
}

const std::vector<int> kProcs = {1, 2, 4, 6};

std::string trace_bytes(const trace::Trace& t) {
  std::ostringstream os;
  trace::write_text(t, os);
  return os.str();
}

/// Measure once per thread count so baseline and sweeps share inputs.
std::vector<trace::Trace> measured_traces(const std::string& name) {
  std::vector<trace::Trace> out;
  for (int n : kProcs) {
    auto prog = suite::make_by_name(name, small_cfg());
    rt::MeasureOptions opt;
    opt.n_threads = n;
    out.push_back(rt::measure(*prog, opt));
  }
  return out;
}

core::SweepResult run_sweep(const std::vector<trace::Trace>& traces,
                            int n_workers) {
  core::SweepOptions opt;
  opt.n_workers = n_workers;
  core::SweepRunner runner(opt);
  for (const trace::Trace& t : traces) runner.seed_trace(t);
  return runner.run_grid(kProcs, {model::distributed_preset()}, {"dist"});
}

void expect_bitwise_equal(const core::Prediction& a,
                          const core::Prediction& b) {
  EXPECT_EQ(a.n_threads, b.n_threads);
  EXPECT_EQ(a.predicted_time.count_ns(), b.predicted_time.count_ns());
  EXPECT_EQ(a.ideal_time.count_ns(), b.ideal_time.count_ns());
  EXPECT_EQ(a.measured_time.count_ns(), b.measured_time.count_ns());
  EXPECT_EQ(a.sim.makespan.count_ns(), b.sim.makespan.count_ns());
  EXPECT_EQ(trace_bytes(a.sim.extrapolated()), trace_bytes(b.sim.extrapolated()));
}

/// A composed model down to the band bits.
std::string signature(const ComposedModel& cm) {
  std::ostringstream sig;
  sig << cm.str();
  sig.precision(17);
  for (double n : {2.0, 8.0, 32.0, 128.0})
    sig << cm.eval(n) << '/' << cm.band(n).lo << '/' << cm.band(n).hi << '\n';
  return sig.str();
}

class PatternDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(PatternDifferential, SweepBitwiseEqualsMonolithicSimulation) {
  const std::string name = GetParam();
  const auto traces = measured_traces(name);

  // Monolithic baseline: sequential event-driven simulation per count,
  // arranged as a sweep result so it composes like one.
  core::SweepResult oracle;
  for (const trace::Trace& t : traces) {
    core::SweepPoint p;
    p.n_threads = t.n_threads();
    p.params = model::distributed_preset();
    p.label = "dist";
    oracle.predictions.push_back(core::predict(
        core::prepare_trace(t), p.params, {core::SimMode::EventDriven}));
    oracle.grid.push_back(std::move(p));
  }
  const std::vector<core::Prediction>& base = oracle.predictions;
  const std::string composed_ref = signature(compose(collect(oracle, name)));

  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE(name + " workers=" + std::to_string(workers));
    const auto sweep = run_sweep(traces, workers);
    ASSERT_EQ(sweep.predictions.size(), kProcs.size());
    for (std::size_t i = 0; i < kProcs.size(); ++i)
      expect_bitwise_equal(sweep.predictions[i], base[i]);

    // Identical inputs must compose to the identical model.
    EXPECT_EQ(signature(compose(collect(sweep, name))), composed_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatternBenches, PatternDifferential,
                         ::testing::Values("pipestencil", "mrhist",
                                           "taskgraph"));

}  // namespace
}  // namespace xp::pattern
