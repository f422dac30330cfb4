// Cross-module integration tests: the paper's qualitative claims, checked
// end to end through measure -> translate -> simulate.
#include <gtest/gtest.h>

#include "core/extrapolator.hpp"
#include "machine/machine_sim.hpp"
#include "metrics/metrics.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"

namespace xp {
namespace {

using core::Extrapolator;
using core::Prediction;
using util::Time;

suite::SuiteConfig fast_config() {
  suite::SuiteConfig cfg;
  cfg.embar_pairs = 1 << 12;
  cfg.cyclic_size = 128;
  cfg.cyclic_width = 16;
  cfg.sparse_size = 512;
  cfg.sparse_iters = 3;
  cfg.grid_blocks = 8;
  cfg.grid_block_points = 16;
  cfg.grid_iters = 8;
  cfg.mgrid_size = 16;
  cfg.mgrid_depth = 8;
  cfg.mgrid_cycles = 1;
  cfg.poisson_size = 32;
  cfg.sort_keys = 512;
  cfg.matmul_n = 8;
  return cfg;
}

Time predict(const std::string& bench, int n, const model::SimParams& params,
             const suite::SuiteConfig& cfg = fast_config()) {
  auto prog = suite::make_by_name(bench, cfg);
  return Extrapolator(params).extrapolate(*prog, n).predicted_time;
}

TEST(Integration, EmbarSpeedsUpNearLinearly) {
  const auto params = model::distributed_preset();
  suite::SuiteConfig cfg = fast_config();
  cfg.embar_pairs = 1 << 14;  // compute-dominated, as in the paper
  const Time t1 = predict("embar", 1, params, cfg);
  const Time t8 = predict("embar", 8, params, cfg);
  const double s8 = t1 / t8;
  EXPECT_GT(s8, 6.5);
  EXPECT_LE(s8, 8.1);
}

TEST(Integration, GridFlatFromFourToEight) {
  // The square-floor (BLOCK, BLOCK) artifact: 4 processors idle at n=8, so
  // ownership and traffic are identical.  Contention is disabled because
  // the model's network capacity grows with the machine size, which would
  // otherwise mask the artifact under declared-size traffic.
  auto params = model::distributed_preset();
  params.network.contention.enabled = false;
  const Time t4 = predict("grid", 4, params);
  const Time t8 = predict("grid", 8, params);
  const double change = std::abs(t8 / t4 - 1.0);
  EXPECT_LT(change, 0.05);
}

TEST(Integration, GridActualSizesRecoverPerformance) {
  // Figure 5: correcting the 231456-byte declared transfer to the actual
  // bytes recovers most of the lost speedup.
  auto params = model::distributed_preset();
  params.size_mode = model::TransferSizeMode::Declared;
  const Time declared = predict("grid", 4, params);
  params.size_mode = model::TransferSizeMode::Actual;
  const Time actual = predict("grid", 4, params);
  EXPECT_LT(actual, declared * 0.8);
}

TEST(Integration, BandwidthImprovesCommBoundCode) {
  auto params = model::distributed_preset();
  const Time slow = predict("grid", 4, params);
  params.comm.byte_transfer = Time::us(0.005);  // 20 -> 200 MB/s
  const Time fast = predict("grid", 4, params);
  EXPECT_LT(fast, slow);
}

TEST(Integration, IdealEnvironmentIsLowerBound) {
  for (const char* bench : {"grid", "cyclic", "sort"}) {
    const Time ideal = predict(bench, 4, model::ideal_preset());
    const Time real = predict(bench, 4, model::distributed_preset());
    EXPECT_LT(ideal, real) << bench;
  }
}

TEST(Integration, MipsRatioMonotone) {
  auto params = model::distributed_preset();
  params.proc.mips_ratio = 0.5;
  const Time fast = predict("embar", 4, params);
  params.proc.mips_ratio = 1.0;
  const Time base = predict("embar", 4, params);
  params.proc.mips_ratio = 2.0;
  const Time slow = predict("embar", 4, params);
  EXPECT_LT(fast, base);
  EXPECT_LT(base, slow);
  // Embar is compute-dominated: times scale roughly with the ratio.
  EXPECT_NEAR(slow / base, 2.0, 0.1);
}

TEST(Integration, CommStartupMonotone) {
  auto params = model::distributed_preset();
  params.comm.comm_startup = Time::us(5);
  const Time cheap = predict("mgrid", 8, params);
  params.comm.comm_startup = Time::us(200);
  const Time costly = predict("mgrid", 8, params);
  EXPECT_LT(cheap, costly);
}

TEST(Integration, NoInterruptIsWorstPolicy) {
  // Figure 8: "the 'No interrupt/poll' curve performs the worst, as
  // expected, but only by a maximum of 10% ... in the case of Grid; in
  // Cyclic the performance is significantly worse, but improves with
  // larger numbers of processors."
  auto params = model::distributed_preset();
  params.comm.comm_startup = Time::us(100);
  params.proc.poll_interval = Time::us(100);
  auto at = [&](const char* bench, int n, model::ServicePolicy pol) {
    params.proc.policy = pol;
    return predict(bench, n, params);
  };
  // Cyclic: no-interrupt strictly worst at small processor counts...
  for (int n : {4, 8}) {
    const Time none = at("cyclic", n, model::ServicePolicy::NoInterrupt);
    EXPECT_GT(none, at("cyclic", n, model::ServicePolicy::Interrupt)) << n;
    EXPECT_GT(none, at("cyclic", n, model::ServicePolicy::Poll)) << n;
  }
  // ...and the gap shrinks as processors are added.
  const double gap4 =
      at("cyclic", 4, model::ServicePolicy::NoInterrupt) /
      at("cyclic", 4, model::ServicePolicy::Interrupt);
  const double gap16 =
      at("cyclic", 16, model::ServicePolicy::NoInterrupt) /
      at("cyclic", 16, model::ServicePolicy::Interrupt);
  EXPECT_LT(gap16, gap4);
  // Grid: policy choice matters by at most ~10%.
  const Time g_none = at("grid", 8, model::ServicePolicy::NoInterrupt);
  const Time g_int = at("grid", 8, model::ServicePolicy::Interrupt);
  EXPECT_LT(std::abs(g_none / g_int - 1.0), 0.10);
}

TEST(Integration, ContentionOnlyHurts) {
  auto params = model::distributed_preset();
  params.network.contention.enabled = false;
  const Time without = predict("sort", 8, params);
  params.network.contention.enabled = true;
  params.network.contention.factor = 2.0;
  const Time with = predict("sort", 8, params);
  EXPECT_GE(with, without);
}

TEST(Integration, MultithreadingInterpolatesBetweenSerialAndParallel) {
  auto params = model::shared_memory_preset();
  suite::SuiteConfig cfg = fast_config();
  auto t = [&](int procs) {
    params.proc.n_procs = procs;
    return predict("embar", 8, params, cfg);
  };
  const Time full = t(0);   // 8 processors
  const Time half = t(4);   // 2 threads per processor
  const Time serial = t(1); // all on one processor
  EXPECT_LT(full, half);
  EXPECT_LT(half, serial);
  // Compute-bound: halving processors roughly doubles time.
  EXPECT_NEAR(half / full, 2.0, 0.35);
  EXPECT_NEAR(serial / full, 8.0, 1.5);
}

TEST(Integration, TraceFileRoundTripPreservesPrediction) {
  auto prog = suite::make_by_name("cyclic", fast_config());
  rt::MeasureOptions mo;
  mo.n_threads = 4;
  const trace::Trace measured = rt::measure(*prog, mo);

  const std::string path = ::testing::TempDir() + "/cyclic4.xptb";
  trace::save(measured, path);
  const trace::Trace loaded = trace::load(path);

  Extrapolator x(model::distributed_preset());
  EXPECT_EQ(x.extrapolate_trace(measured).predicted_time,
            x.extrapolate_trace(loaded).predicted_time);
}

TEST(Integration, PredictionTracksMachineAcrossDistributions) {
  // The core of Figure 9: predicted ordering of data distributions matches
  // the machine-simulated ordering.
  suite::SuiteConfig cfg;
  cfg.matmul_n = 8;
  Extrapolator x(model::cm5_preset());
  std::vector<Time> pred, act;
  const rt::Dist kDists[] = {rt::Dist::Block, rt::Dist::Whole};
  for (rt::Dist a : kDists)
    for (rt::Dist b : kDists) {
      auto p1 = suite::make_matmul(a, b, cfg);
      pred.push_back(x.extrapolate(*p1, 4).predicted_time);
      auto p2 = suite::make_matmul(a, b, cfg);
      act.push_back(
          machine::run_on_machine(*p2, 4, machine::cm5_machine()).exec_time);
    }
  // Same best choice.
  EXPECT_EQ(metrics::argmin_time(pred), metrics::argmin_time(act));
  // Every prediction within a factor of 2 of the machine.
  for (std::size_t i = 0; i < pred.size(); ++i) {
    EXPECT_GT(pred[i] / act[i], 0.5) << i;
    EXPECT_LT(pred[i] / act[i], 2.0) << i;
  }
}

TEST(Integration, BarrierHeavyCodeSensitiveToBarrierCosts) {
  auto params = model::distributed_preset();
  const Time base = predict("mgrid", 16, params);
  params.barrier.model_time = Time::us(500);
  params.barrier.entry_time = Time::us(100);
  const Time costly = predict("mgrid", 16, params);
  EXPECT_GT(costly, base * 1.05);
}

}  // namespace
}  // namespace xp
