// Differential + determinism coverage for the parallel sweep engine.
//
// The contract under test (core/sweep.hpp): a SweepRunner prediction is
// bitwise-identical to a sequential Extrapolator::extrapolate_trace over
// the same measured trace — for every grid point, at any pool size, under
// any task submission order, on repeated runs.  "Bitwise" is checked the
// strong way: every numeric field of the Prediction plus the full
// serialized extrapolated event stream.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "core/extrapolator.hpp"
#include "core/sweep.hpp"
#include "metrics/sweep_report.hpp"
#include "rt/collection.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/once_cell.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace xp::core {
namespace {

// A small but non-trivial program: computation, neighbor remote reads, and
// barriers, so every simulator subsystem participates.
class SweepProgram : public rt::Program {
 public:
  std::string name() const override { return "sweep_prog"; }
  void setup(rt::Runtime& rt) override {
    c_ = std::make_unique<rt::Collection<double>>(
        rt, rt::Distribution::d1(rt::Dist::Block, rt.n_threads(),
                                 rt.n_threads()),
        512);
    for (int i = 0; i < rt.n_threads(); ++i) c_->init(i) = i + 1.0;
  }
  void thread_main(rt::Runtime& rt) override {
    for (int k = 0; k < 3; ++k) {
      rt.compute_flops(568.0 * (rt.thread_id() % 3 + 1));
      if (rt.n_threads() > 1) {
        (void)c_->get((rt.thread_id() + 1) % rt.n_threads(), 16);
        if (k == 1) (void)c_->get((rt.thread_id() + 2) % rt.n_threads(), 64);
      }
      rt.barrier();
    }
  }
  std::unique_ptr<rt::Collection<double>> c_;
};

std::vector<SweepPoint> test_grid() {
  std::vector<SweepPoint> grid;
  const std::vector<std::pair<std::string, model::SimParams>> machines = {
      {"distributed", model::distributed_preset()},
      {"shared", model::shared_memory_preset()},
      {"cm5", model::cm5_preset()},
      {"ideal", model::ideal_preset()},
  };
  for (const auto& [label, params] : machines) {
    for (int n : {1, 2, 4, 8}) {
      SweepPoint p;
      p.n_threads = n;
      p.params = params;
      p.label = label;
      grid.push_back(std::move(p));
    }
  }
  return grid;
}

std::map<int, trace::Trace> measure_all(const std::vector<SweepPoint>& grid) {
  std::map<int, trace::Trace> traces;
  for (const auto& p : grid) {
    if (traces.count(p.n_threads)) continue;
    SweepProgram prog;
    rt::MeasureOptions mo;
    mo.n_threads = p.n_threads;
    traces.emplace(p.n_threads, rt::measure(prog, mo));
  }
  return traces;
}

// Serialize a Prediction exhaustively; byte-equal strings <=> bitwise-equal
// predictions (times are integer ns; avg_inflight is printed as hexfloat).
// `engine_events` = false leaves out the one field that depends on the
// simulation mode: the count of engine events that fired.
std::string serialize(const Prediction& p, bool engine_events = true) {
  std::ostringstream os;
  os << "n=" << p.n_threads << " pred=" << p.predicted_time.count_ns()
     << " ideal=" << p.ideal_time.count_ns()
     << " meas=" << p.measured_time.count_ns()
     << " makespan=" << p.sim.makespan.count_ns()
     << " msgs=" << p.sim.messages << " bytes=" << p.sim.bytes;
  if (engine_events) os << " events=" << p.sim.engine_events;
  os << " inflight=" << std::hexfloat << p.sim.avg_inflight
     << std::defaultfloat << '\n';
  for (const auto& t : p.sim.threads) {
    os << "  t: " << t.compute.count_ns() << ' ' << t.comm_wait.count_ns()
       << ' ' << t.barrier_wait.count_ns() << ' ' << t.send_overhead.count_ns()
       << ' ' << t.service_time.count_ns() << ' ' << t.poll_time.count_ns()
       << ' ' << t.finish.count_ns() << ' ' << t.remote_accesses << ' '
       << t.intra_cluster_accesses << ' ' << t.requests_served << ' '
       << t.interrupts_taken << ' ' << t.polls << '\n';
  }
  trace::write_text(p.sim.extrapolated, os);
  return os.str();
}

std::string serialize(const SweepResult& r, bool engine_events = true) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.predictions.size(); ++i)
    os << "[" << i << " " << r.grid[i].label << "]\n"
       << serialize(r.predictions[i], engine_events);
  return os.str();
}

void expect_equal(const Prediction& a, const Prediction& b,
                  const std::string& what) {
  EXPECT_EQ(serialize(a), serialize(b)) << what;
}

TEST(SweepRunner, MatchesSequentialExtrapolationAtEveryPoolSize) {
  const auto grid = test_grid();
  const auto traces = measure_all(grid);

  // Sequential reference: one Extrapolator per point over the same traces.
  std::vector<Prediction> reference;
  for (const auto& p : grid)
    reference.push_back(
        Extrapolator(p.params).extrapolate_trace(traces.at(p.n_threads)));

  const int hw = util::ThreadPool::default_workers();
  for (int workers : {1, 4, hw}) {
    SweepOptions opt;
    opt.n_workers = workers;
    SweepRunner runner(opt);
    for (const auto& [n, t] : traces) runner.seed_trace(t);
    const SweepResult result = runner.run(grid);
    ASSERT_EQ(result.predictions.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
      expect_equal(result.predictions[i], reference[i],
                   "workers=" + std::to_string(workers) + " point=" +
                       std::to_string(i) + " (" + grid[i].label + ", n=" +
                       std::to_string(grid[i].n_threads) + ")");
    EXPECT_EQ(result.cache_hits + result.cache_misses, grid.size());
  }
}

TEST(SweepRunner, FactoryPathMatchesSeededPath) {
  const auto grid = test_grid();
  const auto traces = measure_all(grid);

  SweepOptions opt;
  opt.n_workers = 4;
  SweepRunner measured([] { return std::make_unique<SweepProgram>(); }, opt);
  const SweepResult from_factory = measured.run(grid);
  // Four distinct thread counts -> four measurements, the rest cache hits.
  EXPECT_EQ(from_factory.cache_misses, 4u);
  EXPECT_EQ(from_factory.cache_hits, grid.size() - 4);

  SweepRunner seeded(opt);
  for (const auto& [n, t] : traces) seeded.seed_trace(t);
  const SweepResult from_seed = seeded.run(grid);
  EXPECT_EQ(serialize(from_factory), serialize(from_seed));

  // The factory path did real measurements, so the per-stage breakdown
  // must account for them; the seeded path never measures.  Both CPU-sum
  // and wall views must be populated.
  EXPECT_GT(from_factory.stages.measure_cpu_s, 0.0);
  EXPECT_GT(from_factory.stages.translate_cpu_s, 0.0);
  EXPECT_GT(from_factory.stages.prewarm_wall_s, 0.0);
  EXPECT_GT(from_factory.stages.simulate_wall_s, 0.0);
  EXPECT_GT(from_factory.stages.simulate_cpu_s, 0.0);
  EXPECT_EQ(from_seed.stages.measure_cpu_s, 0.0);
}

TEST(SweepRunner, DeterministicAcrossRunsAndSubmissionOrders) {
  const auto grid = test_grid();
  const auto traces = measure_all(grid);

  const auto run_with = [&](std::vector<std::size_t> order) {
    SweepOptions opt;
    opt.n_workers = 4;
    opt.submit_order = std::move(order);
    SweepRunner runner(opt);
    for (const auto& [n, t] : traces) runner.seed_trace(t);
    return serialize(runner.run(grid));
  };

  const std::string first = run_with({});
  const std::string second = run_with({});
  EXPECT_EQ(first, second) << "repeated sweep is not byte-identical";

  // A deterministic shuffle: reversed order, then odd/even interleave.
  std::vector<std::size_t> shuffled;
  for (std::size_t i = grid.size(); i-- > 0;)
    if (i % 2 == 0) shuffled.push_back(i);
  for (std::size_t i = grid.size(); i-- > 0;)
    if (i % 2 == 1) shuffled.push_back(i);
  const std::string third = run_with(shuffled);
  EXPECT_EQ(first, third) << "submission order leaked into the results";
}

// The pipelined phase (measurement jobs submitting their cells) is as
// deterministic as the seeded fan-out: cold sweeps are bitwise-equal across
// submission orders and worker counts, and measure each thread count once.
TEST(SweepRunner, PipelineIsBitwiseEqualAcrossOrdersAndWorkers) {
  const auto grid = test_grid();
  std::vector<std::size_t> reversed(grid.size()), interleaved;
  for (std::size_t i = 0; i < grid.size(); ++i)
    reversed[i] = grid.size() - 1 - i;
  for (std::size_t i = 1; i < grid.size(); i += 2) interleaved.push_back(i);
  for (std::size_t i = 0; i < grid.size(); i += 2) interleaved.push_back(i);

  std::string first;
  for (int workers : {1, 2, 4}) {
    for (const auto& order : {std::vector<std::size_t>{}, reversed,
                              interleaved}) {
      SweepOptions opt;
      opt.n_workers = workers;
      opt.submit_order = order;
      SweepRunner runner([] { return std::make_unique<SweepProgram>(); },
                         opt);
      const SweepResult r = runner.run(grid);
      const std::string what = "workers=" + std::to_string(workers) +
                               " order size " + std::to_string(order.size());
      EXPECT_EQ(r.cache_misses, 4u) << what;
      EXPECT_EQ(r.cache_hits + r.cache_misses, grid.size()) << what;
      const std::string serial = serialize(r);
      if (first.empty())
        first = serial;
      else
        EXPECT_EQ(serial, first) << what;
    }
  }
}

// A measurement that throws at one thread count fails the whole sweep with
// that error and leaves no cache entry for the failed key; once the program
// measures again, the same runner completes the grid.
TEST(SweepRunner, FailedMeasurementRethrowsAndPinsNoEntry) {
  std::atomic<bool> broken{true};
  SweepOptions opt;
  opt.n_workers = 4;
  // Throws from setup(), on the measuring worker's own stack: ASan reports
  // a false stack-use-after-scope for exceptions thrown on a fiber stack.
  class Failing : public SweepProgram {
    void setup(rt::Runtime& rt) override {
      XP_REQUIRE(rt.n_threads() != 4, "no measurement at n=4");
      SweepProgram::setup(rt);
    }
  };
  SweepRunner failing(
      [&]() -> std::unique_ptr<rt::Program> {
        if (broken.load()) return std::make_unique<Failing>();
        return std::make_unique<SweepProgram>();
      },
      opt);
  const auto grid = test_grid();
  EXPECT_THROW(failing.run(grid), util::Error);
  EXPECT_EQ(failing.cache().get(4), nullptr);
  EXPECT_LE(failing.cache().size(), 3u);

  broken.store(false);
  const SweepResult healed = failing.run(grid);
  EXPECT_NE(failing.cache().get(4), nullptr);
  EXPECT_EQ(failing.cache().size(), 4u);
  SweepRunner reference([] { return std::make_unique<SweepProgram>(); }, opt);
  EXPECT_EQ(serialize(healed), serialize(reference.run(grid)));
}

// The two stage walls split the sweep's wall at the instant the last trace
// is prepared, so they sum to the wall a caller measures around run().
TEST(SweepRunner, StageWallsSumToTheSweepWall) {
  SweepOptions opt;
  opt.n_workers = 2;
  SweepRunner runner([] { return std::make_unique<SweepProgram>(); }, opt);
  const auto t0 = std::chrono::steady_clock::now();
  const SweepResult r = runner.run(test_grid());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(r.stages.prewarm_wall_s, 0.0);
  EXPECT_GE(r.stages.simulate_wall_s, 0.0);
  const double sum = r.stages.prewarm_wall_s + r.stages.simulate_wall_s;
  EXPECT_LE(sum, wall);
  EXPECT_NEAR(sum, wall, 1e-3);
}

// The EventDriven oracle for every cell of `grid`, built per cell from
// `factory`'s measurement of the cell's thread count.
std::vector<Prediction> event_oracle(const ProgramFactory& factory,
                                     const std::vector<SweepPoint>& grid) {
  const TranslateCache::Measure measure = measure_fresh(factory);
  std::map<int, TranslatedTrace> prepared;
  std::vector<Prediction> out;
  for (const SweepPoint& p : grid) {
    auto it = prepared.find(p.n_threads);
    if (it == prepared.end())
      it = prepared.emplace(p.n_threads, prepare_trace(measure(p.n_threads)))
               .first;
    out.push_back(predict(it->second, p.params, {SimMode::EventDriven}));
  }
  return out;
}

// The sweep simulates in Auto, and Auto is exact: every sweep cell equals
// the EventDriven oracle in every serialized field, the extrapolated trace
// text included.  Only the engine-event count may differ, because it counts
// the events that fired and the fast paths fire fewer.  The suite's grid
// code repeats its epochs, so the barrier-epoch memo replays windows there.
TEST(SweepRunner, SweepMatchesEventDrivenOracle) {
  const std::vector<model::SimParams> machines = {
      model::distributed_preset(), model::cm5_preset(), model::sp1_preset(),
      model::shared_memory_preset(), model::ideal_preset()};
  const std::vector<std::string> labels = {"distributed", "cm5", "sp1",
                                           "shared", "ideal"};
  const std::vector<ProgramFactory> programs = {
      [] { return std::make_unique<SweepProgram>(); },
      [] { return suite::make_by_name("grid", suite::SuiteConfig{}); }};
  for (std::size_t prog = 0; prog < programs.size(); ++prog) {
    SCOPED_TRACE("program " + std::to_string(prog));
    SweepOptions opt;
    opt.n_workers = 2;
    SweepRunner runner(programs[prog], opt);
    const SweepResult sweep = runner.run_grid({1, 2, 4, 8}, machines, labels);
    const std::vector<Prediction> oracle =
        event_oracle(programs[prog], sweep.grid);
    std::int64_t hits = 0, oracle_events = 0;
    for (std::size_t i = 0; i < sweep.grid.size(); ++i) {
      EXPECT_EQ(serialize(sweep.predictions[i], false),
                serialize(oracle[i], false))
          << "cell " << i;
      EXPECT_GT(sweep.predictions[i].sim.extrapolated.size(), 0u);
      hits += sweep.predictions[i].sim.hybrid.memo_hits;
      oracle_events += static_cast<std::int64_t>(oracle[i].sim.engine_events);
    }
    if (prog == 1) {
      EXPECT_GT(hits, 0);
      EXPECT_LT(sweep.stages.sim_events_fired, oracle_events);
    }
  }
}

// SweepStages attributes the barrier-epoch memo: on message-barrier
// machines nothing collapses, so a grid whose windows replay from the memo
// counts as memo cells, not event cells, the stage sums equal the
// per-prediction sums, and the standard sweep report prints them.
TEST(SweepRunner, StagesAttributeMemoizedCells) {
  SweepOptions opt;
  opt.n_workers = 2;
  SweepRunner runner(
      [] { return suite::make_by_name("grid", suite::SuiteConfig{}); }, opt);
  const SweepResult r =
      runner.run_grid({2, 4, 8, 16}, {model::cm5_preset(),
                                      model::distributed_preset()},
                      {"cm5", "distributed"});
  std::int64_t hits = 0, misses = 0, memo_cells = 0;
  for (const Prediction& p : r.predictions) {
    hits += p.sim.hybrid.memo_hits;
    misses += p.sim.hybrid.memo_misses;
    if (p.sim.hybrid.memo_hits > 0) ++memo_cells;
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  EXPECT_EQ(r.stages.sim_memo_hits, hits);
  EXPECT_EQ(r.stages.sim_memo_misses, misses);
  EXPECT_EQ(r.stages.cells_memo, memo_cells);
  EXPECT_GT(r.stages.cells_memo, 0);
  EXPECT_EQ(r.stages.cells_hybrid, 0);
  EXPECT_EQ(r.stages.cells_event + r.stages.cells_memo,
            static_cast<std::int64_t>(r.grid.size()));
  const std::string report = metrics::render_sweep(metrics::analyze_sweep(r));
  EXPECT_NE(report.find(std::to_string(hits) + " memo hit(s)/" +
                        std::to_string(misses) + " miss(es)"),
            std::string::npos)
      << report;
}

// Property test: for a RANDOMIZED grid (random sizes, random machine per
// cell, random duplicate structure) and a RANDOMIZED submission order,
// predictions are bitwise-identical across n_workers ∈ {1, 2, 8}, identical
// to the sequential Extrapolator path, and the cache accounting invariant
// `hits + misses == grid size` holds in every configuration.  The RNG is
// seeded per round, so failures reproduce exactly.
TEST(SweepRunner, RandomizedGridsAreWorkerCountInvariant) {
  const std::vector<model::SimParams> machines = {
      model::distributed_preset(), model::shared_memory_preset(),
      model::cm5_preset(), model::paragon_preset(), model::ideal_preset()};

  for (std::uint64_t round = 0; round < 3; ++round) {
    util::Xoshiro256ss rng(0xC0FFEE00ull + round);

    // 6–20 cells, thread counts drawn from {1..8} with repeats so the
    // cache sees both misses and hits.
    const std::size_t cells = 6 + rng.next_below(15);
    std::vector<SweepPoint> grid;
    for (std::size_t i = 0; i < cells; ++i) {
      SweepPoint p;
      p.n_threads = 1 + static_cast<int>(rng.next_below(8));
      p.params = machines[rng.next_below(machines.size())];
      p.label = "cell" + std::to_string(i);
      grid.push_back(std::move(p));
    }
    const auto traces = measure_all(grid);

    std::vector<Prediction> reference;
    for (const auto& p : grid)
      reference.push_back(
          Extrapolator(p.params).extrapolate_trace(traces.at(p.n_threads)));

    std::string first_serial;
    for (int workers : {1, 2, 8}) {
      std::vector<std::size_t> order(grid.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      util::shuffle(order, rng);  // a fresh random permutation per config

      SweepOptions opt;
      opt.n_workers = workers;
      opt.submit_order = std::move(order);
      SweepRunner runner(opt);
      for (const auto& [n, t] : traces) runner.seed_trace(t);
      const SweepResult result = runner.run(grid);

      ASSERT_EQ(result.predictions.size(), grid.size());
      EXPECT_EQ(result.cache_hits + result.cache_misses, grid.size())
          << "round=" << round << " workers=" << workers;
      // Seeded runner: every key was covered by seed_trace, so no misses.
      EXPECT_EQ(result.cache_misses, 0u)
          << "round=" << round << " workers=" << workers;
      for (std::size_t i = 0; i < grid.size(); ++i)
        expect_equal(result.predictions[i], reference[i],
                     "round=" + std::to_string(round) + " workers=" +
                         std::to_string(workers) + " point=" +
                         std::to_string(i));
      const std::string serial = serialize(result);
      if (first_serial.empty())
        first_serial = serial;
      else
        EXPECT_EQ(serial, first_serial)
            << "round=" << round << " workers=" << workers
            << ": worker count leaked into the results";
    }
  }
}

TEST(SweepRunner, RunGridBuildsMachineMajorCrossProduct) {
  SweepOptions opt;
  opt.n_workers = 2;
  SweepRunner runner([] { return std::make_unique<SweepProgram>(); }, opt);
  const SweepResult r = runner.run_grid(
      {1, 2, 4}, {model::ideal_preset(), model::cm5_preset()},
      {"ideal", "cm5"});
  ASSERT_EQ(r.grid.size(), 6u);
  EXPECT_EQ(r.grid[0].label, "ideal");
  EXPECT_EQ(r.grid[0].n_threads, 1);
  EXPECT_EQ(r.grid[5].label, "cm5");
  EXPECT_EQ(r.grid[5].n_threads, 4);
  // The ideal series must reproduce the zero-cost bound.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(r.predictions[static_cast<std::size_t>(i)].predicted_time,
              r.predictions[static_cast<std::size_t>(i)].ideal_time);
}

TEST(SweepRunner, MissingFactoryAndSeedIsAnError) {
  SweepRunner runner;  // no factory, no seeds
  SweepPoint p;
  p.n_threads = 2;
  p.params = model::ideal_preset();
  EXPECT_THROW(runner.run({p}), util::Error);
}

TEST(SweepRunner, RejectsBadSubmitOrder) {
  SweepOptions opt;
  opt.submit_order = {0, 0};  // not a permutation
  SweepRunner runner([] { return std::make_unique<SweepProgram>(); }, opt);
  SweepPoint p;
  p.n_threads = 1;
  p.params = model::ideal_preset();
  EXPECT_THROW(runner.run({p, p}), util::Error);
}

// --- TranslateCache: the one measure -> translate pipeline ----------------

// One cache entry per thread count, measured from the shared test program.
trace::Trace measure_n(int n) {
  SweepProgram prog;
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return rt::measure(prog, mo);
}

// The measurement source the cache tests build with: measure_n plus a call
// counter, so each test can tell misses (measurements) from hits.
TranslateCache::Measure counting_measure(std::atomic<int>& calls) {
  return [&calls](int n) {
    ++calls;
    return measure_n(n);
  };
}

TEST(TranslateCache, KeyedOnThreadCount) {
  std::atomic<int> measurements{0};
  TranslateCache cache(counting_measure(measurements));
  cache.put(measure_n(2));
  ASSERT_NE(cache.get(2), nullptr);
  EXPECT_EQ(cache.get(2)->n_threads, 2);
  // Different thread count -> different entry.
  EXPECT_EQ(cache.get(3), nullptr);

  // A seeded key is a hit; an unseeded one measures through the source.
  EXPECT_EQ(cache.get_or_prepare(2), cache.get(2));
  EXPECT_EQ(measurements.load(), 0);
  EXPECT_EQ(cache.get_or_prepare(3)->n_threads, 3);
  EXPECT_EQ(measurements.load(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(TranslateCache, RejectsMeasurementOfTheWrongThreadCount) {
  TranslateCache cache([](int) { return measure_n(2); });
  EXPECT_THROW((void)cache.get_or_prepare(3), util::Error);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TranslateCache, CpuCountersFollowTheMissPath) {
  std::atomic<int> measurements{0};
  TranslateCache cache(counting_measure(measurements));
  EXPECT_EQ(cache.measure_cpu_s(), 0.0);
  EXPECT_EQ(cache.translate_cpu_s(), 0.0);

  // A miss measures and translates: both counters rise.
  (void)cache.get_or_prepare(4);
  const double measure1 = cache.measure_cpu_s();
  const double translate1 = cache.translate_cpu_s();
  EXPECT_GT(measure1, 0.0);
  EXPECT_GT(translate1, 0.0);

  // A hit does neither.
  (void)cache.get_or_prepare(4);
  EXPECT_EQ(cache.measure_cpu_s(), measure1);
  EXPECT_EQ(cache.translate_cpu_s(), translate1);

  // put() translates an already-measured trace: only translate rises.
  cache.put(measure_n(3));
  EXPECT_EQ(cache.measure_cpu_s(), measure1);
  EXPECT_GT(cache.translate_cpu_s(), translate1);
  EXPECT_EQ(measurements.load(), 1);
}

// A miss whose measurement throws must leave no entry behind: otherwise
// every failing thread count pins an empty slot for the cache's lifetime.
TEST(TranslateCache, FailedMissLeavesNoEntry) {
  std::atomic<int> measurements{0};
  TranslateCache cache([&](int n) {
    ++measurements;
    XP_REQUIRE(n % 2 == 0, "odd thread counts fail");
    return measure_n(n);
  });
  for (int n : {3, 5, 3}) EXPECT_THROW((void)cache.get_or_prepare(n),
                                       util::Error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.measure_cpu_s(), 0.0);
  EXPECT_EQ(measurements.load(), 3) << "a failed key must retry, not hit";

  (void)cache.get_or_prepare(4);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Concurrent requesters of a failing key all see the error, and the
  // cache still ends up empty for it.
  util::ThreadPool pool(4);
  std::atomic<int> failures{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      try {
        (void)cache.get_or_prepare(7);
      } catch (const util::Error&) {
        ++failures;
      }
    });
  }
  pool.wait();
  EXPECT_EQ(failures.load(), 16);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get(7), nullptr);
}

TEST(TranslateCache, MeasuresOncePerKeyUnderConcurrency) {
  std::atomic<int> measurements{0};
  TranslateCache cache(counting_measure(measurements));

  util::ThreadPool pool(8);
  for (int i = 0; i < 32; ++i)
    pool.submit([&] { (void)cache.get_or_prepare(2); });
  pool.wait();
  EXPECT_EQ(measurements.load(), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 31u);
}

// Concurrency regression for the sharded cache: N threads hammer
// get_or_prepare over OVERLAPPING keys.  Exactly one miss (one measurement)
// per distinct key, every other call a hit, and every returned translation
// complete and shared — the invariants that hold the sweep's
// `hits + misses == grid size` accounting together under any interleaving.
// Runs under TSan in CI, which is what holds the "no torn reads" half.
TEST(TranslateCache, ConcurrentOverlappingKeysMissOncePerKey) {
  constexpr int kThreads = 8;
  constexpr int kDistinctKeys = 4;
  constexpr int kRoundsPerThread = 8;

  std::atomic<int> measurements{0};
  TranslateCache cache(counting_measure(measurements));

  util::ThreadPool pool(kThreads);
  std::vector<std::shared_ptr<const TranslatedTrace>> got(
      kThreads * kDistinctKeys * kRoundsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    pool.submit([&, t] {
      for (int r = 0; r < kRoundsPerThread; ++r) {
        for (int k = 0; k < kDistinctKeys; ++k) {
          // Interleave key order per thread so lookups collide hard.
          const auto v = cache.get_or_prepare(1 + (k + t + r) % kDistinctKeys);
          got[static_cast<std::size_t>(
              (t * kRoundsPerThread + r) * kDistinctKeys + k)] = v;
        }
      }
    });
  }
  pool.wait();

  EXPECT_EQ(measurements.load(), kDistinctKeys);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kDistinctKeys));
  EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(kDistinctKeys));
  EXPECT_EQ(cache.hits(),
            static_cast<std::uint64_t>(kThreads * kDistinctKeys *
                                       kRoundsPerThread - kDistinctKeys));
  // Every caller got the complete, shared translation for its key: same
  // pointer per key, fully populated.
  std::map<int, const TranslatedTrace*> canonical;
  for (const auto& v : got) {
    ASSERT_NE(v, nullptr);
    EXPECT_GE(v->n_threads, 1);
    EXPECT_EQ(v->translated.size(),
              static_cast<std::size_t>(v->n_threads));
    auto [it, inserted] = canonical.emplace(v->n_threads, v.get());
    if (!inserted) {
      EXPECT_EQ(it->second, v.get());
    }
  }
}

// put() followed by concurrent get(): a reader either sees nothing or the
// complete immutable entry — never a partially-constructed translation.
TEST(TranslateCache, ConcurrentGetDuringPutNeverReturnsPartialEntries) {
  const trace::Trace t = measure_n(3);

  for (int round = 0; round < 8; ++round) {
    std::atomic<int> measurements{0};
    TranslateCache cache(counting_measure(measurements));

    util::ThreadPool pool(4);
    std::atomic<bool> stop{false};
    std::atomic<int> complete_views{0};
    for (int r = 0; r < 3; ++r) {
      pool.submit([&] {
        const auto check = [&](const std::shared_ptr<const TranslatedTrace>& v)
            -> bool {
          if (!v) return false;
          // Entry visible => fully constructed.
          EXPECT_EQ(v->n_threads, 3);
          EXPECT_EQ(v->translated.size(), 3u);
          EXPECT_NE(v->compiled, nullptr);
          ++complete_views;
          return true;
        };
        while (!stop.load()) {
          check(cache.get(3));
          std::this_thread::yield();
        }
        // put() happened-before stop, so the entry must be visible now.
        EXPECT_TRUE(check(cache.get(3)));
      });
    }
    pool.submit([&] {
      cache.put(t);
      stop.store(true);
    });
    pool.wait();
    ASSERT_NE(cache.get(3), nullptr);
    EXPECT_GT(complete_views.load(), 0);
    EXPECT_EQ(measurements.load(), 0);
  }
}

// --- byte-budget LRU cap (the knob the serve daemon relies on) ------------

TEST(TranslateCache, ByteBudgetEvictsLeastRecentlyUsed) {
  std::atomic<int> measurements{0};
  TranslateCache cache(counting_measure(measurements));
  std::size_t per_entry_max = 0;
  for (int n : {2, 3, 4, 5}) {
    per_entry_max = std::max(
        per_entry_max, TranslateCache::footprint_bytes(*cache.get_or_prepare(n)));
  }
  ASSERT_EQ(cache.size(), 4u);
  ASSERT_GT(cache.bytes(), 0u);
  ASSERT_EQ(cache.evictions(), 0u);

  // Touch n=2 so it becomes the most recently used entry, then shrink the
  // budget to roughly two entries' worth: the oldest untouched entries go,
  // n=2 stays, and the accounting lands back under the budget.
  ASSERT_NE(cache.get(2), nullptr);
  const std::size_t budget = 2 * per_entry_max;
  cache.set_byte_budget(budget);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), budget);
  EXPECT_LT(cache.size(), 4u);
  EXPECT_NE(cache.get(2), nullptr)
      << "the most recently used entry was evicted";
  EXPECT_EQ(cache.get(3), nullptr)
      << "the least recently used entry survived";
}

TEST(TranslateCache, BudgetNeverEvictsTheOnlyOrNewestEntry) {
  std::atomic<int> measurements{0};
  TranslateCache cache(counting_measure(measurements));
  cache.set_byte_budget(1);  // absurdly small: nothing fits
  (void)cache.get_or_prepare(2);
  // A single resident entry is always retained, even over budget — evicting
  // it would turn the cache into a measure-every-time regression.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);

  // A second insert makes the first evictable; the newest must survive.
  (void)cache.get_or_prepare(3);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
}

TEST(TranslateCache, EvictedKeysRemeasureOnNextUse) {
  std::atomic<int> measurements{0};
  TranslateCache cache(counting_measure(measurements));
  cache.set_byte_budget(1);
  (void)cache.get_or_prepare(2);
  (void)cache.get_or_prepare(3);  // evicts n=2
  EXPECT_EQ(measurements.load(), 2);
  (void)cache.get_or_prepare(2);  // miss again
  EXPECT_EQ(measurements.load(), 3);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TranslateCache, UnboundedByDefaultAndBudgetIsLifted) {
  std::atomic<int> measurements{0};
  TranslateCache cache(counting_measure(measurements));
  EXPECT_EQ(cache.byte_budget(), 0u);
  for (int n : {2, 3, 4, 5}) (void)cache.get_or_prepare(n);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 0u);

  cache.set_byte_budget(1);
  EXPECT_LT(cache.size(), 4u);
  const auto evicted = cache.evictions();
  EXPECT_GT(evicted, 0u);

  // Lifting the budget stops eviction; new entries accumulate again.
  cache.set_byte_budget(0);
  (void)cache.get_or_prepare(6);
  EXPECT_EQ(cache.evictions(), evicted);
}

TEST(ThreadPool, DrainsAllTasksAndIsReusable) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), (round + 1) * 100);
  }
}

TEST(OnceCell, RetriesAfterThrowingInitializer) {
  util::OnceCell<int> cell;
  EXPECT_THROW(cell.get_or_init([]() -> int { throw util::Error("boom"); }),
               util::Error);
  EXPECT_EQ(cell.peek(), nullptr);
  EXPECT_EQ(cell.get_or_init([] { return 7; }), 7);
  ASSERT_NE(cell.peek(), nullptr);
  EXPECT_EQ(*cell.peek(), 7);
}

}  // namespace
}  // namespace xp::core
