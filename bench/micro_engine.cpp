// Micro-benchmarks (google-benchmark) for the simulation substrate: DES
// event throughput, fiber context switches, trace translation, and the
// full measure->translate->simulate pipeline.  These quantify the paper's
// efficiency claim — extrapolation is fast enough for *rapid, interactive*
// performance debugging, unlike detailed architectural simulation.
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/extrapolator.hpp"
#include "core/sweep.hpp"
#include "core/translate.hpp"
#include "fiber/scheduler.hpp"
#include "sim/engine.hpp"
#include "suite/suite.hpp"

using namespace xp;

namespace {

void BM_EngineScheduleFire(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < batch; ++i)
      e.schedule_at(util::Time::ns(i % 1000), [] {});
    benchmark::DoNotOptimize(e.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EngineScheduleFire)->Arg(1000)->Arg(100000);

// Schedule/cancel-heavy: every other scheduled event is cancelled before
// it can fire, then the survivors run.  Exercises the O(1) tombstone
// cancel plus the front-of-queue tombstone skip — the pattern the tuner's
// poll/timeout events produce.
void BM_EngineScheduleCancel(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  std::vector<sim::EventId> ids(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < batch; ++i)
      ids[static_cast<std::size_t>(i)] =
          e.schedule_at(util::Time::ns(i % 1000), [] {});
    for (int i = 0; i < batch; i += 2)
      e.cancel(ids[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(e.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EngineScheduleCancel)->Arg(1000)->Arg(100000);

// Steady-state throughput: one long-lived engine (slabs and bucket
// capacities warm), a rolling window of pending events.  This is the
// regime the sweep engine actually runs in — construction cost excluded.
void BM_EngineSteadyState(benchmark::State& state) {
  const int batch = 1000;
  sim::Engine e;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i)
      e.schedule_at(e.now() + util::Time::ns(i % 1000), [] {});
    benchmark::DoNotOptimize(e.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EngineSteadyState);

void fiber_switch_loop(benchmark::State& state, fiber::Backend backend) {
  for (auto _ : state) {
    fiber::Scheduler s(backend);
    const int yields = 1000;
    for (int f = 0; f < 2; ++f)
      s.spawn([&s] {
        for (int i = 0; i < yields; ++i) s.yield();
      });
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 2 * 1000 * 2);
}

void BM_FiberSwitch(benchmark::State& state) {
  fiber_switch_loop(state, fiber::Backend::Auto);
}
BENCHMARK(BM_FiberSwitch);

// The portable-backend floor, always measured with the ucontext backend
// regardless of the process default.  The bench JSON gate compares
// BM_FiberSwitch against this within-run number (fcontext must clear 2x
// even on hosts whose absolute timings drifted from the committed
// baseline); swapcontext's sigprocmask round trip dominates it.
void BM_FiberSwitchUcontext(benchmark::State& state) {
  fiber_switch_loop(state, fiber::Backend::Ucontext);
}
BENCHMARK(BM_FiberSwitchUcontext);

suite::SuiteConfig micro_cfg() {
  suite::SuiteConfig cfg;
  cfg.cyclic_size = 256;
  cfg.cyclic_width = 8;
  return cfg;
}

// Items are measured events, so items_per_second across the thread counts
// shows how the per-event measurement cost grows with n.
void BM_MeasureCyclic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    auto prog = suite::make_cyclic(micro_cfg());
    rt::MeasureOptions mo;
    mo.n_threads = n;
    const trace::Trace t = rt::measure(*prog, mo);
    events += static_cast<std::int64_t>(t.size());
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_MeasureCyclic)->Arg(8)->Arg(32)->Arg(1024)->Arg(4096);

void BM_TranslateCyclic(benchmark::State& state) {
  auto prog = suite::make_cyclic(micro_cfg());
  rt::MeasureOptions mo;
  mo.n_threads = 32;
  const trace::Trace measured = rt::measure(*prog, mo);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::translate(measured));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(measured.size()));
}
BENCHMARK(BM_TranslateCyclic);

void BM_SimulateCyclic(benchmark::State& state) {
  auto prog = suite::make_cyclic(micro_cfg());
  rt::MeasureOptions mo;
  mo.n_threads = 32;
  const trace::Trace measured = rt::measure(*prog, mo);
  const auto parts = core::translate(measured);
  const auto params = model::distributed_preset();
  for (auto _ : state)
    benchmark::DoNotOptimize(core::simulate(parts, params));
}
BENCHMARK(BM_SimulateCyclic);

// Grid measured once at n threads, outside the timing.
trace::Trace measured_grid(int n) {
  auto prog = suite::make_grid(suite::SuiteConfig{});
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return rt::measure(*prog, mo);
}

// Measured trace -> compiled form (validate, one-pass lowering, epoch
// classes): the preparation a TranslateCache miss pays.  Items are
// measured events.
void BM_PrepareTrace(benchmark::State& state) {
  const trace::Trace measured =
      measured_grid(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::prepare_trace(measured));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(measured.size()));
}
BENCHMARK(BM_PrepareTrace)->Arg(64)->Arg(4096)->Unit(benchmark::kMillisecond);

// The first read of a traced prediction's extrapolated trace: the sort and
// the expansion a simulation no longer pays up front.  Each iteration
// simulates (untimed) and times only extrapolated().  Items are the
// extrapolated trace's events.
void BM_MaterializeExtrapolated(benchmark::State& state) {
  const core::TranslatedTrace tt =
      core::prepare_trace(measured_grid(static_cast<int>(state.range(0))));
  const auto params = model::distributed_preset();
  std::int64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const core::Prediction p = core::predict(tt, params);
    state.ResumeTiming();
    events += static_cast<std::int64_t>(p.sim.extrapolated().size());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_MaterializeExtrapolated)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_FullPipelineGrid(benchmark::State& state) {
  suite::SuiteConfig cfg;
  cfg.grid_blocks = 8;
  cfg.grid_block_points = 16;
  cfg.grid_iters = 10;
  const auto params = model::distributed_preset();
  for (auto _ : state) {
    auto prog = suite::make_grid(cfg);
    core::Extrapolator x(params);
    benchmark::DoNotOptimize(x.extrapolate(*prog, 16));
  }
}
BENCHMARK(BM_FullPipelineGrid);

// End-to-end what-if sweep: pre-measured traces seeded into a fresh
// SweepRunner each iteration, then a 2x2 grid (machine presets x thread
// counts) through the translate-cache -> compiled-trace -> simulator
// path.  This is the workload the engine overhaul exists to speed up.
void BM_SweepWhatIf(benchmark::State& state) {
  suite::SuiteConfig cfg;
  cfg.grid_blocks = 8;
  cfg.grid_block_points = 16;
  cfg.grid_iters = 10;
  const std::vector<int> procs = {8, 16};
  std::map<int, trace::Trace> traces;  // measured once, outside the timing
  for (int n : procs) {
    auto prog = suite::make_grid(cfg);
    rt::MeasureOptions mo;
    mo.n_threads = n;
    traces.emplace(n, rt::measure(*prog, mo));
  }
  const std::vector<model::SimParams> machines = {model::distributed_preset(),
                                                  model::cm5_preset()};
  for (auto _ : state) {
    core::SweepOptions opt;
    opt.n_workers = 1;
    core::SweepRunner runner(opt);
    for (const auto& [n, t] : traces) runner.seed_trace(t);
    benchmark::DoNotOptimize(runner.run_grid(procs, machines));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(procs.size() * machines.size()));
}
BENCHMARK(BM_SweepWhatIf);

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // The per-iteration engine benchmarks construct and destroy a whole
  // Engine per iteration, handing its slab and bucket memory back to
  // malloc each time.  With default tunables glibc trims that memory to
  // the kernel on every free wave and the next iteration pays it back in
  // page faults — a harness artifact (real sweeps keep engines alive for
  // millions of events) that both adds ~30ns/event and tracks kernel
  // behavior rather than engine behavior.  Pin the thresholds so A/B
  // engine comparisons measure the engine.
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
