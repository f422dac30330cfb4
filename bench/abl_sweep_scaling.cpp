// abl_sweep_scaling — wall-clock scaling of the parallel sweep engine.
//
// Two claims under test (core/sweep.hpp):
//
//  1. Warm cache: once the per-thread-count traces are measured and
//     translated, the simulations of a what-if grid are independent and
//     fan out across the work-stealing pool with near-linear speedup.
//  2. Cold cache: the (measure -> translate -> compile) jobs of all
//     distinct thread counts fan across the same pool, each submitting
//     its cells once its trace is ready, so END-TO-END sweeps scale too.
//
// Both sections time the SAME 60-point grid (6 machine parameter sets x
// 10 processor counts; the cold end-to-end run takes ~0.4 s at 1 worker
// on a 4-vCPU x86-64 container) through SweepRunner at 1/2/4/8 workers and
// report wall-clock speedup over the 1-worker run, plus a bitwise check
// that every worker count produced identical predictions.  The e2e rows
// carry the per-stage breakdown — CPU-second sums (work done; flat CPU
// across worker counts means contention-free scaling), per-stage wall
// clocks and every SweepStages counter.
//
// Gates (exit code): on hosts with >= 4 CPUs, >= 3x e2e speedup at 4
// workers with measure CPU-seconds <= 1.3x the 1-worker run; on >= 8 CPUs
// also >= 5x at 8 workers; on every host, bitwise-identical predictions.
#include <chrono>
#include <iostream>

#include "core/sweep.hpp"
#include "common.hpp"
#include "util/thread_pool.hpp"

using namespace xp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string fingerprint(const core::SweepResult& r) {
  std::string s;
  for (const auto& p : r.predictions) {
    s += std::to_string(p.predicted_time.count_ns());
    s += ':';
    s += std::to_string(p.sim.engine_events);
    s += ';';
  }
  return s;
}

/// The cold-cache row: wall time, speedup and every SweepStages field.
void print_e2e_row(int workers, int hw, double seconds, double speedup,
                   const core::SweepStages& st) {
  static_assert(sizeof(core::SweepStages) == 19 * 8,
                "serialize every SweepStages field below");
  bench::JsonRow("sweep", "sweep_e2e_workers_" + std::to_string(workers))
      .field("hw_concurrency", hw)
      .field("seconds", seconds)
      .field("speedup_vs_sequential", speedup)
      .field("measure_cpu_seconds", st.measure_cpu_s)
      .field("translate_cpu_seconds", st.translate_cpu_s)
      .field("simulate_cpu_seconds", st.simulate_cpu_s)
      .field("prewarm_wall_seconds", st.prewarm_wall_s)
      .field("simulate_wall_seconds", st.simulate_wall_s)
      .field("cells_event", st.cells_event)
      .field("cells_hybrid", st.cells_hybrid)
      .field("cells_memo", st.cells_memo)
      .field("sim_events_fired", st.sim_events_fired)
      .field("sim_segments_collapsed", st.sim_segments_collapsed)
      .field("sim_segments_total", st.sim_segments_total)
      .field("sim_ops_collapsed", st.sim_ops_collapsed)
      .field("sim_memo_hits", st.sim_memo_hits)
      .field("sim_memo_misses", st.sim_memo_misses)
      .field("cells_sampled", st.cells_sampled)
      .field("sim_epochs_total", st.sim_epochs_total)
      .field("sim_epoch_classes", st.sim_epoch_classes)
      .field("sim_epochs_simulated", st.sim_epochs_simulated)
      .field("sim_epochs_replayed", st.sim_epochs_replayed)
      .emit();
}

}  // namespace

int main() {
  std::cout << "=== sweep scaling: parallel vs sequential what-if grids ===\n";
  const std::string bench = "grid";
  // Longer traces than the suite default, so the grid has enough work for
  // the pool to show speedup (the default-sized grid finishes in 76 ms).
  suite::SuiteConfig cfg;
  cfg.grid_iters = 60;
  const std::vector<int> procs = {4, 8, 12, 16, 20, 24, 32, 40, 48, 64};
  const std::vector<model::SimParams> machines = {
      model::distributed_preset(), model::cm5_preset(),
      model::paragon_preset(),     model::sp1_preset(),
      model::shared_memory_preset(), model::sgi_shared_preset()};
  const std::vector<std::string> labels = {"distributed", "cm5",    "paragon",
                                           "sp1",         "shared", "sgi"};
  const std::size_t grid_points = procs.size() * machines.size();

  const int hw = util::ThreadPool::default_workers();
  std::cout << "host hardware_concurrency: " << hw << "\n";

  // Measure once, up front, so every warm-cache run starts from the same
  // seeded cache and those timings isolate the simulation fan-out.
  auto t0 = std::chrono::steady_clock::now();
  std::map<int, trace::Trace> traces;
  for (int n : procs) {
    auto prog = suite::make_by_name(bench, cfg);
    rt::MeasureOptions mo;
    mo.n_threads = n;
    traces.emplace(n, rt::measure(*prog, mo));
  }
  const double measure_s = seconds_since(t0);
  std::cout << "measured " << traces.size() << " traces of '" << bench
            << "' in " << std::fixed;
  std::cout.precision(2);
  std::cout << measure_s << " s (done once, shared by every warm run)\n\n";

  const std::vector<int> worker_counts = {1, 2, 4, 8};

  const int reps = 3;  // best-of to shave scheduler noise
  std::map<int, double> best_s;
  double seq_best = 0.0;
  std::string seq_fp;
  bool all_match = true;
  std::cout << "-- warm cache (simulation fan-out only) --\n";
  std::cout << "  workers      best of " << reps << "      speedup   grid\n";
  for (int workers : worker_counts) {
    double best = 1e30;
    std::string fp;
    for (int r = 0; r < reps; ++r) {
      core::SweepOptions opt;
      opt.n_workers = workers;
      core::SweepRunner runner(opt);
      for (const auto& [n, t] : traces) runner.seed_trace(t);
      t0 = std::chrono::steady_clock::now();
      const core::SweepResult result = runner.run_grid(procs, machines, labels);
      const double s = seconds_since(t0);
      if (s < best) best = s;
      fp = fingerprint(result);
    }
    best_s[workers] = best;
    if (workers == 1) {
      seq_best = best;
      seq_fp = fp;
    }
    if (fp != seq_fp) all_match = false;
    std::printf("  %7d   %9.3f s   %8.2fx   %zu points%s\n", workers, best,
                seq_best / best, grid_points,
                fp == seq_fp ? "" : "   !! PREDICTIONS DIFFER");
    bench::JsonRow("sweep", "sweep_grid_workers_" + std::to_string(workers))
        .field("seconds", best)
        .field("speedup_vs_sequential", seq_best / best)
        .emit();
  }

  // Cold cache: a fresh runner with a ProgramFactory, so every run pays
  // the full measure -> translate -> compile -> simulate pipeline.  The
  // 10 distinct measurements fan over the pool ahead of the cells.
  // Stage columns: CPU-second sums for measure/translate/simulate (work
  // done — inflation vs the 1-worker row is contention), then the sweep's
  // wall split at the instant the last trace was prepared.
  const int e2e_reps = 2;  // measurements dominate; two reps bound the noise
  std::map<int, double> e2e_best_s;
  std::map<int, core::SweepStages> e2e_stages;
  double e2e_seq_best = 0.0;
  std::string e2e_seq_fp;
  bool e2e_all_match = true;
  std::cout << "\n-- cold cache (end-to-end: measure + translate + simulate) "
               "--\n";
  std::cout << "  workers        total   meas.cpu    tra.cpu    sim.cpu  "
               "prew.wall   sim.wall   speedup\n";
  for (int workers : worker_counts) {
    double best = 1e30;
    core::SweepStages stages;
    std::string fp;
    for (int r = 0; r < e2e_reps; ++r) {
      core::SweepOptions opt;
      opt.n_workers = workers;
      core::SweepRunner runner([&] { return suite::make_by_name(bench, cfg); },
                               opt);
      t0 = std::chrono::steady_clock::now();
      const core::SweepResult result = runner.run_grid(procs, machines, labels);
      const double s = seconds_since(t0);
      if (s < best) {
        best = s;
        stages = result.stages;
      }
      fp = fingerprint(result);
    }
    e2e_best_s[workers] = best;
    e2e_stages[workers] = stages;
    if (workers == 1) {
      e2e_seq_best = best;
      e2e_seq_fp = fp;
    }
    if (fp != e2e_seq_fp) e2e_all_match = false;
    std::printf(
        "  e2e %3d   %8.3f s  %8.3f s  %8.3f s  %8.3f s  %8.3f s  %8.3f s  "
        "%7.2fx%s\n",
        workers, best, stages.measure_cpu_s, stages.translate_cpu_s,
        stages.simulate_cpu_s, stages.prewarm_wall_s, stages.simulate_wall_s,
        e2e_seq_best / best, fp == e2e_seq_fp ? "" : "   !! PREDICTIONS DIFFER");
    print_e2e_row(workers, hw, best, e2e_seq_best / best, stages);
  }

  std::cout << '\n';
  if (hw >= 4) {
    bench::shape_check("4 workers give >= 2x wall-clock speedup on the "
                       "warm 60-point grid",
                       seq_best / best_s.at(4) >= 2.0);
    const double sp4 = e2e_seq_best / e2e_best_s.at(4);
    const double m1 = e2e_stages.at(1).measure_cpu_s;
    const double cpu4 = m1 > 0 ? e2e_stages.at(4).measure_cpu_s / m1 : 1.0;
    char claim[160];
    std::snprintf(claim, sizeof claim,
                  "4 workers give >= 3x end-to-end speedup on the cold "
                  "60-point grid (%.2fx)",
                  sp4);
    bench::gate(claim, sp4 >= 3.0);
    std::snprintf(claim, sizeof claim,
                  "measurement CPU-seconds at 4 workers stay within 1.3x of "
                  "the 1-worker run, i.e. no shared-state contention (%.2fx)",
                  cpu4);
    bench::gate(claim, cpu4 <= 1.3);
  } else {
    std::cout << "  [n/a ] this host exposes " << hw
              << " CPU(s); the speedup gates need >= 4\n";
  }
  if (hw >= 8) {
    const double sp8 = e2e_seq_best / e2e_best_s.at(8);
    char claim[96];
    std::snprintf(claim, sizeof claim,
                  "8 workers give >= 5x end-to-end speedup on the cold "
                  "60-point grid (%.2fx)",
                  sp8);
    bench::gate(claim, sp8 >= 5.0);
  }
  bench::gate("every worker count produced bitwise-identical predictions "
              "(warm cache)",
              all_match);
  bench::gate("every worker count produced bitwise-identical predictions "
              "(cold cache)",
              e2e_all_match);
  return bench::exit_code();
}
