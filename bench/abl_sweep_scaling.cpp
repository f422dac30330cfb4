// abl_sweep_scaling — wall-clock scaling of the parallel sweep engine.
//
// Two claims under test (core/sweep.hpp):
//
//  1. Warm cache: once the per-thread-count traces are measured and
//     translated, the simulations of a what-if grid are independent and
//     fan out across the pool's one LPT queue with near-linear speedup.
//  2. Cold cache: the (measure -> translate -> compile) jobs of all
//     distinct thread counts fan across the same pool, each submitting
//     its cells once its trace is ready, so END-TO-END sweeps scale too.
//
// Both sections time the SAME 60-point grid (6 machine parameter sets x
// 10 processor counts; the cold end-to-end run takes ~0.4 s at 1 worker
// on a 4-vCPU x86-64 container) through SweepRunner at 1/2/4/8 workers and
// report wall-clock speedup over the 1-worker run, plus a bitwise check
// that every worker count produced identical predictions.  The warm runs
// and the cold runs are each taken rep-major after two seconds of untimed
// warm-up runs.  The e2e rows carry the per-stage breakdown — CPU-second
// sums (work done; flat CPU across worker counts means contention-free
// scaling), per-stage wall clocks and every core::SimCounters field.
//
// Gates (exit code): on hosts with >= 4 CPUs, >= 2x warm and >= 3x e2e
// speedup at 4 workers with measure CPU-seconds <= 1.3x the 1-worker run;
// on >= 8 CPUs also >= 5x e2e at 8 workers; on every host,
// bitwise-identical predictions.  The cold grid's simulation work (engine
// events, memo hits and memo misses, summed over its cells) is held at
// every worker count at <= row "sweep_work_grid_e2e" of
// bench/work_golden.json; a change that lowers a count updates that table.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <set>
#include <tuple>

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
  bench::JsonRow row("sweep", "sweep_e2e_workers_" + std::to_string(workers));
  row.field("hw_concurrency", hw)
      .field("seconds", seconds)
      .field("speedup_vs_sequential", speedup)
      .field("measure_cpu_seconds", st.measure_cpu_s)
      .field("translate_cpu_seconds", st.translate_cpu_s)
      .field("simulate_cpu_seconds", st.simulate_cpu_s)
      .field("prewarm_wall_seconds", st.prewarm_wall_s)
      .field("simulate_wall_seconds", st.simulate_wall_s);
  for (const core::SimCounterField& f : core::kSimCounterFields)
    row.field(f.key, st.sim.*f.member);
  row.emit();
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

  // Warm cache: untimed fan-outs at the largest worker count for at least
  // two seconds, then best-of-3 taken rep-major (each rep walks 1, 2, 4 and
  // 8 workers).  On a 4-vCPU VM guest, fan-outs that start after an idle
  // spell run no faster at 8 workers than at 1 for the first ~1.3 s of
  // load, so a shorter warm-up lets that slow phase reach the timed
  // multi-worker runs; rep-major order spreads any noise left over every
  // worker count.
  const int reps = 3;  // best-of to shave scheduler noise
  const auto warm_run = [&](int workers) {
    core::SweepOptions opt;
    opt.n_workers = workers;
    core::SweepRunner runner(opt);
    for (const auto& [n, t] : traces) runner.seed_trace(t);
    const auto start = std::chrono::steady_clock::now();
    const core::SweepResult result = runner.run_grid(procs, machines, labels);
    return std::make_pair(seconds_since(start), fingerprint(result));
  };
  const auto warmup0 = std::chrono::steady_clock::now();
  while (seconds_since(warmup0) < 2.0) (void)warm_run(worker_counts.back());
  std::map<int, double> best_s;
  std::set<int> differs;  // worker counts whose predictions differ
  std::string seq_fp;
  for (int workers : worker_counts) best_s[workers] = 1e30;
  for (int r = 0; r < reps; ++r) {
    for (int workers : worker_counts) {
      const auto [s, fp] = warm_run(workers);
      if (seq_fp.empty()) seq_fp = fp;  // the first 1-worker run
      best_s[workers] = std::min(best_s[workers], s);
      if (fp != seq_fp) differs.insert(workers);
    }
  }
  const double seq_best = best_s.at(1);
  const bool all_match = differs.empty();
  std::cout << "-- warm cache (simulation fan-out only) --\n";
  std::cout << "  workers      best of " << reps << "      speedup   grid\n";
  for (int workers : worker_counts) {
    const double best = best_s.at(workers);
    std::printf("  %7d   %9.3f s   %8.2fx   %zu points%s\n", workers, best,
                seq_best / best, grid_points,
                differs.count(workers) ? "   !! PREDICTIONS DIFFER" : "");
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
  // Like the warm runs: untimed warm-up runs first, then the reps taken
  // rep-major, so a slow phase of the host is spread over every worker
  // count instead of landing on one.
  const int e2e_reps = 2;  // measurements dominate; two reps bound the noise
  const auto cold_run = [&](int workers) {
    core::SweepOptions opt;
    opt.n_workers = workers;
    core::SweepRunner runner([&] { return suite::make_by_name(bench, cfg); },
                             opt);
    t0 = std::chrono::steady_clock::now();
    const core::SweepResult result = runner.run_grid(procs, machines, labels);
    const double s = seconds_since(t0);
    return std::make_tuple(s, result.stages, fingerprint(result));
  };
  const auto cold_warmup0 = std::chrono::steady_clock::now();
  while (seconds_since(cold_warmup0) < 2.0)
    (void)cold_run(worker_counts.back());
  std::map<int, double> e2e_best_s;
  std::map<int, core::SweepStages> e2e_stages;
  std::string e2e_seq_fp;
  std::set<int> e2e_differs;
  for (int workers : worker_counts) e2e_best_s[workers] = 1e30;
  for (int r = 0; r < e2e_reps; ++r) {
    for (int workers : worker_counts) {
      const auto [s, stages, fp] = cold_run(workers);
      if (e2e_seq_fp.empty()) e2e_seq_fp = fp;  // the first 1-worker run
      if (s < e2e_best_s[workers]) {
        e2e_best_s[workers] = s;
        e2e_stages[workers] = stages;
      }
      if (fp != e2e_seq_fp) e2e_differs.insert(workers);
    }
  }
  const double e2e_seq_best = e2e_best_s.at(1);
  const bool e2e_all_match = e2e_differs.empty();
  std::cout << "\n-- cold cache (end-to-end: measure + translate + simulate) "
               "--\n";
  std::cout << "  workers        total   meas.cpu    tra.cpu    sim.cpu  "
               "prew.wall   sim.wall   speedup\n";
  for (int workers : worker_counts) {
    const double best = e2e_best_s.at(workers);
    const core::SweepStages& stages = e2e_stages.at(workers);
    std::printf(
        "  e2e %3d   %8.3f s  %8.3f s  %8.3f s  %8.3f s  %8.3f s  %8.3f s  "
        "%7.2fx%s\n",
        workers, best, stages.measure_cpu_s, stages.translate_cpu_s,
        stages.simulate_cpu_s, stages.prewarm_wall_s, stages.simulate_wall_s,
        e2e_seq_best / best,
        e2e_differs.count(workers) ? "   !! PREDICTIONS DIFFER" : "");
    print_e2e_row(workers, hw, best, e2e_seq_best / best, stages);
    for (const char* field :
         {"sim_events_fired", "sim_memo_hits", "sim_memo_misses"})
      for (const core::SimCounterField& f : core::kSimCounterFields)
        if (std::string(f.key) == field)
          bench::hold_work(XP_WORK_GOLDEN, "sweep_work_grid_e2e", field,
                           stages.sim.*f.member);
  }

  std::cout << '\n';
  if (hw >= 4) {
    const double warm4 = seq_best / best_s.at(4);
    const double sp4 = e2e_seq_best / e2e_best_s.at(4);
    const double m1 = e2e_stages.at(1).measure_cpu_s;
    const double cpu4 = m1 > 0 ? e2e_stages.at(4).measure_cpu_s / m1 : 1.0;
    char claim[160];
    std::snprintf(claim, sizeof claim,
                  "4 workers give >= 2x wall-clock speedup on the warm "
                  "60-point grid (%.2fx)",
                  warm4);
    bench::gate(claim, warm4 >= 2.0);
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
  bench::gate_work();
  return bench::exit_code();
}
