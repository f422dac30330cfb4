// Ablation: representative-epoch sampling on long iterative traces.
//
// Iterative programs spend almost all trace length repeating one or two
// barrier-delimited epochs: a 500-iteration Grid sweep is >1000 epochs of
// which ~3 are distinct.  The sampled Auto path (DESIGN.md §15) fingerprints
// every epoch at compile time, walks ONE exemplar per epoch class, and
// composes the full-trace prediction as sum(class_count x exemplar_time) —
// bitwise-equal to full simulation when classes are bit-identical (tier 1),
// and within a certified error bound when near-identical epochs are
// clustered under a relative tolerance (tier 2).
//
// This harness measures both tiers: simulate Grid at 100/500/1000 iterations
// (102/502/1002 epochs) under Auto (sampled), Hybrid (full analytic), and
// EventDriven against identical translated traces; hold all three bitwise
// equal; and gate Auto >= 10x Hybrid simulate-stage wall time at >= 1000
// epochs.  A cost-perturbed Grid trace (same epoch shapes, deterministic
// per-epoch jitter) then sweeps the tolerance knob to plot the
// accuracy-vs-speedup curve and check the certified bound is sound:
// |sampled - exact| <= error_bound at every tolerance.
//
// Output rows are parsed by scripts/bench_json.sh (schema xp-bench-sim/6),
// which gates the >= 10x dedup speedup at 1002 epochs.
//
// Barrier-epoch memoization (DESIGN.md §16) is the event-path counterpart
// on message-barrier machines, where nothing collapses analytically.  Its
// "epoch_memo" rows time EventDriven against Auto (no trace) on the same
// long Grid traces on cm5, and on default-config Grid and Mgrid at n=16
// and 32 on cm5, distributed and sp1, with memo hits/misses and a bitwise
// check of every prediction field.  Any mismatch exits nonzero.
//
//   --smoke   run only the Auto grid 1002-epoch cell (CI long-trace smoke,
//             one minute for the whole measure->predict pipeline)
#include <time.h>

#include <cmath>
#include <cstring>

#include "common.hpp"

namespace xp::bench {
namespace {

double now_s() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

model::SimParams sampling_target() {
  // Single-cluster shared-memory machine: every segment collapses, the
  // whole replay is PureAnalytic, and the sampled path can engage.
  model::SimParams p = model::shared_memory_preset();
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

/// Grid sized so trace LENGTH (iterations) is the variable under study:
/// modest thread count and per-block work, iteration count from `iters`.
/// Grid runs one barrier per iteration plus a warmup barrier and the final
/// End-terminated epoch, so epochs = iters + 2.
suite::SuiteConfig grid_config(std::int64_t iters) {
  suite::SuiteConfig cfg;
  cfg.grid_blocks = 8;  // 64 blocks = 64 threads
  cfg.grid_block_points = 8;
  cfg.grid_iters = iters;
  return cfg;
}

/// Deterministically stretch each thread's inter-event gaps by a per-epoch
/// factor (1 + amp * w_k, w_k an 11-valued pseudo-pattern over the epoch
/// index k) so recurring epochs keep their exact shape (same ops, same
/// remote records) but become NEAR-identical instead of bit-identical —
/// the tier-2 clustering regime.  Translation only consumes per-thread
/// time deltas, so shifting threads independently is safe.
trace::Trace perturb_epoch_costs(const trace::Trace& in, double amp) {
  trace::Trace out = in;
  auto& ev = out.mutable_events();
  const int n = out.n_threads();
  std::vector<std::int64_t> shift(n, 0);     // cumulative, per thread
  std::vector<util::Time> prev(n);           // previous ORIGINAL time
  std::vector<std::int64_t> epoch(n, 0);
  for (auto& e : ev) {
    const int t = e.thread;
    const std::int64_t gap = (e.time - prev[t]).count_ns();
    prev[t] = e.time;
    const double w =
        static_cast<double>((epoch[t] * 37) % 11) / 11.0;
    if (gap > 0) shift[t] += std::llround(static_cast<double>(gap) * amp * w);
    e.time = e.time + util::Time::ns(shift[t]);
    if (e.kind == trace::EventKind::BarrierExit) ++epoch[t];
  }
  out.sort_by_time();
  out.validate();
  return out;
}

struct Cell {
  double sim_s = 0;
  core::Prediction pred;
};

Cell run_cell(const core::TranslatedTrace& prepared,
              const model::SimParams& params, core::SimMode mode,
              double tolerance = 0.0) {
  core::SimOptions opts;
  opts.mode = mode;
  opts.emit_trace = false;
  opts.epoch_tolerance = tolerance;
  Cell cell;
  cell.sim_s = 1e30;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    core::Prediction p = core::predict(prepared, params, opts);
    cell.sim_s = std::min(cell.sim_s, now_s() - t0);
    cell.pred = std::move(p);
  }
  return cell;
}

/// Every simulated quantity, bitwise: makespan, per-thread stats, traffic.
bool bitwise_equal(const core::Prediction& a, const core::Prediction& b) {
  return a.predicted_time == b.predicted_time &&
         a.ideal_time == b.ideal_time && a.sim.threads == b.sim.threads &&
         a.sim.messages == b.sim.messages && a.sim.bytes == b.sim.bytes &&
         a.sim.avg_inflight == b.sim.avg_inflight;
}

void print_row(std::int64_t epochs, const char* mode, const Cell& cell) {
  const core::SamplingStats& sp = cell.pred.sim.sampling;
  std::printf(
      "region_sampling bench=grid epochs=%lld mode=%s sim_s=%.6f"
      " classes=%lld simulated=%lld replayed=%lld approximated=%lld"
      " error_bound_ns=%lld predicted_ns=%lld\n",
      static_cast<long long>(epochs), mode, cell.sim_s,
      static_cast<long long>(sp.classes),
      static_cast<long long>(sp.epochs_simulated),
      static_cast<long long>(sp.epochs_replayed),
      static_cast<long long>(sp.epochs_approximated),
      static_cast<long long>(sp.error_bound.count_ns()),
      static_cast<long long>(cell.pred.predicted_time.count_ns()));
}

struct MemoRow {
  double speedup = 0;
  bool exact = false;
};

MemoRow memo_row(const char* bench, int n, std::int64_t epochs,
                 const char* preset, const core::TranslatedTrace& prepared,
                 const model::SimParams& params) {
  const Cell ev = run_cell(prepared, params, core::SimMode::EventDriven);
  const Cell au = run_cell(prepared, params, core::SimMode::Auto);
  const core::HybridStats& h = au.pred.sim.hybrid;
  MemoRow row;
  row.speedup = au.sim_s > 0 ? ev.sim_s / au.sim_s : 0.0;
  row.exact = bitwise_equal(ev.pred, au.pred);
  std::printf(
      "epoch_memo bench=%s n=%d epochs=%lld preset=%s event_s=%.6f"
      " auto_s=%.6f speedup=%.2fx hits=%lld misses=%lld bitwise=%d\n",
      bench, n, static_cast<long long>(epochs), preset, ev.sim_s, au.sim_s,
      row.speedup, static_cast<long long>(h.memo_hits),
      static_cast<long long>(h.memo_misses), row.exact ? 1 : 0);
  return row;
}

/// The epoch-memo rows; false if any Auto prediction differs from the
/// EventDriven one.
bool run_memo() {
  std::printf("\nBarrier-epoch memoization on message-barrier machines "
              "(EventDriven vs Auto, no trace):\n\n");
  bool all_exact = true;
  for (std::int64_t iters : {100, 500, 1000}) {
    auto prog = suite::make_by_name("grid", grid_config(iters));
    rt::MeasureOptions mo;
    mo.n_threads = 64;
    const core::TranslatedTrace prepared =
        core::prepare_trace(rt::measure(*prog, mo));
    const MemoRow row = memo_row("grid", 64, iters + 2, "cm5", prepared,
                                 model::cm5_preset());
    all_exact = all_exact && row.exact;
  }
  const std::vector<std::pair<const char*, model::SimParams>> targets = {
      {"cm5", model::cm5_preset()},
      {"distributed", model::distributed_preset()},
      {"sp1", model::sp1_preset()}};
  double min_grid_speedup = 1e30;
  for (const char* bench : {"grid", "mgrid"}) {
    for (const int n : {16, 32}) {
      auto prog = suite::make_by_name(bench, suite::SuiteConfig{});
      rt::MeasureOptions mo;
      mo.n_threads = n;
      const core::TranslatedTrace prepared =
          core::prepare_trace(rt::measure(*prog, mo));
      const auto epochs = static_cast<std::int64_t>(
          prepared.compiled->threads[0].segments.size());
      for (const auto& [name, params] : targets) {
        const MemoRow row =
            memo_row(bench, n, epochs, name, prepared, params);
        all_exact = all_exact && row.exact;
        if (std::strcmp(bench, "grid") == 0)
          min_grid_speedup = std::min(min_grid_speedup, row.speedup);
      }
    }
  }
  std::printf("\nShape checks (DESIGN.md §16: memoized windows are exact):\n");
  shape_check("auto == event-driven bitwise on every memo row", all_exact);
  char claim[128];
  std::snprintf(claim, sizeof claim,
                "default grid: auto >= 5x event-driven simulate on cm5, "
                "distributed and sp1 (min %.1fx)",
                min_grid_speedup);
  shape_check(claim, min_grid_speedup >= 5.0);
  return all_exact;
}

int run(bool smoke) {
  const model::SimParams params = sampling_target();

  if (smoke) {
    // CI long-trace smoke: one >= 1000-epoch workload through Auto.
    auto prog = suite::make_by_name("grid", grid_config(1000));
    rt::MeasureOptions mo;
    mo.n_threads = 64;
    const trace::Trace measured = rt::measure(*prog, mo);
    const core::TranslatedTrace prepared = core::prepare_trace(measured);
    const Cell au = run_cell(prepared, params, core::SimMode::Auto);
    const core::SamplingStats& sp = au.pred.sim.sampling;
    print_row(sp.epochs, "auto", au);
    shape_check("sampled path engaged on the 1002-epoch trace",
                sp.active && sp.epochs >= 1000);
    shape_check("distinct classes stayed tiny on the iterative trace",
                sp.active && sp.classes > 0 && sp.classes <= 8);
    shape_check("error bound is zero in dedup mode",
                sp.error_bound == util::Time::zero());
    return 0;
  }

  std::printf("Representative-epoch sampling on long iterative traces "
              "(grid, 64 threads, single-cluster target)\n\n");
  std::printf("  %7s  %-7s %10s  %8s  %10s  %9s\n", "epochs", "mode",
              "sim wall", "classes", "simulated", "bound");

  bool all_exact = true;
  bool all_sampled = true;
  double speedup_at_1000 = 0;

  for (std::int64_t iters : {100, 500, 1000}) {
    const double m0 = now_s();
    auto prog = suite::make_by_name("grid", grid_config(iters));
    rt::MeasureOptions mo;
    mo.n_threads = 64;
    const trace::Trace measured = rt::measure(*prog, mo);
    const core::TranslatedTrace prepared = core::prepare_trace(measured);
    const double prep_s = now_s() - m0;

    const Cell ev = run_cell(prepared, params, core::SimMode::EventDriven);
    const Cell hy = run_cell(prepared, params, core::SimMode::Hybrid);
    const Cell au = run_cell(prepared, params, core::SimMode::Auto);
    const core::SamplingStats& sp = au.pred.sim.sampling;
    const std::int64_t epochs = sp.epochs;

    std::printf("  %7lld  %-7s %8.3f ms  %8s  %10s  %9s\n",
                static_cast<long long>(epochs), "event", ev.sim_s * 1e3, "-",
                "-", "-");
    std::printf("  %7lld  %-7s %8.3f ms  %8s  %10s  %9s\n",
                static_cast<long long>(epochs), "hybrid", hy.sim_s * 1e3, "-",
                "-", "-");
    std::printf("  %7lld  %-7s %8.3f ms  %8lld  %10lld  %6lld ns"
                "   (measure+translate %.2f s)\n",
                static_cast<long long>(epochs), "auto", au.sim_s * 1e3,
                static_cast<long long>(sp.classes),
                static_cast<long long>(sp.epochs_simulated),
                static_cast<long long>(sp.error_bound.count_ns()), prep_s);

    if (!bitwise_equal(au.pred, hy.pred) || !bitwise_equal(au.pred, ev.pred))
      all_exact = false;
    if (!sp.active || sp.epochs_simulated >= epochs) all_sampled = false;

    print_row(epochs, "event", ev);
    print_row(epochs, "hybrid", hy);
    print_row(epochs, "auto", au);
    const double speedup = au.sim_s > 0 ? hy.sim_s / au.sim_s : 0.0;
    std::printf("sampling_speedup bench=grid epochs=%lld speedup=%.2fx\n",
                static_cast<long long>(epochs), speedup);
    if (epochs >= 1000) speedup_at_1000 = speedup;
  }

  // Tier 2: cost-perturbed grid (amp = 2% deterministic per-epoch jitter)
  // under a tolerance sweep.  Every epoch keeps its shape but few stay
  // bit-identical, so dedup alone wins little; clustering trades certified
  // error for walked exemplars.  Soundness: |sampled - exact| <= bound.
  std::printf("\nTolerance sweep on the cost-perturbed 1002-epoch grid "
              "(2%% per-epoch jitter):\n\n");
  std::printf("  %9s  %8s  %10s  %12s  %12s\n", "tolerance", "clusters",
              "simulated", "bound", "actual err");
  auto prog = suite::make_by_name("grid", grid_config(1000));
  rt::MeasureOptions mo;
  mo.n_threads = 64;
  const trace::Trace perturbed =
      perturb_epoch_costs(rt::measure(*prog, mo), 0.02);
  const core::TranslatedTrace prepared = core::prepare_trace(perturbed);
  const core::Prediction exact =
      run_cell(prepared, params, core::SimMode::Hybrid).pred;

  bool all_sound = true;
  for (double tol : {0.0, 0.005, 0.02, 0.1}) {
    const Cell au = run_cell(prepared, params, core::SimMode::Auto, tol);
    const core::SamplingStats& sp = au.pred.sim.sampling;
    const std::int64_t actual_err = std::llabs(
        (au.pred.predicted_time - exact.predicted_time).count_ns());
    const bool sound = actual_err <= sp.error_bound.count_ns() ||
                       (tol == 0.0 && actual_err == 0);
    if (!sound) all_sound = false;
    std::printf("  %9.3f  %8lld  %10lld  %9lld ns  %9lld ns\n", tol,
                static_cast<long long>(sp.clusters),
                static_cast<long long>(sp.epochs_simulated),
                static_cast<long long>(sp.error_bound.count_ns()),
                static_cast<long long>(actual_err));
    std::printf("sampling_tolerance bench=grid tol=%.4f clusters=%lld"
                " simulated=%lld error_bound_ns=%lld actual_err_ns=%lld"
                " sound=%d\n",
                tol, static_cast<long long>(sp.clusters),
                static_cast<long long>(sp.epochs_simulated),
                static_cast<long long>(sp.error_bound.count_ns()),
                static_cast<long long>(actual_err), sound ? 1 : 0);
  }

  std::printf("\nShape checks (DESIGN.md §15: dedup is exact, clustering "
              "is certified):\n");
  shape_check("auto == hybrid == event-driven bitwise at every length",
              all_exact);
  shape_check("sampled path engaged and walked fewer epochs than the trace",
              all_sampled);
  {
    char claim[128];
    std::snprintf(claim, sizeof claim,
                  "sampled >= 10x full-analytic simulate at 1002 epochs "
                  "(%.1fx)",
                  speedup_at_1000);
    shape_check(claim, speedup_at_1000 >= 10.0);
  }
  shape_check("|sampled - exact| <= certified bound at every tolerance",
              all_sound);
  return run_memo() ? 0 : 1;
}

}  // namespace
}  // namespace xp::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return xp::bench::run(smoke);
}
