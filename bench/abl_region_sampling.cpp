// Ablation: representative-epoch sampling on long iterative traces.
//
// Iterative programs spend almost all trace length repeating one or two
// barrier-delimited epochs: a 1000-iteration Grid sweep is 1002 epochs of
// which 3 are distinct.  The sampled Auto path (DESIGN.md §15) fingerprints
// every epoch at compile time, walks the first epoch of each epoch class,
// and replays that walk's recorded effect for every later epoch of the
// class — bitwise-equal to full simulation, because only bit-identical
// epochs share a class.
//
// This harness simulates Grid at 100/500/1000 iterations (102/502/1002
// epochs) under Auto (sampled), the full analytic walk (Auto over a copy of
// the trace whose every epoch is its own class, so every epoch is walked —
// bench::with_singleton_classes; rows keyed "hybrid"), and EventDriven
// against identical translated traces; holds all three bitwise equal; and
// gates sampled >= 10x full-walk simulate-stage wall time at >= 1000
// epochs.
//
// Barrier-epoch memoization (DESIGN.md §16) is the event-path counterpart
// on message-barrier machines, where nothing collapses analytically.  Its
// "epoch_memo" rows time EventDriven against Auto (no trace) on the same
// long Grid traces on cm5, and on default-config Grid and Mgrid at n=16
// and 32 on cm5, distributed and sp1, with memo hits/misses and a gated
// bitwise check of every prediction field.
//
// JSON rows: sections "sampling", "sampling_speedup_vs_hybrid" and
// "epoch_memo".  Every check in the full run is a gate (exit code) except
// the memo >= 5x timing claim.
//
// Work rows: exact counts that host noise cannot move.  Section
// "sampling_work" carries each sampled grid cell's epochs simulated,
// collapsed ops and engine events; section "memo_work" each epoch_memo
// row's memo misses and engine events.  Every count is gated at <= its
// value in bench/work_golden.json, and a change that lowers one updates
// the table.
//
//   --smoke   run only the Auto grid 1002-epoch cell and gate it sampled,
//             without and with a trace, the traced cell's trace bytes
//             equal to the full walk's (CI long-trace smoke, one minute
//             for the whole measure->predict pipeline)
#include <time.h>

#include <cstring>
#include <sstream>

#include "common.hpp"
#include "trace/trace_io.hpp"

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

struct Cell {
  double sim_s = 0;
  core::Prediction pred;
};

Cell run_cell(const core::TranslatedTrace& prepared,
              const model::SimParams& params, core::SimMode mode,
              bool emit_trace = false) {
  const core::SimOptions opts{mode, emit_trace};
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

/// The sampled cell's work row and its gates.
void sampling_work_row(std::int64_t epochs, const Cell& au) {
  const std::string key = "sampling_work_grid_e" + std::to_string(epochs);
  const std::int64_t simulated = au.pred.sim.sampling.epochs_simulated;
  const std::int64_t ops = au.pred.sim.hybrid.ops_collapsed;
  const auto events = static_cast<std::int64_t>(au.pred.sim.engine_events);
  JsonRow("sampling_work", key)
      .field("epochs_simulated", simulated)
      .field("ops_collapsed", ops)
      .field("engine_events", events)
      .emit();
  hold_work(XP_WORK_GOLDEN, key, "epochs_simulated", simulated);
  hold_work(XP_WORK_GOLDEN, key, "ops_collapsed", ops);
  hold_work(XP_WORK_GOLDEN, key, "engine_events", events);
}

std::string trace_bytes(const trace::Trace& t) {
  std::ostringstream os(std::ios::binary);
  trace::write_binary(t, os);
  return os.str();
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
  JsonRow("sampling",
          "sampling_grid_e" + std::to_string(epochs) + "_" + mode)
      .field("epochs", epochs)
      .field("seconds", cell.sim_s)
      .field("epochs_simulated", sp.epochs_simulated)
      .field("predicted_ns", cell.pred.predicted_time.count_ns())
      .emit();
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
  std::printf("  %-6s %3d %6lld  %-12s %9.3f ms %9.3f ms %7.2fx %6lld %6lld"
              "  %s\n",
              bench, n, static_cast<long long>(epochs), preset,
              ev.sim_s * 1e3, au.sim_s * 1e3, row.speedup,
              static_cast<long long>(h.memo_hits),
              static_cast<long long>(h.memo_misses),
              row.exact ? "yes" : "NO");
  const std::string cell = std::string(bench) + "_n" + std::to_string(n) +
                           "_e" + std::to_string(epochs) + "_" + preset;
  JsonRow("epoch_memo", cell)
      .field("event_seconds", ev.sim_s)
      .field("auto_seconds", au.sim_s)
      .field("speedup", row.speedup)
      .field("memo_hits", h.memo_hits)
      .field("memo_misses", h.memo_misses)
      .field("bitwise", row.exact)
      .emit();
  const auto events = static_cast<std::int64_t>(au.pred.sim.engine_events);
  JsonRow("memo_work", "memo_work_" + cell)
      .field("memo_misses", h.memo_misses)
      .field("engine_events", events)
      .emit();
  hold_work(XP_WORK_GOLDEN, "memo_work_" + cell, "memo_misses",
            h.memo_misses);
  hold_work(XP_WORK_GOLDEN, "memo_work_" + cell, "engine_events", events);
  return row;
}

/// The epoch-memo rows, gated bitwise-equal to EventDriven.
void run_memo() {
  std::printf("\nBarrier-epoch memoization on message-barrier machines "
              "(EventDriven vs Auto, no trace):\n\n");
  std::printf("  %-6s %3s %6s  %-12s %12s %12s %8s %6s %6s  %s\n", "bench",
              "n", "epochs", "preset", "event", "auto", "speedup", "hits",
              "misses", "bitwise");
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
  std::printf("\nChecks (DESIGN.md §16: memoized windows are exact):\n");
  gate("auto == event-driven bitwise on every memo row", all_exact);
  gate_work();
  char claim[128];
  std::snprintf(claim, sizeof claim,
                "default grid: auto >= 5x event-driven simulate on cm5, "
                "distributed and sp1 (min %.1fx)",
                min_grid_speedup);
  shape_check(claim, min_grid_speedup >= 5.0);
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
    sampling_work_row(sp.epochs, au);
    gate("sampled path engaged on the 1002-epoch trace",
         sp.active && sp.epochs >= 1000);
    gate("distinct classes stayed tiny on the iterative trace",
         sp.active && sp.epochs_simulated > 0 && sp.epochs_simulated <= 8);
    const Cell traced =
        run_cell(prepared, params, core::SimMode::Auto, /*emit_trace=*/true);
    const Cell walk = run_cell(with_singleton_classes(prepared), params,
                               core::SimMode::Auto, /*emit_trace=*/true);
    const core::SamplingStats& tsp = traced.pred.sim.sampling;
    gate("a trace keeps the 1002-epoch cell sampled",
         tsp.active && tsp.epochs_simulated < tsp.epochs);
    gate("its trace bytes equal the full analytic walk's",
         !traced.pred.sim.extrapolated().events().empty() &&
             trace_bytes(traced.pred.sim.extrapolated()) ==
                 trace_bytes(walk.pred.sim.extrapolated()));
    gate_work();
    return exit_code();
  }

  std::printf("Representative-epoch sampling on long iterative traces "
              "(grid, 64 threads, single-cluster target)\n\n");
  std::printf("  %7s  %-9s %10s  %10s\n", "epochs", "mode", "sim wall",
              "simulated");

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
    const Cell hy = run_cell(with_singleton_classes(prepared), params,
                             core::SimMode::Auto);
    const Cell au = run_cell(prepared, params, core::SimMode::Auto);
    const core::SamplingStats& sp = au.pred.sim.sampling;
    const std::int64_t epochs = sp.epochs;

    std::printf("  %7lld  %-9s %8.3f ms  %10s\n",
                static_cast<long long>(epochs), "event", ev.sim_s * 1e3, "-");
    std::printf("  %7lld  %-9s %8.3f ms  %10s\n",
                static_cast<long long>(epochs), "full walk", hy.sim_s * 1e3,
                "-");
    std::printf("  %7lld  %-9s %8.3f ms  %10lld"
                "   (measure+translate %.2f s)\n",
                static_cast<long long>(epochs), "auto", au.sim_s * 1e3,
                static_cast<long long>(sp.epochs_simulated), prep_s);

    if (!bitwise_equal(au.pred, hy.pred) || !bitwise_equal(au.pred, ev.pred))
      all_exact = false;
    if (!sp.active || sp.epochs_simulated >= epochs) all_sampled = false;

    print_row(epochs, "event", ev);
    print_row(epochs, "hybrid", hy);
    print_row(epochs, "auto", au);
    sampling_work_row(epochs, au);
    const double speedup = au.sim_s > 0 ? hy.sim_s / au.sim_s : 0.0;
    JsonRow("sampling_speedup_vs_hybrid", "grid_e" + std::to_string(epochs))
        .field("value", speedup)
        .emit();
    if (epochs >= 1000) speedup_at_1000 = speedup;
  }

  std::printf("\nGates (DESIGN.md §15: dedup is exact):\n");
  gate("auto == full analytic walk == event-driven bitwise at every length",
       all_exact);
  gate("sampled path engaged and walked fewer epochs than the trace",
       all_sampled);
  {
    char claim[128];
    std::snprintf(claim, sizeof claim,
                  "sampled >= 10x full-walk simulate at 1002 epochs "
                  "(%.1fx)",
                  speedup_at_1000);
    gate(claim, speedup_at_1000 >= 10.0);
  }
  gate_work();
  run_memo();
  return exit_code();
}

}  // namespace
}  // namespace xp::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return xp::bench::run(smoke);
}
