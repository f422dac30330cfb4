// Ablation: hybrid analytic/discrete-event simulation at large n.
//
// The event-driven replay costs one engine event per traced operation, so
// simulating 10^5 processors means tens of millions of heap pops even when
// every thread just computes between barriers.  The hybrid path (DESIGN.md
// §13) collapses every segment of a run without cross-cluster traffic
// into closed-form arithmetic and runs barrier epochs analytically; on a
// single-cluster shared-memory target the event engine never starts.
//
// This harness measures that directly: simulate Grid and Cyclic at
// n in {64 .. 100000} event-driven (only where feasible) and on the hybrid
// path against identical translated traces, and report wall time, engine
// events fired, and segments collapsed per cell.  The "hybrid" rows run
// Auto over a trace whose every epoch is its own class
// (bench::with_singleton_classes), so they time the collapse itself — every
// epoch walked analytically — not the epoch sampling stacked on top of it.
// Both paths are exact, so the harness also holds their predictions
// bitwise equal where both run.
//
// Gates (exit code): hybrid == event-driven bitwise, every hybrid cell on
// the engine-free path (SamplingStats::active, zero engine events), and
// hybrid >= 10x event-driven at n=1024 on both benchmarks.  Each cell's
// deterministic work is held at <= its value in bench/work_golden.json:
// engine events for event rows, collapsed ops for hybrid rows; a change
// that lowers one updates that table.
// The same table holds the measurement side of large n: the events
// rt::measure records for each Table-2 code at n in {4, 64} and for each
// xpbench huge_n code at n = 4096, default suite configuration (section
// "measure_work", which also carries the measurement's wall time).
// Section "window_parallel" times one huge-n prediction on the event path:
// each huge_n code at n = 4096 on the distributed preset (message
// barriers, so the barrier-epoch memo runs), predicted inside a
// util::ThreadPool task, where every parallel path is off (sequential),
// and from the bench's own thread, where the distinct windows are
// simulated at the same time (parallel; DESIGN.md §16).  The rows carry
// both wall times (best of 3, not gated: timed gates on a shared host
// cannot resolve such changes), both runs' engine events and the memo
// counts; the gates hold the two predictions' digests and memo counts
// equal, and the engine events and memo misses at <= the work table (the
// parallel run's events only where util::parallel_workers grants more
// than one thread).
// JSON rows: one per cell (section "hybrid") and one speedup per
// event-feasible cell (section "hybrid_speedup_vs_event").
//
//   --smoke   run only the hybrid grid n=100000 cell and gate it
//             engine-free (the CI huge-n smoke budget is one minute for
//             the whole measure->predict pipeline)
#include <time.h>

#include <cstring>

#include "common.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace xp::bench {
namespace {

double now_s() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

model::SimParams scaling_target() {
  // Single-cluster shared-memory machine: no messages, every remote
  // access intra-cluster, so the classifier collapses the whole run.
  model::SimParams p = model::shared_memory_preset();
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

/// Problem sizes that keep the MEASUREMENT (100k fibers on one core)
/// inside the CI smoke budget while giving every thread real per-epoch
/// work for the simulator to chew on.
suite::SuiteConfig config_for(const std::string& bench, int n) {
  suite::SuiteConfig cfg;
  if (bench == "grid") {
    std::int64_t g = 8;
    while (g * g < n) g *= 2;
    if (n > 10000) g = 320;  // 320^2 = 102400 blocks >= 100k threads
    cfg.grid_blocks = g;
    cfg.grid_block_points = n <= 1024 ? 16 : 8;
    cfg.grid_iters = n <= 1024 ? 10 : 5;
  } else if (bench == "cyclic") {
    // Eight equations per thread at the event-feasible sizes: a real
    // per-epoch slab of work, so the comparison measures engine cost per
    // loaded processor rather than per near-empty barrier interval.
    const std::int64_t target = n <= 1024 ? 8 * static_cast<std::int64_t>(n)
                                          : static_cast<std::int64_t>(n);
    std::int64_t m = 1024;
    while (m < target) m *= 2;
    cfg.cyclic_size = m;
    cfg.cyclic_width = n <= 1024 ? 8 : 2;
  }
  return cfg;
}

struct Cell {
  double sim_s = 0;
  core::Prediction pred;

  bool engine_free() const {
    return pred.sim.sampling.active && pred.sim.engine_events == 0;
  }
  const char* path() const {
    return pred.sim.sampling.active ? "analytic" : "event";
  }
};

/// Simulate `prepared` under `mode`, best-of-k wall time (k shrinks as n
/// grows — the big cells are single-shot).
Cell run_cell(const core::TranslatedTrace& prepared,
              const model::SimParams& params, core::SimMode mode, int n) {
  core::SimOptions opts;
  opts.mode = mode;
  opts.emit_trace = false;  // nobody reads the 10^5-thread trace
  const int reps = n <= 1024 ? 3 : 1;
  Cell cell;
  cell.sim_s = 1e30;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    core::Prediction p = core::predict(prepared, params, opts);
    cell.sim_s = std::min(cell.sim_s, now_s() - t0);
    cell.pred = std::move(p);
  }
  return cell;
}

/// Print the cell's JSON row and hold its deterministic work.
void print_row(const std::string& bench, int n, const char* mode,
               const Cell& cell) {
  const auto& h = cell.pred.sim.hybrid;
  const std::string key =
      "hybrid_" + bench + "_n" + std::to_string(n) + "_" + mode;
  JsonRow("hybrid", key)
      .field("seconds", cell.sim_s)
      .field("engine_events", cell.pred.sim.engine_events)
      .field("segments_collapsed", h.segments_collapsed)
      .field("segments_total", h.segments_total)
      .field("ops_collapsed", h.ops_collapsed)
      .field("path", cell.path())
      .emit();
  if (std::strcmp(mode, "event") == 0)
    hold_work(XP_WORK_GOLDEN, key, "engine_events",
              static_cast<std::int64_t>(cell.pred.sim.engine_events));
  else
    hold_work(XP_WORK_GOLDEN, key, "ops_collapsed", h.ops_collapsed);
}

/// The measure_work rows (see the header): one measurement per (code, n),
/// its recorded events held at <= the committed count.
void measure_work_rows() {
  struct Row {
    std::string code;
    int n;
  };
  std::vector<Row> rows;
  for (const std::string& code : suite::benchmark_names())
    for (int n : {4, 64}) rows.push_back({code, n});
  for (const char* code : {"embar", "cyclic", "grid", "mgrid", "poisson"})
    rows.push_back({code, 4096});

  std::printf("Measured events per code (default suite configuration)\n\n");
  std::printf("  %-7s %5s  %15s  %10s\n", "bench", "n", "measured events",
              "measure");
  for (const Row& r : rows) {
    auto prog = suite::make_by_name(r.code);
    rt::MeasureOptions mo;
    mo.n_threads = r.n;
    const double t0 = now_s();
    const auto events =
        static_cast<std::int64_t>(rt::measure(*prog, mo).size());
    const double seconds = now_s() - t0;
    const std::string key =
        "measure_work_" + r.code + "_n" + std::to_string(r.n);
    std::printf("  %-7s %5d  %15lld  %7.1f ms\n", r.code.c_str(), r.n,
                static_cast<long long>(events), seconds * 1e3);
    JsonRow("measure_work", key)
        .field("measured_events", events)
        .field("seconds", seconds)
        .emit();
    hold_work(XP_WORK_GOLDEN, key, "measured_events", events);
  }
  std::printf("\n");
}

/// FNV-1a over everything a prediction reports: makespan, every thread's
/// stats, messages and bytes.
std::uint64_t digest(const core::SimResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(r.makespan.count_ns());
  for (const core::ThreadStats& t : r.threads) {
    for (const Time x : {t.compute, t.comm_wait, t.barrier_wait,
                         t.send_overhead, t.service_time, t.poll_time,
                         t.finish})
      mix(x.count_ns());
    for (const std::int64_t x : {t.remote_accesses, t.intra_cluster_accesses,
                                 t.requests_served, t.interrupts_taken,
                                 t.polls})
      mix(x);
  }
  mix(r.messages);
  mix(r.bytes);
  return h;
}

/// The window_parallel rows (see the header).
void window_parallel_rows() {
  const model::SimParams params = model::distributed_preset();
  const int n = 4096;
  const int reps = 3;
  std::printf("One huge-n prediction: sequential (in a pool task) vs "
              "parallel windows, distributed preset, n = %d\n\n", n);
  std::printf("  %-7s  %10s  %10s  %13s  %13s  %5s  %6s\n", "bench",
              "sequential", "parallel", "seq events", "par events", "hits",
              "misses");
  for (const char* code : {"embar", "cyclic", "grid", "mgrid", "poisson"}) {
    auto prog = suite::make_by_name(code);
    rt::MeasureOptions mo;
    mo.n_threads = n;
    const core::TranslatedTrace prepared =
        core::prepare_trace(rt::measure(*prog, mo));
    const auto best_of = [&](core::Prediction& out) {
      double best = 1e30;
      for (int i = 0; i < reps; ++i) {
        const double t0 = now_s();
        out = core::predict(prepared, params);
        best = std::min(best, now_s() - t0);
      }
      return best;
    };
    core::Prediction seq, par;
    double seq_s = 0;
    {
      util::ThreadPool pool(1);
      pool.submit([&] { seq_s = best_of(seq); });
      pool.wait();
    }
    const double par_s = best_of(par);
    const core::HybridStats& h = par.sim.hybrid;
    std::printf("  %-7s  %7.1f ms  %7.1f ms  %13llu  %13llu  %5lld  %6lld\n",
                code, seq_s * 1e3, par_s * 1e3,
                static_cast<unsigned long long>(seq.sim.engine_events),
                static_cast<unsigned long long>(par.sim.engine_events),
                static_cast<long long>(h.memo_hits),
                static_cast<long long>(h.memo_misses));
    const std::string key =
        std::string("window_parallel_") + code + "_n" + std::to_string(n);
    JsonRow("window_parallel", key)
        .field("seq_seconds", seq_s)
        .field("par_seconds", par_s)
        .field("seq_engine_events", seq.sim.engine_events)
        .field("par_engine_events", par.sim.engine_events)
        .field("memo_hits", h.memo_hits)
        .field("memo_misses", h.memo_misses)
        .emit();
    gate(key + ": parallel windows give the sequential prediction",
         digest(par.sim) == digest(seq.sim));
    gate(key + ": memo hits and misses equal the sequential run's",
         h.memo_hits == seq.sim.hybrid.memo_hits &&
             h.memo_misses == seq.sim.hybrid.memo_misses);
    hold_work(XP_WORK_GOLDEN, key, "seq_engine_events",
              static_cast<std::int64_t>(seq.sim.engine_events));
    // With one CPU granted, the "parallel" run is the sequential one.
    if (util::parallel_workers(n, core::kParallelMinThreads) > 1)
      hold_work(XP_WORK_GOLDEN, key, "par_engine_events",
                static_cast<std::int64_t>(par.sim.engine_events));
    hold_work(XP_WORK_GOLDEN, key, "memo_misses", h.memo_misses);
  }
  std::printf("\n");
}

int run(bool smoke) {
  const model::SimParams params = scaling_target();

  struct Study {
    std::string bench;
    std::vector<int> ns;
  };
  std::vector<Study> studies;
  if (smoke) {
    studies.push_back({"grid", {100000}});
  } else {
    studies.push_back({"grid", {64, 256, 1024, 10000, 100000}});
    studies.push_back({"cyclic", {64, 256, 1024, 16384}});
  }

  std::printf("Hybrid vs event-driven simulation scaling "
              "(single-cluster shared-memory target)\n\n");
  std::printf("  %-7s %7s  %-7s %10s  %13s  %11s  %s\n", "bench", "n",
              "mode", "sim wall", "engine events", "collapsed", "path");

  bool all_exact = true;
  bool all_pure = true;
  std::map<std::string, double> event_s, hybrid_s;

  for (const auto& study : studies) {
    for (int n : study.ns) {
      const double m0 = now_s();
      auto prog = suite::make_by_name(study.bench, config_for(study.bench, n));
      rt::MeasureOptions mo;
      mo.n_threads = n;
      const trace::Trace measured = rt::measure(*prog, mo);
      const double measure_s = now_s() - m0;
      const core::TranslatedTrace prepared =
          with_singleton_classes(core::prepare_trace(measured));
      const double prep_s = now_s() - m0;

      const bool event_feasible = n <= 1024;
      Cell ev, hy;
      if (event_feasible)
        ev = run_cell(prepared, params, core::SimMode::EventDriven, n);
      hy = run_cell(prepared, params, core::SimMode::Auto, n);

      const std::string key = study.bench + "_" + std::to_string(n);
      if (event_feasible) {
        event_s[key] = ev.sim_s;
        std::printf("  %-7s %7d  %-7s %8.3f ms  %13lld  %11lld  %s\n",
                    study.bench.c_str(), n, "event", ev.sim_s * 1e3,
                    static_cast<long long>(ev.pred.sim.engine_events),
                    static_cast<long long>(
                        ev.pred.sim.hybrid.segments_collapsed),
                    ev.path());
        if (ev.pred.predicted_time != hy.pred.predicted_time ||
            ev.pred.sim.messages != hy.pred.sim.messages ||
            ev.pred.sim.bytes != hy.pred.sim.bytes)
          all_exact = false;
      }
      hybrid_s[key] = hy.sim_s;
      std::printf("  %-7s %7d  %-7s %8.3f ms  %13lld  %11lld  %s"
                  "   (measure %.2f s, translate %.2f s)\n",
                  study.bench.c_str(), n, "hybrid", hy.sim_s * 1e3,
                  static_cast<long long>(hy.pred.sim.engine_events),
                  static_cast<long long>(
                      hy.pred.sim.hybrid.segments_collapsed),
                  hy.path(), measure_s, prep_s - measure_s);
      if (!hy.engine_free()) all_pure = false;

      if (event_feasible) print_row(study.bench, n, "event", ev);
      print_row(study.bench, n, "hybrid", hy);
      if (event_feasible)
        JsonRow("hybrid_speedup_vs_event",
                study.bench + "_n" + std::to_string(n))
            .field("value", ev.sim_s / hy.sim_s)
            .emit();
    }
    std::printf("\n");
  }

  if (smoke) {
    gate("hybrid path stayed engine-free at n=100000", all_pure);
    gate_work();
    return exit_code();
  }

  measure_work_rows();
  window_parallel_rows();

  std::printf("Gates (paper: analytic collapse makes huge-n "
              "prediction tractable):\n");
  gate("hybrid == event-driven bitwise wherever both ran", all_exact);
  gate("single-cluster target collapses every segment (engine-free)",
       all_pure);
  for (const char* bench : {"grid", "cyclic"}) {
    const std::string key = std::string(bench) + "_1024";
    const auto e = event_s.find(key);
    const auto h = hybrid_s.find(key);
    const double speedup =
        e != event_s.end() && h != hybrid_s.end() && h->second > 0
            ? e->second / h->second
            : 0.0;
    char claim[128];
    std::snprintf(claim, sizeof claim,
                  "hybrid >= 10x event-driven at n=1024 on %s (%.1fx)", bench,
                  speedup);
    gate(claim, speedup >= 10.0);
  }
  gate_work();
  return exit_code();
}

}  // namespace
}  // namespace xp::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return xp::bench::run(smoke);
}
