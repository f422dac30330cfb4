// sweep_cold — the Figure 4 question asked cold, with default options.
//
// One pass gives each of the 7 Table-2 codes a fresh core::SweepRunner
// (empty translate cache, default worker count) over procs
// {1,2,4,8,16,32,64} x presets {distributed, cm5, paragon, sp1}: 196 cells,
// every one measured, translated, compiled and simulated from scratch.
// Measurement dominates here, so this is where changes to rt::measure or
// verify() must show.  The first pass is set-up (the process's cold
// start) and the reference every later pass must match bitwise.
//
// The traced run cannot see inside SweepRunner, so it replays the same
// cells layer by layer (measure -> verify -> translate -> compile ->
// simulate per preset) with a span around each call, and reads the sweep
// layer's own numbers from the SweepStages of untraced passes.
#include <cstdio>
#include <map>

#include "bench.hpp"
#include "core/sweep.hpp"
#include "suite/suite.hpp"
#include "trace/summary.hpp"
#include "util/thread_pool.hpp"

namespace xpbench {

namespace {

/// Latency tail: a run holds several hundred per-code sweeps, so p95 keeps
/// at least ten samples beyond it even at half today's speed.
constexpr double kTailPct = 95;

struct Setup {
  xp::suite::SuiteConfig cfg;
  std::vector<std::string> codes;
  std::vector<int> procs;
  std::vector<xp::model::SimParams> machines;
  std::vector<std::string> labels;

  std::size_t cells_per_code() const { return procs.size() * machines.size(); }
  std::size_t cells() const { return codes.size() * cells_per_code(); }
};

Setup make_setup(bool tiny) {
  Setup s;
  s.codes = xp::suite::benchmark_names();
  s.procs = tiny ? std::vector<int>{1, 2, 4}
                 : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
  s.machines = {xp::model::distributed_preset(), xp::model::cm5_preset(),
                xp::model::paragon_preset(), xp::model::sp1_preset()};
  s.labels = {"distributed", "cm5", "paragon", "sp1"};
  if (tiny) s.cfg = trimmed_suite_config();
  return s;
}

/// Cell digests of one code's sweep, in grid order (machine-major).
using Digests = std::vector<std::uint64_t>;

struct PassResult {
  double wall_s = 0;
  std::vector<double> code_wall_s;  ///< one per code sweep
  std::int64_t cells = 0;
  std::int64_t failed = 0;
  xp::core::SweepStages stages;  ///< summed over the pass's sweeps
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// One pass of cold sweeps.  With `ref` empty the pass records the
/// reference digests; otherwise every cell is compared against it.
PassResult sweep_pass(const Setup& s, Shuffler& sh,
                      std::map<std::string, Digests>& ref) {
  PassResult out;
  const auto t0 = Clock::now();
  for (const std::size_t c : sh.permutation(s.codes.size())) {
    const std::string& code = s.codes[c];
    xp::core::SweepOptions so;
    so.submit_order = sh.permutation(s.cells_per_code());
    xp::core::SweepRunner runner(
        [&] { return xp::suite::make_by_name(code, s.cfg); }, so);
    const auto c0 = Clock::now();
    out.cells += static_cast<std::int64_t>(s.cells_per_code());
    try {
      const xp::core::SweepResult r =
          runner.run_grid(s.procs, s.machines, s.labels);
      out.code_wall_s.push_back(secs(c0, Clock::now()));
      Digests d;
      for (const xp::core::Prediction& p : r.predictions)
        d.push_back(digest(p.sim));
      const auto it = ref.find(code);
      if (it == ref.end()) {
        ref.emplace(code, d);
      } else {
        for (std::size_t i = 0; i < d.size(); ++i)
          if (i >= it->second.size() || d[i] != it->second[i]) ++out.failed;
      }
      const xp::core::SweepStages& st = r.stages;
      out.stages.measure_cpu_s += st.measure_cpu_s;
      out.stages.translate_cpu_s += st.translate_cpu_s;
      out.stages.simulate_cpu_s += st.simulate_cpu_s;
      out.stages.prewarm_wall_s += st.prewarm_wall_s;
      out.stages.simulate_wall_s += st.simulate_wall_s;
      out.cache_hits += r.cache_hits;
      out.cache_misses += r.cache_misses;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep %s failed: %s\n", code.c_str(), e.what());
      out.code_wall_s.push_back(secs(c0, Clock::now()));
      out.failed += static_cast<std::int64_t>(s.cells_per_code());
    }
  }
  out.wall_s = secs(t0, Clock::now());
  return out;
}

/// Per-layer sums of a layer-by-layer replay.
struct ReplayCounts {
  std::int64_t passes = 0;
  std::int64_t cells = 0;
  std::int64_t failed = 0;
  std::int64_t measured_events = 0;
  std::int64_t engine_events = 0;
  std::map<std::string, double> measure_s;  ///< per code, for verify shares
  std::map<std::string, double> verify_s;
};

/// One pass of the same cells as sweep_pass, sequentially, with a span
/// around each library call.  Predictions must match the sweep's
/// reference digests: the replay uses the sweep's own default options.
void replay_pass(const Setup& s, Shuffler& sh,
                 const std::map<std::string, Digests>& ref, SpanLog* log,
                 ReplayCounts& rc) {
  Scoped pass_span(log, "xpbench.replay_pass");
  ++rc.passes;
  const std::size_t n_procs = s.procs.size();
  for (const std::size_t c : sh.permutation(s.codes.size())) {
    const std::string& code = s.codes[c];
    const Digests& want = ref.at(code);
    for (const std::size_t pi : sh.permutation(n_procs)) {
      const int n = s.procs[pi];
      rc.cells += static_cast<std::int64_t>(s.machines.size());
      try {
        auto prog = xp::suite::make_by_name(code, s.cfg);
        xp::rt::MeasureOptions mo;
        mo.n_threads = n;
        xp::trace::Trace measured;
        {
          const auto m0 = Clock::now();
          Scoped sp(log, "rt.measure");
          measured = xp::rt::measure(*prog, mo);
          rc.measure_s[code] += secs(m0, Clock::now());
        }
        {
          const auto v0 = Clock::now();
          Scoped sp(log, "suite.verify");
          prog->verify();
          rc.verify_s[code] += secs(v0, Clock::now());
        }
        rc.measured_events += static_cast<std::int64_t>(measured.size());
        xp::core::TranslatedTrace tt;
        tt.n_threads = measured.n_threads();
        tt.measured_time = measured.end_time();
        {
          Scoped sp(log, "trace.summarize");
          tt.measured_summary = xp::trace::summarize(measured);
        }
        {
          Scoped sp(log, "core.translate");
          tt.translated = xp::core::translate(measured);
          tt.ideal_time = xp::core::ideal_parallel_time(tt.translated);
        }
        {
          Scoped sp(log, "core.compile");
          tt.compiled = std::make_shared<const xp::core::CompiledTrace>(
              xp::core::CompiledTrace::compile(tt.translated));
        }
        for (std::size_t m = 0; m < s.machines.size(); ++m) {
          xp::core::Prediction p;
          {
            Scoped sp(log, "core.simulate_event");
            p = xp::core::predict(tt, s.machines[m]);
          }
          rc.engine_events += static_cast<std::int64_t>(p.sim.engine_events);
          if (digest(p.sim) != want.at(m * n_procs + pi)) ++rc.failed;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "replay %s n=%d failed: %s\n", code.c_str(), n,
                     e.what());
        rc.failed += static_cast<std::int64_t>(s.machines.size());
      }
    }
  }
}

}  // namespace

void run_sweep_cold(const Args& args, Report& out, SpanLogs& logs) {
  const Setup s = make_setup(args.tiny);
  Shuffler sh(args.seed);
  std::map<std::string, Digests> ref;
  const PassResult first = sweep_pass(s, sh, ref);
  out.attempted += first.cells;
  out.failed += first.failed;
  const auto start = Clock::now();
  const double setup_s = secs(args.process_start, start);
  out.add("setup_s", setup_s, "s");
  if (args.setup_only) return;
  char line[256];

  if (!args.trace) {
    std::vector<double> cells_per_s, code_ms;
    run_passes(args.seconds, [&] {
      const PassResult p = sweep_pass(s, sh, ref);
      out.attempted += p.cells;
      out.failed += p.failed;
      cells_per_s.push_back(static_cast<double>(p.cells) / p.wall_s);
      for (const double w : p.code_wall_s) code_ms.push_back(w * 1e3);
      return p.wall_s;
    });
    out.samples["ops_per_s"] = cells_per_s;
    out.samples["op_ms"] = code_ms;
    out.add("ops_per_s", interquartile_mean(cells_per_s), "1/s");
    out.add("op_iqm_ms", interquartile_mean(code_ms), "ms");
    out.add("op_tail_ms", percentile(code_ms, kTailPct), "ms");
    std::snprintf(line, sizeof line,
                  "sweep_cold: %zu passes of %zu cells; ops = cells, "
                  "latency = one code's cold sweep (%zu samples, tail = p%g)",
                  cells_per_s.size(), s.cells(), code_ms.size(), kTailPct);
    out.note(line);
    return;
  }

  // Traced run.  A third of the budget goes to untraced sweep passes for
  // the sweep layer's own stage numbers, the rest to the layer-by-layer
  // replay, untraced and traced (the difference is the tracing overhead).
  const double third = args.seconds / 3;
  xp::core::SweepStages st;
  std::uint64_t hits = 0, misses = 0;
  std::int64_t sweep_passes = 0;
  const int workers = xp::util::ThreadPool::default_workers();
  run_passes(third, [&] {
    const PassResult p = sweep_pass(s, sh, ref);
    out.attempted += p.cells;
    out.failed += p.failed;
    st.measure_cpu_s += p.stages.measure_cpu_s;
    st.translate_cpu_s += p.stages.translate_cpu_s;
    st.simulate_cpu_s += p.stages.simulate_cpu_s;
    st.prewarm_wall_s += p.stages.prewarm_wall_s;
    st.simulate_wall_s += p.stages.simulate_wall_s;
    hits += p.cache_hits;
    misses += p.cache_misses;
    ++sweep_passes;
    return p.wall_s;
  });

  // Replay passes alternate spans off and on, so drift over the run
  // falls on both sides of the overhead comparison alike.
  logs.push_back(std::make_unique<SpanLog>(0, start, false));
  SpanLog* log = logs.back().get();
  ReplayCounts plain, traced;
  double plain_s = 0, traced_s = 0;
  const auto r0 = Clock::now();
  for (int i = 0; i < 2 || secs(r0, Clock::now()) < 2 * third; ++i) {
    log->set_on(i % 2 == 1);
    const auto p0 = Clock::now();
    replay_pass(s, sh, ref, log, log->on() ? traced : plain);
    (log->on() ? traced_s : plain_s) += secs(p0, Clock::now());
  }
  const double plain_pass_s = plain_s / plain.passes;
  const double traced_pass_s = traced_s / traced.passes;
  out.attempted += plain.cells + traced.cells;
  out.failed += plain.failed + traced.failed;

  const std::vector<SpanTotals> tot = span_totals({log});
  const double np = static_cast<double>(traced.passes);
  add_pipeline_layers(out, tot, np, traced.measured_events,
                      traced.engine_events);
  const double sp = static_cast<double>(sweep_passes);
  out.add("core.sweep_prewarm_wall_s", st.prewarm_wall_s / sp, "s/pass");
  out.add("core.sweep_simulate_wall_s", st.simulate_wall_s / sp, "s/pass");
  out.add("core.cache_hits", static_cast<double>(hits) / sp, "count/pass");
  out.add("core.cache_misses", static_cast<double>(misses) / sp, "count/pass");
  out.add("util.pool_busy_frac",
          (st.measure_cpu_s + st.translate_cpu_s + st.simulate_cpu_s) /
              ((st.prewarm_wall_s + st.simulate_wall_s) * workers),
          "frac");
  out.add("xpbench.tracing_overhead_pct",
          100.0 * (traced_pass_s / plain_pass_s - 1.0), "%");

  std::snprintf(line, sizeof line,
                "sweep_cold traced: %lld sweep passes, replay %lld untraced / "
                "%lld traced passes (%.4f s vs %.4f s per pass)",
                static_cast<long long>(sweep_passes),
                static_cast<long long>(plain.passes),
                static_cast<long long>(traced.passes), plain_pass_s,
                traced_pass_s);
  out.note(line);
  std::string shares = "verify / measure time by code (traced replay):";
  for (const auto& [code, m] : traced.measure_s) {
    std::snprintf(line, sizeof line, " %s %.3f", code.c_str(),
                  traced.verify_s.at(code) / m);
    shares += line;
  }
  out.note(shares);
}

}  // namespace xpbench
