// huge_n — one huge-n prediction per code, single-threaded.
//
// Codes {embar, cyclic, grid, mgrid, poisson} at n = 4096: each is
// measured once with rt::measure, prepared once with core::prepare_trace,
// then predicted twice with core::predict — on the distributed preset with
// default options (the event path), and on shared_memory_preset() with one
// cluster holding every processor, SimMode::Auto and no extrapolated trace
// (the analytic path, where hybrid collapse and epoch sampling engage).
// Fiber, tracer, translate and compile work at thousands of threads here,
// so preparation is a real share of the pass.  Sparse and sort are left
// out: sparse alone records tens of millions of events at n = 4096.
//
// n = 4096 rather than 16384: at 16384 a pass takes seconds and needs
// about 1 GB, and on a shared 4-CPU host its wall time moved by up to 30%
// between runs; at 4096 a run holds a dozen passes and the spread stays
// within the bounds of BENCHMARK.json.
//
// Set-up computes, per code, an EventDriven prediction of the same prepared
// trace on the analytic target: every Auto prediction must equal it
// bitwise.  Distributed predictions must equal the first timed pass's.
#include <cstdio>
#include <map>

#include "bench.hpp"
#include "suite/suite.hpp"
#include "trace/summary.hpp"

namespace xpbench {

namespace {

/// Latency tail: a run holds about a hundred jobs, so p90 keeps ten
/// samples beyond it.
constexpr double kTailPct = 90;

const std::vector<std::string> kCodes = {"embar", "cyclic", "grid", "mgrid",
                                         "poisson"};

xp::model::SimParams analytic_target() {
  xp::model::SimParams p = xp::model::shared_memory_preset();
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

xp::core::SimOptions analytic_options() {
  xp::core::SimOptions o;
  o.mode = xp::core::SimMode::Auto;
  o.emit_trace = false;
  return o;
}

struct Counts {
  std::int64_t passes = 0;
  std::int64_t predictions = 0;
  std::int64_t failed = 0;
  std::int64_t measured_events = 0;
  std::int64_t engine_events = 0;
  std::int64_t segments_total = 0;
  std::int64_t segments_collapsed = 0;
  std::int64_t epochs_total = 0;
  std::int64_t epochs_simulated = 0;
};

/// Measure and prepare one code.  With a log, the steps of
/// core::prepare_trace run one by one under spans, plus a second verify().
xp::core::TranslatedTrace prepare(const std::string& code, int n,
                                  SpanLog* log, Counts& c) {
  auto prog = xp::suite::make_by_name(code);
  xp::rt::MeasureOptions mo;
  mo.n_threads = n;
  xp::trace::Trace measured;
  {
    Scoped sp(log, "rt.measure");
    measured = xp::rt::measure(*prog, mo);
  }
  c.measured_events += static_cast<std::int64_t>(measured.size());
  if (!log) return xp::core::prepare_trace(measured);
  {
    Scoped sp(log, "suite.verify");
    prog->verify();
  }
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
  return tt;
}

/// One pass over the codes in seeded order.  `oracle` holds each code's
/// EventDriven digest on the analytic target; `dist_ref` the distributed
/// digests (filled by the first pass that runs).  With a `log` (traced
/// runs) preparation runs layer by layer.
void huge_pass(int n, Shuffler& sh,
               const std::map<std::string, std::uint64_t>& oracle,
               std::map<std::string, std::uint64_t>& dist_ref, SpanLog* log,
               Counts& c, std::vector<double>* job_ms) {
  Scoped pass_span(log, "xpbench.pass");
  ++c.passes;
  const xp::model::SimParams dist = xp::model::distributed_preset();
  const xp::model::SimParams analytic = analytic_target();
  for (const std::size_t i : sh.permutation(kCodes.size())) {
    const std::string& code = kCodes[i];
    const auto t0 = Clock::now();
    c.predictions += 2;
    try {
      const xp::core::TranslatedTrace tt = prepare(code, n, log, c);
      xp::core::Prediction pd, pa;
      {
        Scoped sp(log, "core.simulate_event");
        pd = xp::core::predict(tt, dist);
      }
      {
        Scoped sp(log, "core.simulate_analytic");
        pa = xp::core::predict(tt, analytic, analytic_options());
      }
      if (job_ms) job_ms->push_back(secs(t0, Clock::now()) * 1e3);
      c.engine_events += static_cast<std::int64_t>(pd.sim.engine_events);
      c.segments_total += pa.sim.hybrid.segments_total;
      c.segments_collapsed += pa.sim.hybrid.segments_collapsed;
      if (pa.sim.sampling.active) {
        c.epochs_total += pa.sim.sampling.epochs;
        c.epochs_simulated += pa.sim.sampling.epochs_simulated;
      }
      const std::uint64_t d = digest(pd.sim);
      const auto [it, first] = dist_ref.emplace(code, d);
      if (!first && it->second != d) ++c.failed;
      if (digest(pa.sim) != oracle.at(code)) ++c.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "huge_n %s failed: %s\n", code.c_str(), e.what());
      c.failed += 2;
    }
  }
}

}  // namespace

void run_huge_n(const Args& args, Report& out, SpanLogs& logs) {
  const int n = args.tiny ? 256 : 4096;
  std::map<std::string, std::uint64_t> oracle, dist_ref;
  {
    Counts unused;
    for (const std::string& code : kCodes) {
      const xp::core::TranslatedTrace tt = prepare(code, n, nullptr, unused);
      xp::core::SimOptions o = analytic_options();
      o.mode = xp::core::SimMode::EventDriven;
      oracle[code] = digest(xp::core::predict(tt, analytic_target(), o).sim);
    }
  }
  Shuffler sh(args.seed);
  const auto start = Clock::now();
  const double setup_s = secs(args.process_start, start);
  out.add("setup_s", setup_s, "s");
  if (args.setup_only) return;
  char line[256];

  if (!args.trace) {
    Counts c;
    std::vector<double> pass_s, job_ms;
    run_passes(args.seconds, [&] {
      const auto p0 = Clock::now();
      huge_pass(n, sh, oracle, dist_ref, nullptr, c, &job_ms);
      pass_s.push_back(secs(p0, Clock::now()));
      return pass_s.back();
    });
    out.attempted += c.predictions;
    out.failed += c.failed;
    const double per_pass = static_cast<double>(c.predictions) / c.passes;
    out.samples["pass_s"] = pass_s;
    out.samples["op_ms"] = job_ms;
    out.add("ops_per_s", per_pass / interquartile_mean(pass_s), "1/s");
    out.add("op_iqm_ms", interquartile_mean(job_ms), "ms");
    out.add("op_tail_ms", percentile(job_ms, kTailPct), "ms");
    std::snprintf(line, sizeof line,
                  "huge_n: n=%d, %zu passes, mean pass %.4f s; ops = "
                  "predictions, latency = one code's measure+prepare+2 "
                  "predictions (%zu samples, tail = p%g)",
                  n, pass_s.size(), interquartile_mean(pass_s), job_ms.size(),
                  kTailPct);
    out.note(line);
    return;
  }

  // Traced run: the layer-split pass, alternating spans off (the overhead
  // baseline) and on, so drift over the run falls on both sides alike.
  logs.push_back(std::make_unique<SpanLog>(0, start, false));
  SpanLog* log = logs.back().get();
  Counts plain, traced;
  double plain_s = 0, traced_s = 0;
  for (int i = 0; i < 2 || secs(start, Clock::now()) < args.seconds; ++i) {
    log->set_on(i % 2 == 1);
    const auto p0 = Clock::now();
    huge_pass(n, sh, oracle, dist_ref, log, log->on() ? traced : plain,
              nullptr);
    (log->on() ? traced_s : plain_s) += secs(p0, Clock::now());
  }
  const double plain_pass_s = plain_s / plain.passes;
  const double traced_pass_s = traced_s / traced.passes;
  out.attempted += plain.predictions + traced.predictions;
  out.failed += plain.failed + traced.failed;

  const std::vector<SpanTotals> tot = span_totals({log});
  const double np = static_cast<double>(traced.passes);
  add_pipeline_layers(out, tot, np, traced.measured_events,
                      traced.engine_events);
  out.add("core.simulate_analytic_s",
          span_total_s(tot, "core.simulate_analytic") / np, "s/pass");
  out.add("core.segments_collapsed_frac",
          traced.segments_total > 0
              ? static_cast<double>(traced.segments_collapsed) /
                    static_cast<double>(traced.segments_total)
              : 0.0,
          "frac");
  out.add("core.epochs_sampled_frac",
          traced.epochs_total > 0
              ? static_cast<double>(traced.epochs_simulated) /
                    static_cast<double>(traced.epochs_total)
              : 0.0,
          "frac");
  out.add("xpbench.tracing_overhead_pct",
          100.0 * (traced_pass_s / plain_pass_s - 1.0), "%");
  std::snprintf(line, sizeof line,
                "huge_n traced: n=%d, %lld untraced / %lld traced passes "
                "(%.4f s vs %.4f s per pass)",
                n, static_cast<long long>(plain.passes),
                static_cast<long long>(traced.passes), plain_pass_s,
                traced_pass_s);
  out.note(line);
}

}  // namespace xpbench
