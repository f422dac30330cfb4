#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "machine/machine_sim.hpp"
#include "suite/suite.hpp"

namespace xpbench {

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add_i(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

}  // namespace

std::uint64_t digest(const xp::core::SimResult& r) {
  Fnv f;
  f.add_i(r.makespan.count_ns());
  f.add(r.threads.size());
  for (const xp::core::ThreadStats& t : r.threads) {
    f.add_i(t.compute.count_ns());
    f.add_i(t.comm_wait.count_ns());
    f.add_i(t.barrier_wait.count_ns());
    f.add_i(t.send_overhead.count_ns());
    f.add_i(t.service_time.count_ns());
    f.add_i(t.poll_time.count_ns());
    f.add_i(t.finish.count_ns());
    f.add_i(t.remote_accesses);
    f.add_i(t.intra_cluster_accesses);
    f.add_i(t.requests_served);
    f.add_i(t.interrupts_taken);
    f.add_i(t.polls);
  }
  f.add_i(r.messages);
  f.add_i(r.bytes);
  f.add_d(r.avg_inflight);
  return f.h;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

xp::suite::SuiteConfig trimmed_suite_config() {
  xp::suite::SuiteConfig cfg;
  cfg.embar_pairs = 1 << 13;
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
  cfg.sort_keys = 2048;
  return cfg;
}

double prediction_error_pct() {
  const xp::model::SimParams params = xp::model::cm5_preset();
  const xp::machine::MachineConfig mc = xp::machine::cm5_machine();
  const xp::suite::SuiteConfig cfg = trimmed_suite_config();
  double sum = 0;
  int count = 0;
  for (const std::string& name : xp::suite::benchmark_names()) {
    for (const int n : {4, 16}) {
      auto p1 = xp::suite::make_by_name(name, cfg);
      const xp::util::Time pred =
          xp::core::Extrapolator(params).extrapolate(*p1, n).predicted_time;
      auto p2 = xp::suite::make_by_name(name, cfg);
      const xp::util::Time act =
          xp::machine::run_on_machine(*p2, n, mc).exec_time;
      sum += std::abs(pred / act - 1.0);
      ++count;
    }
  }
  return 100.0 * sum / count;
}

// --- spans -----------------------------------------------------------------

std::vector<SpanTotals> span_totals(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> by_name;
  for (const SpanLog* log : logs) {
    // Spans of one thread nest: sort by start (outer first on ties) and
    // walk with a stack of open spans, charging each span's duration
    // against its innermost enclosing span.
    std::vector<Span> s = log->spans();
    std::sort(s.begin(), s.end(), [](const Span& a, const Span& b) {
      return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
    });
    std::vector<double> child(s.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < s.size(); ++i) {
      while (!stack.empty() && s[stack.back()].t1 <= s[i].t0) stack.pop_back();
      if (!stack.empty()) child[stack.back()] += s[i].t1 - s[i].t0;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      SpanTotals& t = by_name[s[i].name];
      t.name = s[i].name;
      ++t.count;
      t.total_s += s[i].t1 - s[i].t0;
      t.self_s += (s[i].t1 - s[i].t0) - child[i];
    }
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

double span_total_s(const std::vector<SpanTotals>& totals,
                    const std::string& name) {
  for (const SpanTotals& t : totals)
    if (t.name == name) return t.total_s;
  return 0;
}

void add_pipeline_layers(Report& out, const std::vector<SpanTotals>& totals,
                         double passes, std::int64_t measured_events,
                         std::int64_t engine_events) {
  const double measure_s = span_total_s(totals, "rt.measure");
  const double simulate_s = span_total_s(totals, "core.simulate_event");
  const double me = static_cast<double>(measured_events);
  const double ee = static_cast<double>(engine_events);
  out.add("suite.verify_s", span_total_s(totals, "suite.verify") / passes,
          "s/pass");
  out.add("rt.measure_s", measure_s / passes, "s/pass");
  out.add("rt.events", me / passes, "count/pass");
  out.add("rt.measure_ns_per_event", measure_s * 1e9 / me, "ns/event");
  out.add("core.translate_s", span_total_s(totals, "core.translate") / passes,
          "s/pass");
  out.add("core.compile_s", span_total_s(totals, "core.compile") / passes,
          "s/pass");
  out.add("core.simulate_event_s", simulate_s / passes, "s/pass");
  out.add("sim.engine_events", ee / passes, "count/pass");
  out.add("sim.ns_per_event", simulate_s * 1e9 / ee, "ns/event");
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        const std::string& stamp_json) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << stamp_json
     << ", \"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                    first ? "" : ",\n", s.name, layer.c_str(), log->tid(),
                    s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
      os << buf;
      first = false;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

std::string self_time_table(const std::vector<SpanTotals>& totals) {
  double all_self = 0;
  std::map<std::string, double> by_layer;
  for (const SpanTotals& t : totals) {
    all_self += t.self_s;
    by_layer[t.name.substr(0, t.name.find('.'))] += t.self_s;
  }
  const auto share = [&](double s) {
    return all_self > 0 ? 100.0 * s / all_self : 0.0;
  };
  std::ostringstream os;
  char buf[256];
  os << "self time by layer:\n";
  for (const auto& [layer, s] : by_layer) {
    std::snprintf(buf, sizeof buf, "  %-10s %12.6f s %6.2f%%\n", layer.c_str(),
                  s, share(s));
    os << buf;
  }
  os << "self time by span:\n";
  std::snprintf(buf, sizeof buf, "  %-28s %8s %12s %12s %7s\n", "span",
                "count", "total_s", "self_s", "self%");
  os << buf;
  for (const SpanTotals& t : totals) {
    std::snprintf(buf, sizeof buf, "  %-28s %8lld %12.6f %12.6f %6.2f%%\n",
                  t.name.c_str(), static_cast<long long>(t.count), t.total_s,
                  t.self_s, share(t.self_s));
    os << buf;
  }
  return os.str();
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> m = {
      {"suite.verify_s", "s/pass"},
      {"rt.measure_s", "s/pass"},
      {"rt.events", "count/pass"},
      {"rt.measure_ns_per_event", "ns/event"},
      {"core.translate_s", "s/pass"},
      {"core.compile_s", "s/pass"},
      {"core.simulate_event_s", "s/pass"},
      {"sim.engine_events", "count/pass"},
      {"sim.ns_per_event", "ns/event"},
      {"core.simulate_analytic_s", "s/pass"},
      {"core.segments_collapsed_frac", "frac"},
      {"core.epochs_sampled_frac", "frac"},
      {"core.sweep_prewarm_wall_s", "s/pass"},
      {"core.sweep_simulate_wall_s", "s/pass"},
      {"core.cache_hits", "count/pass"},
      {"core.cache_misses", "count/pass"},
      {"util.pool_busy_frac", "frac"},
      {"model.parse_params_us", "us/query"},
      {"serve.encode_us", "us/pass"},
      {"serve.decode_us", "us/pass"},
      {"serve.service_ms", "ms/pass"},
      {"serve.socket_ms", "ms/pass"},
      {"xpbench.tracing_overhead_pct", "%"},
  };
  return m;
}

}  // namespace xpbench
