// xpbench — the ExtraP benchmark program.
//
//   xpbench --workload sweep_cold|serve_warm|huge_n --seed N --seconds S
//           --trace 0|1 [--tiny] [--scratch DIR] [--setup-only]
//
// Runs one workload's set-up, then measures for S seconds and prints, as
// the last line of standard output, one JSON object:
//   {"correct": bool, "attempted": int, "failed": int,
//    "metrics": {name: {"value": number, "unit": string}, ...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced and the metrics are the per-layer ones, and the traced run
// also writes a Chrome trace-event file and a self-time table into
// --scratch.  Lines before the result are human-readable: the host stamp,
// what was measured, and every metric with its unit.  README.md maps each
// metric to its layer and workload.
//
// setup_s is the median of kSetups cold set-ups: this process's own and
// those of child processes started with --setup-only, which run the
// workload's set-up, print "setup_s <seconds>" and exit.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "fiber/context.hpp"

#ifndef XP_BENCH_BUILD_TYPE
#define XP_BENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace xpbench;

constexpr int kSetups = 3;

int usage(const char* msg) {
  std::fprintf(stderr,
               "xpbench: %s\nusage: xpbench --workload "
               "sweep_cold|serve_warm|huge_n --seed N --seconds S --trace "
               "0|1 [--tiny] [--scratch DIR] [--setup-only]\n",
               msg);
  return 2;
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

/// The host stamp every result carries: CPUs this process may use, build
/// type and optimization, and the fiber backend measurement runs on.
std::string stamp_json(const Args& a) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"tiny\": %s, \"nproc\": %d, \"hardware_concurrency\": %u, "
      "\"build_type\": \"%s\", \"optimized\": %s, \"fiber_backend\": \"%s\"}",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.tiny ? "true" : "false", host_cpus(),
      std::thread::hardware_concurrency(), XP_BENCH_BUILD_TYPE,
      optimized_build() ? "true" : "false",
      xp::fiber::to_string(xp::fiber::default_backend()));
  return buf;
}

/// Set-up time of a fresh child process running `argv` with --setup-only;
/// negative when the child fails.
double child_setup_s(std::vector<std::string> argv) {
  argv.push_back("--setup-only");
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                             cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string text;
  char buf[256];
  for (ssize_t n; rc == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;)
    text.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  if (rc != 0) return -1;
  int status = 0;
  waitpid(pid, &status, 0);
  double v = -1;
  const std::size_t at = text.rfind("setup_s ");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      at == std::string::npos ||
      std::sscanf(text.c_str() + at, "setup_s %lf", &v) != 1)
    return -1;
  return v;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.process_start = Clock::now();
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--tiny" || a == "--setup-only") {
      (a == "--tiny" ? args.tiny : args.setup_only) = true;
      continue;
    }
    const char* v = value();
    if (!v) return usage(("missing value for " + a).c_str());
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      have_seed = *v && !*end;
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, &end);
      have_seconds = *v && !*end && args.seconds > 0;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      args.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--scratch") {
      args.scratch = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds > 0 and --trace 0|1 are "
                 "required");

  const std::map<std::string, std::function<void(const Args&, Report&,
                                                 SpanLogs&)>>
      workloads = {{"sweep_cold", run_sweep_cold},
                   {"serve_warm", run_serve_warm},
                   {"huge_n", run_huge_n}};
  const auto w = workloads.find(args.workload);
  if (w == workloads.end()) return usage("unknown workload");

  const std::string stamp = stamp_json(args);
  if (!args.setup_only) std::printf("host: %s\n", stamp.c_str());
  // An unoptimized build measures the compiler, not the code: refuse it
  // rather than print a number.
  if (!optimized_build()) {
    std::fprintf(stderr, "xpbench: built without optimization (%s); refusing "
                 "to report\n", XP_BENCH_BUILD_TYPE);
    return 3;
  }

  Report rep;
  SpanLogs logs;
  try {
    w->second(args, rep, logs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xpbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  if (args.setup_only) {
    std::printf("setup_s %.17g\n", rep.metrics.at(0).value);
    return 0;
  }
  if (!args.trace) {
    // The workload reported its own set-up first; fold in the children's.
    std::vector<double> setups = {rep.metrics.at(0).value};
    const std::vector<std::string> self(argv, argv + argc);
    for (int k = 1; k < kSetups; ++k) {
      const double s = child_setup_s(self);
      if (s < 0) {
        std::fprintf(stderr, "xpbench: set-up child failed\n");
        return 1;
      }
      setups.push_back(s);
    }
    std::sort(setups.begin(), setups.end());
    rep.metrics.at(0).value = setups[setups.size() / 2];
    char line[128];
    std::snprintf(line, sizeof line,
                  "setup_s: median of %d cold set-ups (%.4f .. %.4f s)",
                  kSetups, setups.front(), setups.back());
    rep.note(line);
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("pred_error_pct", prediction_error_pct(), "%");
    std::ofstream os(args.scratch + "/xpbench-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".samples.json");
    os << "{\"host\": " << stamp;
    for (const auto& [name, v] : rep.samples) {
      os << ", \"" << name << "\": [";
      for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << json_number(v[i]);
      os << "]";
    }
    os << "}\n";
  } else {
    // Every traced run prints the full per-layer set; a layer this
    // workload does not reach did no work in it, so it reads 0.
    std::map<std::string, Metric> got;
    for (const Metric& m : rep.metrics) got[m.name] = m;
    rep.metrics.clear();
    for (const LayerMetric& lm : layer_metrics()) {
      const auto it = got.find(lm.name);
      rep.add(lm.name, it == got.end() ? 0.0 : it->second.value, lm.unit);
    }
    std::vector<const SpanLog*> all;
    for (const auto& l : logs) all.push_back(l.get());
    const std::vector<SpanTotals> totals = span_totals(all);
    const std::string table = self_time_table(totals);
    const std::string base = args.scratch + "/xpbench-" + args.workload +
                             "-seed" + std::to_string(args.seed);
    const bool wrote = write_chrome_trace(base + ".trace.json", all, stamp);
    std::ofstream(base + ".selftime.txt") << "host: " << stamp << '\n'
                                          << table;
    std::fputs(table.c_str(), stdout);
    std::printf("chrome trace: %s%s\n", (base + ".trace.json").c_str(),
                wrote ? "" : " (write failed)");
  }

  for (const std::string& n : rep.notes) std::printf("%s\n", n.c_str());
  const double failed_frac =
      rep.attempted > 0 ? static_cast<double>(rep.failed) / rep.attempted : 1;
  std::printf("  %-30s %24s %s\n", "failed_frac", json_number(failed_frac).c_str(),
              "frac");
  for (const Metric& m : rep.metrics)
    std::printf("  %-30s %24s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
