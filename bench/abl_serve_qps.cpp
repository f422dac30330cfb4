// abl_serve_qps — load generator for the xp::serve what-if daemon.
//
// The serving claim (ISSUE: extrapolation-as-a-service): once a source's
// translate cache is warm, a served prediction is a protocol round-trip
// plus one deterministic simulation, so a single daemon sustains >= 1k
// queries/sec with single-digit-millisecond tails on commodity hardware.
//
// Methodology: an in-process Server on a Unix socket under mkdtemp(3),
// one session over the committed golden trace (tests/golden/grid_n4.xpt,
// the same fixture the byte-identity test uses).  Per client count:
//   * latency phase — unpipelined single queries, per-query wall samples
//     aggregated across clients into p50/p99;
//   * throughput phase — each client keeps a window of pipelined batches
//     in flight, QPS = total queries / wall.
// Every query asks for the same 4-processor extrapolation under a cycling
// MIPS ratio, so the phase also doubles as a determinism check: the same
// (ratio) query must return bitwise-identical results everywhere.
//
// Gates (exit code): every served prediction is bitwise-deterministic,
// none errors, and peak throughput clears 1000 QPS.  One JSON row per
// client count (section "serve") carries qps, p50_us and p99_us.
//
// Work rows: before the timed phases, the fixture's 4-processor query is
// simulated in-process the way the daemon runs it (Auto, no trace) under
// every preset at MIPS ratios 1 and 4.  One row each (section
// "serve_work") carries the engine events fired, the poll checks charged
// and the heap allocations made inside that core::predict (counted by the
// operator new below, per thread).  All three are exact counts, so host
// noise cannot move them: each engine_events and allocations is gated at
// <= its value in bench/work_golden.json, and a change that lowers one
// updates the table.
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "common.hpp"
#include "model/params_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/trace_io.hpp"
#include "util/thread_pool.hpp"

using namespace xp;

namespace {
/// Heap allocations made by this thread so far (operator new below).
thread_local std::int64_t t_allocations = 0;
}  // namespace

// Count every allocation through the replaceable global operator new; the
// aligned and nothrow forms are left to the library, which nothing on the
// simulate path uses.
void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }

namespace {
/// Every delete below frees through this one out-of-line call: inlined
/// into each operator, std::free on memory that gcc saw come from operator
/// new trips -Wmismatched-new-delete under -fsanitize=thread.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace {

constexpr double kMipsRatios[] = {1.0, 2.0, 4.0, 8.0};

serve::Query query_for(std::size_t i) {
  serve::Query q;
  q.n_procs = 4;  // grid_n4.xpt is a 4-thread measurement
  q.mips_ratio = kMipsRatios[i % (sizeof(kMipsRatios) / sizeof(*kMipsRatios))];
  q.params_text = "preset = distributed";
  return q;
}

/// The serve_work rows and their gates (see the header).
void work_rows(const trace::Trace& measured) {
  const core::TranslatedTrace prepared = core::prepare_trace(measured);
  std::cout << "\n-- work per query (grid_n4.xpt, 4 processors) --\n"
               "  preset        mips   engine_events      polls   "
               "allocations\n";
  for (const char* preset :
       {"ideal", "distributed", "shared", "cm5", "paragon", "sp1", "sgi"}) {
    for (const double mips : {1.0, 4.0}) {
      model::SimParams params = model::preset_by_name(preset);
      params.proc.mips_ratio = mips;
      core::SimOptions opts;
      opts.emit_trace = false;
      const std::int64_t allocs_before = t_allocations;
      const core::SimResult sim = core::predict(prepared, params, opts).sim;
      const std::int64_t allocations = t_allocations - allocs_before;
      std::int64_t polls = 0;
      for (const core::ThreadStats& t : sim.threads) polls += t.polls;
      const auto events = static_cast<std::int64_t>(sim.engine_events);
      const std::string key = std::string("serve_work_") + preset +
                              "_mips_" + std::to_string(int(mips));
      bench::hold_work(XP_WORK_GOLDEN, key, "engine_events", events);
      bench::hold_work(XP_WORK_GOLDEN, key, "allocations", allocations);
      std::printf("  %-12s %5.0f   %13lld   %8lld   %11lld\n", preset, mips,
                  static_cast<long long>(events),
                  static_cast<long long>(polls),
                  static_cast<long long>(allocations));
      bench::JsonRow("serve_work", key)
          .field("engine_events", events)
          .field("polls", polls)
          .field("allocations", allocations)
          .emit();
    }
  }
  std::cout << '\n';
  bench::gate_work();
}

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

}  // namespace

int main() {
  std::cout << "=== serve QPS: warm-cache what-if queries over a socket ===\n";
  const int hw = util::ThreadPool::default_workers();
  std::cout << "host hardware_concurrency: " << hw << "\n";

  char tmpdir[] = "/tmp/xp_serve_qps_XXXXXX";
  if (!mkdtemp(tmpdir)) {
    std::cerr << "error: mkdtemp failed\n";
    return 1;
  }
  const std::string sock = std::string(tmpdir) + "/qps.sock";

  int rc = 0;
  try {
    std::ifstream golden(XP_GOLDEN_DIR "/grid_n4.xpt");
    const trace::Trace measured = trace::read_text(golden);
    work_rows(measured);

    serve::ServerOptions opt;
    opt.unix_path = sock;
    serve::Server server(std::move(opt));
    server.start();

    // Warm the source's translate cache once so every timed phase measures
    // the steady serving state, and pin the expected result per ratio for
    // the determinism check.
    serve::Client warm = serve::Client::connect_unix(sock);
    const std::uint64_t session = warm.load_trace(measured);
    std::map<double, serve::QueryResult> expected;
    for (std::size_t i = 0; i < 4; ++i) {
      const serve::Query q = query_for(i);
      expected[q.mips_ratio] = warm.query(session, q);
    }

    std::cout << "\n  clients   batch        qps     p50_us     p99_us\n";
    bool deterministic = true;
    double max_qps = 0.0;
    const int batch = 16;
    for (const int clients : {1, 2, 4}) {
      if (clients > std::max(1, hw)) break;

      // Latency phase: unpipelined single queries.
      const int lat_queries = 200;
      std::vector<double> samples_us;
      std::mutex mu;
      {
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            serve::Client cl = serve::Client::connect_unix(sock);
            std::vector<double> local;
            local.reserve(lat_queries);
            for (int i = 0; i < lat_queries; ++i) {
              const serve::Query q = query_for(static_cast<std::size_t>(i + c));
              const auto t0 = std::chrono::steady_clock::now();
              const serve::QueryResult r = cl.query(session, q);
              local.push_back(
                  std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
              if (!r.ok || r != expected.at(q.mips_ratio)) {
                std::lock_guard<std::mutex> lk(mu);
                deterministic = false;
              }
            }
            std::lock_guard<std::mutex> lk(mu);
            samples_us.insert(samples_us.end(), local.begin(), local.end());
          });
        }
        for (auto& t : threads) t.join();
      }
      std::sort(samples_us.begin(), samples_us.end());
      const double p50 = percentile(samples_us, 0.50);
      const double p99 = percentile(samples_us, 0.99);

      // Throughput phase: a window of pipelined batches per client.
      const int batches_per_client = 128;
      const int window = 8;
      const auto t0 = std::chrono::steady_clock::now();
      {
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            serve::Client cl = serve::Client::connect_unix(sock);
            std::vector<serve::Query> qs;
            for (int i = 0; i < batch; ++i)
              qs.push_back(query_for(static_cast<std::size_t>(i + c)));
            std::deque<serve::Client::Ticket> inflight;
            for (int b = 0; b < batches_per_client; ++b) {
              inflight.push_back(cl.submit_batch(session, qs));
              if (inflight.size() < static_cast<std::size_t>(window)) continue;
              const auto results = cl.wait_batch(inflight.front());
              inflight.pop_front();
              for (std::size_t i = 0; i < results.size(); ++i) {
                if (results[i] != expected.at(qs[i].mips_ratio)) {
                  std::lock_guard<std::mutex> lk(mu);
                  deterministic = false;
                }
              }
            }
            while (!inflight.empty()) {
              cl.wait_batch(inflight.front());
              inflight.pop_front();
            }
          });
        }
        for (auto& t : threads) t.join();
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double qps =
          static_cast<double>(clients) * batches_per_client * batch / wall;
      max_qps = std::max(max_qps, qps);
      std::printf("  %7d   %5d   %8.1f   %8.1f   %8.1f\n", clients, batch,
                  qps, p50, p99);
      bench::JsonRow("serve", "serve_qps_clients_" + std::to_string(clients))
          .field("batch", batch)
          .field("qps", qps)
          .field("p50_us", p50)
          .field("p99_us", p99)
          .emit();
    }

    const serve::ServerStats stats = warm.stats();
    std::cout << "\nserver counters: " << stats.queries_ok << " queries ok, "
              << stats.queries_err << " failed, " << stats.cache_hits
              << " cache hits / " << stats.cache_misses << " misses\n\n";

    bench::gate(
        "every served prediction matched the warm-up result bitwise "
        "(deterministic serving)",
        deterministic);
    bench::gate("no served query returned an error", stats.queries_err == 0);
    char claim[96];
    std::snprintf(claim, sizeof claim,
                  "warm-cache serving clears 1000 queries/sec (peak %.0f)",
                  max_qps);
    bench::gate(claim, max_qps >= 1000.0);

    warm.shutdown_server();
    server.join();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    rc = 1;
  }
  unlink(sock.c_str());
  rmdir(tmpdir);
  return rc != 0 ? rc : bench::exit_code();
}
