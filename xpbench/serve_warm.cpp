// serve_warm — warm what-if serving through xp::serve.
//
// An in-process serve::Server on a Unix socket with 2 query workers holds
// bench sessions for the 7 Table-2 codes; set-up warms their translate
// caches for n in {4,16,32} and computes every reply in-process with
// Service::run_query.  Load is a closed loop of 2 client connections, each
// sending a QUERY_BATCH of 8 queries (one code and one n x 4 presets x
// MIPS {1,4}, the grid shape whatif_client sends) and waiting for the
// reply.  Every query hits the cache, so measurement does no work; time
// goes to event-path simulation plus parsing, wire and socket work.
//
// The traced run times, per batch and from outside the library: request
// encoding, the socket round trip, Service::handle in-process on the same
// payload, reply decoding, parse_params_string on each query's params
// text, and core::predict on the bench's own prepared traces with the
// options the service uses.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.hpp"
#include "model/params_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite/suite.hpp"

namespace xpbench {

namespace {

constexpr int kClients = 2;
constexpr int kQueryWorkers = 2;
/// Latency tail: a run holds about a thousand batches, so p95 keeps well
/// over ten samples beyond it; p99 would sit at the edge and switch
/// meaning with the host's speed.
constexpr double kTailPct = 95;
/// Throughput is the interquartile mean of per-window rates, so a burst of
/// load from outside the benchmark moves few windows instead of the whole
/// mean.  A
/// batch's queries count towards each window in proportion to the part of
/// the batch's round trip that falls into it.
constexpr double kWindowS = 1.0;

struct Mix {
  std::vector<std::string> codes;
  std::vector<int> ns;
  std::vector<std::string> presets = {"distributed", "cm5", "paragon", "sp1"};
  std::vector<double> mips = {1.0, 4.0};
  xp::suite::SuiteConfig cfg;

  std::size_t batches() const { return codes.size() * ns.size(); }
  const std::string& code_of(std::size_t b) const {
    return codes[b / ns.size()];
  }
  int n_of(std::size_t b) const { return ns[b % ns.size()]; }

  std::vector<xp::serve::Query> batch(std::size_t b) const {
    std::vector<xp::serve::Query> qs;
    for (const std::string& p : presets) {
      for (const double m : mips) {
        xp::serve::Query q;
        q.n_procs = n_of(b);
        q.mips_ratio = m;
        q.params_text = "preset = " + p;
        qs.push_back(q);
      }
    }
    return qs;
  }
};

Mix make_mix(bool tiny) {
  Mix m;
  m.codes = xp::suite::benchmark_names();
  m.ns = tiny ? std::vector<int>{2, 4} : std::vector<int>{4, 16, 32};
  if (tiny) m.cfg = trimmed_suite_config();
  return m;
}

/// The QUERY_BATCH request payload (type | request id | body) exactly as
/// serve::Client writes it for all-default queries.
std::string batch_payload(std::uint64_t session,
                          const std::vector<xp::serve::Query>& qs) {
  xp::serve::WireWriter w;
  w.u64(session);
  w.u32(static_cast<std::uint32_t>(qs.size()));
  for (const xp::serve::Query& q : qs) xp::serve::encode_query(w, q);
  return xp::serve::encode_frame(xp::serve::MsgType::QueryBatch, false, 1,
                                 w.data())
      .substr(4);  // drop the length prefix: Service::handle takes payloads
}

/// Results of a QUERY_BATCH reply frame; throws on an error reply.
std::vector<xp::serve::QueryResult> decode_batch_reply(
    const std::string& frame_bytes) {
  const auto parsed = xp::serve::try_parse_frame(frame_bytes);
  XP_REQUIRE(parsed.has_value(), "incomplete reply frame");
  const std::string& body = parsed->first.body;
  xp::serve::WireReader r(body);
  XP_REQUIRE(r.u8() == 0, "error reply");
  const std::uint32_t count = r.u32() & ~xp::serve::kBatchHasSampling;
  std::vector<xp::serve::QueryResult> out;
  for (std::uint32_t i = 0; i < count; ++i)
    out.push_back(xp::serve::decode_query_result(r));
  r.expect_end();
  return out;
}

/// What one client thread did in the timed phase.
struct ClientOut {
  std::vector<double> batch_ms;
  /// Each batch's round trip, seconds into the phase.
  std::vector<std::pair<double, double>> trip_s;
  std::int64_t queries = 0;
  std::int64_t failed = 0;
  // Traced runs only: engine events of the traced replays, and the whole
  // loop iteration's time per batch with spans off and on (tracing
  // overhead).
  std::int64_t engine_events = 0;
  std::int64_t traced_batches = 0;
  /// Per traced batch: socket round trip minus in-process handling.
  std::vector<double> socket_extra_ms;
  double plain_loop_s = 0;
  double traced_loop_s = 0;
};

}  // namespace

void run_serve_warm(const Args& args, Report& out, SpanLogs& logs) {
  const Mix mix = make_mix(args.tiny);
  xp::serve::ServerOptions so;
  so.unix_path =
      args.scratch + "/xpbench-" + std::to_string(getpid()) + ".sock";
  so.service.n_workers = kQueryWorkers;
  so.service.bench_config = mix.cfg;
  xp::serve::Server server(std::move(so));
  server.start();
  xp::serve::Service& service = server.service();

  // Set-up: sessions, cache warm-up and the in-process expected replies.
  xp::serve::Client admin =
      xp::serve::Client::connect_unix(server.unix_path());
  std::map<std::string, std::uint64_t> session;
  for (const std::string& code : mix.codes)
    session[code] = admin.open_bench(code);
  std::vector<std::vector<xp::serve::Query>> batches(mix.batches());
  std::vector<std::vector<xp::serve::QueryResult>> expected(mix.batches());
  for (std::size_t b = 0; b < mix.batches(); ++b) {
    batches[b] = mix.batch(b);
    for (const xp::serve::Query& q : batches[b])
      expected[b].push_back(service.run_query(session[mix.code_of(b)], q));
  }
  for (std::size_t b = 0; b < mix.batches(); ++b) {
    for (const xp::serve::QueryResult& r : expected[b])
      XP_REQUIRE(r.ok, "set-up query failed: " + r.error);
  }

  // The traced run replays each batch's simulations on its own prepared
  // traces, so it measures and prepares the mix once more here.
  std::vector<std::shared_ptr<const xp::core::TranslatedTrace>> prepared;
  if (args.trace) {
    std::map<std::pair<std::string, int>,
             std::shared_ptr<const xp::core::TranslatedTrace>>
        by_key;
    for (std::size_t b = 0; b < mix.batches(); ++b) {
      auto& slot = by_key[{mix.code_of(b), mix.n_of(b)}];
      if (!slot) {
        auto prog = xp::suite::make_by_name(mix.code_of(b), mix.cfg);
        xp::rt::MeasureOptions mo;
        mo.n_threads = mix.n_of(b);
        slot = std::make_shared<const xp::core::TranslatedTrace>(
            xp::core::prepare_trace(xp::rt::measure(*prog, mo)));
      }
      prepared.push_back(slot);
    }
  }

  const auto start = Clock::now();
  out.add("setup_s", secs(args.process_start, start), "s");
  if (args.setup_only) {
    admin.shutdown_server();
    server.join();
    return;
  }

  // One closed-loop client.  With a `log` (traced runs) the client also
  // replays each batch through the layers one by one, turning spans on for
  // every other batch; `until` ends the loop.
  const auto client_loop = [&](int c, Clock::time_point from,
                               Clock::time_point until, SpanLog* log,
                               ClientOut& co) {
    xp::serve::Client cl =
        xp::serve::Client::connect_unix(server.unix_path());
    Shuffler sh(args.seed * kClients + static_cast<std::uint64_t>(c));
    const std::vector<std::size_t> order = sh.permutation(mix.batches());
    for (std::size_t k = 0; Clock::now() < until; ++k) {
      const std::size_t b = order[k % order.size()];
      const std::uint64_t sid = session.at(mix.code_of(b));
      const std::vector<xp::serve::Query>& qs = batches[b];
      if (log) log->set_on(k % 2 == 1);
      const auto loop0 = Clock::now();
      Scoped batch_span(log, "xpbench.batch");
      std::vector<xp::serve::QueryResult> got;
      const auto t0 = Clock::now();
      try {
        Scoped sp(log, "serve.socket_roundtrip");
        got = cl.query_batch(sid, qs);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "batch failed: %s\n", e.what());
      }
      const auto t1 = Clock::now();
      co.batch_ms.push_back(secs(t0, t1) * 1e3);
      co.trip_s.emplace_back(secs(from, t0), secs(from, t1));
      co.queries += static_cast<std::int64_t>(qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i)
        if (i >= got.size() || got[i] != expected[b][i]) ++co.failed;

      if (!log) continue;
      // Traced extras, each checked against the same expected replies.
      std::string payload;
      {
        Scoped sp(log, "serve.encode");
        payload = batch_payload(sid, qs);
      }
      std::string reply;
      {
        const auto h0 = Clock::now();
        Scoped sp(log, "serve.service");
        reply = service.handle(payload);
        if (log->on())
          co.socket_extra_ms.push_back(co.batch_ms.back() -
                                       secs(h0, Clock::now()) * 1e3);
      }
      std::vector<xp::serve::QueryResult> local;
      try {
        Scoped sp(log, "serve.decode");
        local = decode_batch_reply(reply);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "in-process batch failed: %s\n", e.what());
      }
      co.queries += static_cast<std::int64_t>(qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i)
        if (i >= local.size() || local[i] != expected[b][i]) ++co.failed;
      std::vector<xp::model::SimParams> params;
      {
        Scoped sp(log, "model.parse_params");
        for (const xp::serve::Query& q : qs)
          params.push_back(xp::model::parse_params_string(q.params_text));
      }
      xp::core::SimOptions sopts;  // as Service::run_query_on sets them
      sopts.mode = xp::core::SimMode::Auto;
      sopts.emit_trace = false;
      for (std::size_t i = 0; i < qs.size(); ++i) {
        params[i].proc.mips_ratio = qs[i].mips_ratio;
        xp::core::Prediction p;
        {
          Scoped sp(log, "core.simulate_event");
          p = xp::core::predict(*prepared[b], params[i], sopts);
        }
        co.queries += 1;
        if (log->on())
          co.engine_events += static_cast<std::int64_t>(p.sim.engine_events);
        if (p.predicted_time.count_ns() != expected[b][i].predicted_ns ||
            p.sim.messages != expected[b][i].messages)
          ++co.failed;
      }
      if (log->on()) {
        ++co.traced_batches;
        co.traced_loop_s += secs(loop0, Clock::now());
      } else {
        co.plain_loop_s += secs(loop0, Clock::now());
      }
    }
  };

  // Runs the clients for `seconds`; returns the phase's wall time.  In a
  // traced run every client gets a span log.
  const auto run_clients = [&](double seconds, std::vector<ClientOut>& outs) {
    outs.assign(kClients, {});
    std::vector<SpanLog*> client_logs(kClients, nullptr);
    if (args.trace) {
      for (int c = 0; c < kClients; ++c) {
        logs.push_back(std::make_unique<SpanLog>(c, start, false));
        client_logs[c] = logs.back().get();
      }
    }
    const auto t0 = Clock::now();
    const auto until =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        try {
          client_loop(c, t0, until, client_logs[c], outs[c]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client %d failed: %s\n", c, e.what());
          outs[c].failed += 1;
          outs[c].queries += 1;
        }
      });
    for (std::thread& t : threads) t.join();
    return secs(t0, Clock::now());
  };

  char line[256];
  std::vector<ClientOut> outs;
  if (!args.trace) {
    const double wall = run_clients(args.seconds, outs);
    std::vector<double> ms;
    const double per_batch = static_cast<double>(batches[0].size());
    // Queries completed per whole window of the phase.
    std::vector<double> window_q(
        std::max<std::size_t>(1, static_cast<std::size_t>(wall / kWindowS)),
        0.0);
    for (const ClientOut& co : outs) {
      ms.insert(ms.end(), co.batch_ms.begin(), co.batch_ms.end());
      for (const auto& [t0, t1] : co.trip_s) {
        for (std::size_t w = static_cast<std::size_t>(t0 / kWindowS);
             w < window_q.size() && w * kWindowS < t1; ++w) {
          const double overlap = std::min(t1, (w + 1) * kWindowS) -
                                 std::max(t0, w * kWindowS);
          window_q[w] += per_batch * overlap / std::max(t1 - t0, 1e-9);
        }
      }
      out.attempted += co.queries;
      out.failed += co.failed;
    }
    out.samples["ops_per_window"] = window_q;
    out.samples["op_ms"] = ms;
    out.add("ops_per_s", interquartile_mean(window_q) / kWindowS, "1/s");
    out.add("op_iqm_ms", interquartile_mean(ms), "ms");
    out.add("op_tail_ms", percentile(ms, kTailPct), "ms");
    std::snprintf(line, sizeof line,
                  "serve_warm: %d clients, %zu batches of 8 in %.2f s (%.1f "
                  "queries/s overall); ops = queries, latency = one batch "
                  "(tail = p%g)",
                  kClients, ms.size(), wall,
                  static_cast<double>(ms.size()) * per_batch / wall, kTailPct);
    out.note(line);
  } else {
    const xp::serve::ServerStats s0 = admin.stats();
    const double wall = run_clients(args.seconds, outs);
    const xp::serve::ServerStats s1 = admin.stats();
    std::size_t all_batches = 0, traced_batches = 0, plain_batches = 0;
    double engine_events = 0, plain_s = 0, traced_s = 0;
    std::vector<double> socket_extra_ms;
    for (const ClientOut& co : outs) {
      socket_extra_ms.insert(socket_extra_ms.end(), co.socket_extra_ms.begin(),
                             co.socket_extra_ms.end());
      all_batches += co.batch_ms.size();
      traced_batches += static_cast<std::size_t>(co.traced_batches);
      engine_events += static_cast<double>(co.engine_events);
      plain_s += co.plain_loop_s;
      traced_s += co.traced_loop_s;
      out.attempted += co.queries;
      out.failed += co.failed;
    }
    plain_batches = all_batches - traced_batches;
    std::vector<const SpanLog*> all_logs;
    for (const auto& l : logs) all_logs.push_back(l.get());
    const std::vector<SpanTotals> tot = span_totals(all_logs);
    const double nb = static_cast<double>(traced_batches);
    const double sim_s = span_total_s(tot, "core.simulate_event");
    const double service_s = span_total_s(tot, "serve.service");
    out.add("core.simulate_event_s", sim_s / nb, "s/pass");
    out.add("sim.engine_events", engine_events / nb, "count/pass");
    out.add("sim.ns_per_event", sim_s * 1e9 / engine_events, "ns/event");
    out.add("core.cache_hits",
            static_cast<double>(s1.cache_hits - s0.cache_hits) / all_batches,
            "count/pass");
    out.add("core.cache_misses",
            static_cast<double>(s1.cache_misses - s0.cache_misses) /
                all_batches,
            "count/pass");
    out.add("util.pool_busy_frac",
            (s1.simulate_cpu_s - s0.simulate_cpu_s) /
                (wall * kQueryWorkers),
            "frac");
    out.add("model.parse_params_us",
            span_total_s(tot, "model.parse_params") * 1e6 /
                (nb * static_cast<double>(batches[0].size())),
            "us/query");
    out.add("serve.encode_us", span_total_s(tot, "serve.encode") * 1e6 / nb,
            "us/pass");
    out.add("serve.decode_us", span_total_s(tot, "serve.decode") * 1e6 / nb,
            "us/pass");
    out.add("serve.service_ms", service_s * 1e3 / nb, "ms/pass");
    // The other client's batches load the pool differently during the two
    // calls, so the per-batch difference is noisy; its median is not.
    out.add("serve.socket_ms", percentile(socket_extra_ms, 50), "ms/pass");
    const double plain_ms = plain_s * 1e3 / plain_batches;
    const double traced_ms = traced_s * 1e3 / nb;
    out.add("xpbench.tracing_overhead_pct",
            100.0 * (traced_ms / plain_ms - 1.0), "%");
    std::snprintf(line, sizeof line,
                  "serve_warm traced: %zu untraced / %zu traced batches, "
                  "%.3f ms vs %.3f ms of client loop per batch",
                  plain_batches, traced_batches, plain_ms, traced_ms);
    out.note(line);
  }
  admin.shutdown_server();
  server.join();
}

}  // namespace xpbench
