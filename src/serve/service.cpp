#include "serve/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <sstream>
#include <utility>

#include "core/extrapolator.hpp"
#include "model/params_io.hpp"
#include "pattern/compose.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

namespace xp::serve {

namespace {

/// Queries per batch cap: a forged count must not drive task allocation.
constexpr std::uint32_t kMaxBatchQueries = 1u << 20;

/// Thread-count cap for bench-session measurements.  A bench session
/// measures its program with one fiber (256 KiB stack) per thread, so a
/// query's n_procs is a memory and CPU request: one measurement at 16384
/// threads takes seconds and about 1 GB, at 10^8 it would need terabytes.
/// 16384 is four times the largest count the benchmark's huge-n workload
/// drives (4096) and far above the paper's machines.  Trace sessions are
/// not capped: their thread count is that of the uploaded trace.
constexpr int kMaxBenchThreads = 16384;

void require_bench_threads(int n) {
  XP_REQUIRE(n <= kMaxBenchThreads,
             "bench sessions measure at most " +
                 std::to_string(kMaxBenchThreads) + " threads, not " +
                 std::to_string(n));
}

/// A query's target machine: its params text (empty = defaults), with a
/// positive `mips_ratio` overriding the processor's, validated for
/// `n_procs` processors.
model::SimParams query_params(const std::string& params_text,
                              double mips_ratio, int n_procs) {
  model::SimParams params = params_text.empty()
                                ? model::SimParams{}
                                : model::parse_params_string(params_text);
  if (mips_ratio > 0) params.proc.mips_ratio = mips_ratio;
  params.validate(n_procs);
  return params;
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

Service::Service(ServiceOptions opt)
    : opt_(std::move(opt)),
      pool_(std::make_unique<util::ThreadPool>(
          opt_.n_workers > 0 ? opt_.n_workers
                             : util::ThreadPool::default_workers())) {}

Service::~Service() = default;

void Service::set_shutdown_handler(std::function<void()> handler) {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = std::move(handler);
}

// --- sessions --------------------------------------------------------------

std::shared_ptr<Service::Source> Service::source_for(
    const std::string& fingerprint, const std::string& bench,
    const trace::Trace* measured) {
  // Creating a source (trace parse already done by the caller) is cheap,
  // so holding mu_ across it is fine.
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sources_.find(fingerprint);
  if (it != sources_.end()) return it->second;
  auto src = std::make_shared<Source>();
  if (measured) {
    src->measured = std::make_shared<const trace::Trace>(*measured);
    src->cache = std::make_unique<core::TranslateCache>(
        [m = src->measured](int) { return *m; });
  } else {
    src->bench = bench;
    src->cache = std::make_unique<core::TranslateCache>(core::measure_fresh(
        [bench, cfg = opt_.bench_config] {
          return suite::make_by_name(bench, cfg);
        }));
  }
  if (opt_.cache_budget_bytes > 0)
    src->cache->set_byte_budget(opt_.cache_budget_bytes);
  sources_[fingerprint] = src;
  return src;
}

std::uint64_t Service::register_session(std::shared_ptr<Source> src) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_session_++;
  sessions_.emplace(id, std::move(src));
  return id;
}

std::shared_ptr<Service::Source> Service::session_source(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::uint64_t Service::open_trace_session(const trace::Trace& measured) {
  XP_REQUIRE(measured.n_threads() >= 1, "trace session needs n_threads >= 1");
  std::ostringstream os;
  trace::write_binary(measured, os);
  return register_session(
      source_for("trace:" + fnv1a_hex(os.str()), "", &measured));
}

std::uint64_t Service::open_bench_session(const std::string& name) {
  // Resolve once up front so unknown names fail at session open, not at
  // first query.
  (void)suite::make_by_name(name, opt_.bench_config);
  return register_session(source_for("bench:" + name, name, nullptr));
}

void Service::close_session(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  XP_REQUIRE(it != sessions_.end(),
             "unknown session " + std::to_string(id));
  sessions_.erase(it);
}

// --- query execution -------------------------------------------------------

QueryResult Service::run_query_on(Source& src, const Query& q) {
  QueryResult res;
  queries_by_mode_[static_cast<std::size_t>(q.mode) %
                   std::size(queries_by_mode_)]
      .fetch_add(1);
  try {
    XP_REQUIRE(q.n_procs >= 1, "query needs n_procs >= 1");
    if (!src.measured) require_bench_threads(q.n_procs);
    const model::SimParams params =
        query_params(q.params_text, q.mips_ratio, q.n_procs);
    if (src.measured && src.measured->n_threads() != q.n_procs) {
      throw util::Error(
          "trace session holds a " +
          std::to_string(src.measured->n_threads()) +
          "-thread measurement; extrapolating to n_procs=" +
          std::to_string(q.n_procs) +
          " needs a measurement with that thread count (open a bench "
          "session to measure on demand)");
    }
    const auto prepared = src.cache->get_or_prepare(q.n_procs);

    // Hybrid and Auto are conservative-exact (tests hold every mode
    // bitwise-equal), so honoring the wire mode never changes a reply —
    // and QueryResult carries no engine-event count, so defaulting to
    // Auto is invisible to byte-comparing clients.  The served result
    // never returns the extrapolated trace, so skip emitting it; that
    // also unlocks the simulator's pre-summed segment shortcut.
    core::SimOptions sopts;
    sopts.emit_trace = false;
    // The sampling knob rides along verbatim; it only matters on the Auto
    // path, where 0 still means exact epoch dedup.  (The wire decoder has
    // already range-checked it to [0, 1].)
    sopts.epoch_tolerance = q.epoch_tolerance;
    switch (q.mode) {
      case QueryMode::EventDriven:
        sopts.mode = core::SimMode::EventDriven;
        break;
      case QueryMode::Hybrid:
        sopts.mode = core::SimMode::Hybrid;
        break;
      case QueryMode::Auto:
        sopts.mode = core::SimMode::Auto;
        break;
    }
    const double cpu0 = util::thread_cpu_seconds();
    const core::Prediction pred = core::predict(*prepared, params, sopts);
    simulate_cpu_s_.fetch_add(util::thread_cpu_seconds() - cpu0);

    res.ok = true;
    res.predicted_ns = pred.predicted_time.count_ns();
    res.ideal_ns = pred.ideal_time.count_ns();
    res.measured_ns = pred.measured_time.count_ns();
    res.messages = pred.sim.messages;
    res.bytes = pred.sim.bytes;
    res.compute_ns = pred.sim.total_compute().count_ns();
    res.comm_wait_ns = pred.sim.total_comm_wait().count_ns();
    res.barrier_wait_ns = pred.sim.total_barrier_wait().count_ns();
    const core::SamplingStats& sp = pred.sim.sampling;
    if (sp.active) {
      res.sampling_epochs = sp.epochs;
      res.sampling_classes = sp.classes;
      res.sampling_simulated = sp.epochs_simulated;
      res.sampling_error_bound_ns = sp.error_bound.count_ns();
      queries_sampled_.fetch_add(1);
      sampling_epochs_total_.fetch_add(
          static_cast<std::uint64_t>(sp.epochs));
      sampling_epochs_simulated_.fetch_add(
          static_cast<std::uint64_t>(sp.epochs_simulated));
    }
  } catch (const std::exception& e) {
    res = QueryResult{};
    res.error = e.what();
  }
  return res;
}

QueryResult Service::run_query(std::uint64_t session, const Query& q) {
  const auto src = session_source(session);
  if (!src) {
    QueryResult res;
    res.error = "unknown session " + std::to_string(session);
    return res;
  }
  QueryResult res = run_query_on(*src, q);
  (res.ok ? queries_ok_ : queries_err_).fetch_add(1);
  return res;
}

PatternModelResult Service::run_pattern_model_on(Source& src,
                                                 const PatternQuery& q) {
  PatternModelResult res;
  try {
    XP_REQUIRE(!src.measured,
               "pattern models need a bench session (the server measures "
               "the program at every fit count; a trace session holds one "
               "fixed measurement)");
    XP_REQUIRE(q.procs.size() >= 3,
               "pattern model needs >= 3 fit thread counts");
    for (std::size_t i = 0; i < q.procs.size(); ++i) {
      XP_REQUIRE(q.procs[i] >= 1, "pattern model thread counts must be >= 1");
      require_bench_threads(q.procs[i]);
      XP_REQUIRE(i == 0 || q.procs[i] > q.procs[i - 1],
                 "pattern model thread counts must be ascending and distinct");
    }
    const model::SimParams params =
        query_params(q.params_text, q.mips_ratio, q.procs.back());

    pattern::Experiment e;
    e.name = src.bench;
    try {
      e.labels = suite::pattern_labels(src.bench, opt_.bench_config);
    } catch (const util::Error&) {
      // Not a pattern bench: leave labels empty; extraction below reports
      // the real "no pattern regions" error after the first prediction.
    }
    for (const int n : q.procs) {
      const auto prepared = src.cache->get_or_prepare(n);

      // Unlike plain queries this verb NEEDS the extrapolated trace: the
      // composed model is extracted from its re-timestamped pattern
      // delimiters.
      core::SimOptions sopts;
      sopts.mode = core::SimMode::Auto;
      const double cpu0 = util::thread_cpu_seconds();
      const core::Prediction pred = core::predict(*prepared, params, sopts);
      simulate_cpu_s_.fetch_add(util::thread_cpu_seconds() - cpu0);

      e.procs.push_back(n);
      e.spans.push_back(pattern::extract_regions(pred.sim.extrapolated));
      e.totals.push_back(pred.predicted_time);
    }

    const pattern::ComposedModel cm = pattern::compose(e);
    res.ok = true;
    res.regions.reserve(cm.regions.size());
    for (const pattern::RegionModel& rm : cm.regions) {
      PatternRegionWire w;
      w.region = rm.region;
      w.kind = static_cast<std::int32_t>(rm.kind);
      w.detail = rm.detail;
      w.parent = rm.parent;
      w.depth = rm.depth;
      w.label = rm.label;
      w.model = rm.self_fit.model.str();
      res.regions.push_back(std::move(w));
    }
    res.residual_model = cm.residual_fit.model.str();
    res.eval_at.reserve(q.eval_at.size());
    for (const double n : q.eval_at) {
      const auto band = cm.band(n);
      res.eval_at.push_back(n);
      res.value.push_back(cm.eval(n));
      res.lo.push_back(band.lo);
      res.hi.push_back(band.hi);
    }
  } catch (const std::exception& ex) {
    res = PatternModelResult{};
    res.error = ex.what();
  }
  return res;
}

PatternModelResult Service::run_pattern_model(std::uint64_t session,
                                              const PatternQuery& q) {
  const auto src = session_source(session);
  if (!src) {
    PatternModelResult res;
    res.error = "unknown session " + std::to_string(session);
    queries_err_.fetch_add(1);
    return res;
  }
  PatternModelResult res = run_pattern_model_on(*src, q);
  (res.ok ? queries_ok_ : queries_err_).fetch_add(1);
  return res;
}

// --- protocol dispatch -----------------------------------------------------

std::string Service::dispatch(const Frame& frame) {
  switch (frame.type) {
    case MsgType::LoadTrace: {
      std::istringstream is(frame.body);
      const trace::Trace measured = trace::read_binary(is);
      // Fingerprint the wire bytes directly: the writer is deterministic,
      // so the direct API's re-serialization lands on the same key.
      auto src = source_for("trace:" + fnv1a_hex(frame.body), "", &measured);
      const int n_threads = src->measured->n_threads();
      const std::uint64_t id = register_session(std::move(src));
      WireWriter w;
      w.u64(id);
      w.i32(n_threads);
      return ok_reply_body(w.data());
    }
    case MsgType::OpenBench: {
      WireReader r(frame.body);
      const std::string name = r.str();
      r.expect_end();
      const std::uint64_t id = open_bench_session(name);
      WireWriter w;
      w.u64(id);
      w.i32(0);
      return ok_reply_body(w.data());
    }
    case MsgType::Stats: {
      WireReader r(frame.body);
      r.expect_end();
      WireWriter w;
      encode_stats(w, stats());
      return ok_reply_body(w.data());
    }
    case MsgType::CloseSession: {
      WireReader r(frame.body);
      const std::uint64_t id = r.u64();
      r.expect_end();
      close_session(id);
      return ok_reply_body();
    }
    case MsgType::Shutdown: {
      WireReader r(frame.body);
      r.expect_end();
      return ok_reply_body();
    }
    case MsgType::QueryBatch:
    case MsgType::PatternModel:
      break;  // handled by dispatch_batch / dispatch_pattern
  }
  throw ProtocolError("unexpected message type in dispatch");
}

void Service::dispatch_pattern(Frame frame, Completion done) {
  WireReader r(frame.body);
  const std::uint64_t session = r.u64();
  const PatternQuery q = decode_pattern_query(r);
  r.expect_end();

  const auto src = session_source(session);
  if (!src)
    throw util::Error("unknown session " + std::to_string(session));

  batches_.fetch_add(1);
  queue_depth_.fetch_add(1);
  // One pool task: a pattern model measures and simulates a whole sweep,
  // so it must not stall the dispatcher thread like cheap inline verbs.
  pool_->submit([this, src, q, request_id = frame.request_id,
                 done = std::move(done)] {
    PatternModelResult res = run_pattern_model_on(*src, q);
    (res.ok ? queries_ok_ : queries_err_).fetch_add(1);
    queue_depth_.fetch_sub(1);
    WireWriter w;
    encode_pattern_result(w, res);
    done(encode_frame(MsgType::PatternModel, true, request_id,
                      ok_reply_body(w.data())));
  });
}

void Service::dispatch_batch(Frame frame, Completion done) {
  WireReader r(frame.body);
  const std::uint64_t session = r.u64();
  const std::uint32_t raw_count = r.u32();
  // kBatchHasModes flags the versioned wire form (per-query mode byte);
  // kBatchHasSampling adds a per-query epoch-tolerance f64 and asks for
  // sampling attribution on the reply.  Flagless batches decode exactly
  // as before, with every mode Auto and tolerance 0.
  const bool has_modes = (raw_count & kBatchHasModes) != 0;
  const bool has_sampling = (raw_count & kBatchHasSampling) != 0;
  const std::uint32_t count =
      raw_count & ~(kBatchHasModes | kBatchHasSampling);
  if (count > kMaxBatchQueries)
    throw ProtocolError("batch of " + std::to_string(count) +
                        " queries exceeds the per-request cap");
  std::vector<Query> queries;
  queries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    queries.push_back(decode_query(r, has_modes, has_sampling));
  r.expect_end();

  const auto src = session_source(session);
  if (!src)
    throw util::Error("unknown session " + std::to_string(session));

  batches_.fetch_add(1);

  struct BatchState {
    std::shared_ptr<Source> src;
    std::vector<Query> queries;
    std::vector<QueryResult> results;
    std::atomic<std::size_t> remaining;
    Completion done;
    std::uint64_t request_id;
    bool has_sampling = false;
  };
  auto st = std::make_shared<BatchState>();
  st->src = src;
  st->queries = std::move(queries);
  st->results.resize(count);
  st->remaining.store(count);
  st->done = std::move(done);
  st->request_id = frame.request_id;
  st->has_sampling = has_sampling;

  // The reply ECHOES the sampling flag on its result count, so the client
  // decodes the extended results statelessly.
  const std::uint32_t reply_flags = has_sampling ? kBatchHasSampling : 0u;
  if (count == 0) {
    WireWriter w;
    w.u32(reply_flags);
    st->done(encode_frame(MsgType::QueryBatch, true, st->request_id,
                          ok_reply_body(w.data())));
    return;
  }

  queue_depth_.fetch_add(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    pool_->submit([this, st, i] {
      // Results land by BATCH INDEX; completion order never shows in the
      // reply, so a served batch is deterministic (tests hold it bitwise
      // equal to the in-process Extrapolator).
      st->results[i] = run_query_on(*st->src, st->queries[i]);
      (st->results[i].ok ? queries_ok_ : queries_err_).fetch_add(1);
      queue_depth_.fetch_sub(1);
      if (st->remaining.fetch_sub(1) == 1) {
        WireWriter w;
        w.u32(static_cast<std::uint32_t>(st->results.size()) |
              (st->has_sampling ? kBatchHasSampling : 0u));
        for (const QueryResult& res : st->results)
          encode_query_result(w, res, st->has_sampling);
        st->done(encode_frame(MsgType::QueryBatch, true, st->request_id,
                              ok_reply_body(w.data())));
      }
    });
  }
}

void Service::handle_async(std::string payload, Completion done) {
  requests_total_.fetch_add(1);
  MsgType type = MsgType::Stats;
  std::uint64_t request_id = 0;
  try {
    WireReader r(payload);
    const std::uint8_t t = r.u8();
    if (t & kReplyBit) throw ProtocolError("request has the reply bit set");
    if (t < static_cast<std::uint8_t>(MsgType::LoadTrace) ||
        t > static_cast<std::uint8_t>(MsgType::PatternModel))
      throw ProtocolError("unknown message type " + std::to_string(t));
    type = static_cast<MsgType>(t);
    request_id = r.u64();
    Frame frame;
    frame.type = type;
    frame.request_id = request_id;
    frame.body = std::string(r.rest());

    if (type == MsgType::QueryBatch) {
      // Pass a COPY of the completion: if batch decode throws, the catch
      // below must still hold a live callback to deliver the error reply
      // (a moved-from one is a bad_function_call).
      dispatch_batch(std::move(frame), done);
      return;
    }
    if (type == MsgType::PatternModel) {
      // Same copy-the-completion rule as batches: decode errors fall to
      // the catch below, which still needs a live callback.
      dispatch_pattern(std::move(frame), done);
      return;
    }
    const std::string body = dispatch(frame);
    done(encode_frame(type, true, request_id, body));
    if (type == MsgType::Shutdown) {
      std::function<void()> handler;
      {
        std::lock_guard<std::mutex> lock(mu_);
        handler = shutdown_;
      }
      if (handler) handler();
    }
  } catch (const std::exception& e) {
    done(encode_frame(type, true, request_id, error_reply_body(e.what())));
  }
}

std::string Service::handle(std::string payload) {
  std::mutex mu;
  std::condition_variable cv;
  std::string reply;
  bool ready = false;
  handle_async(std::move(payload), [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    reply = std::move(r);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  return reply;
}

// --- stats -----------------------------------------------------------------

void Service::record_connection(std::int64_t open_delta, bool is_new) {
  if (is_new) connections_total_.fetch_add(1);
  connections_open_.fetch_add(open_delta);
}

ServerStats Service::stats() const {
  ServerStats s;
  s.connections_total = connections_total_.load();
  s.connections_open =
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, connections_open_));
  s.requests_total = requests_total_.load();
  s.batches = batches_.load();
  s.queries_ok = queries_ok_.load();
  s.queries_err = queries_err_.load();
  s.queue_depth =
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, queue_depth_));
  s.simulate_cpu_s = simulate_cpu_s_.load();
  s.queries_auto =
      queries_by_mode_[static_cast<std::size_t>(QueryMode::Auto)].load();
  s.queries_event =
      queries_by_mode_[static_cast<std::size_t>(QueryMode::EventDriven)].load();
  s.queries_hybrid =
      queries_by_mode_[static_cast<std::size_t>(QueryMode::Hybrid)].load();
  s.queries_sampled = queries_sampled_.load();
  s.sampling_epochs_total = sampling_epochs_total_.load();
  s.sampling_epochs_simulated = sampling_epochs_simulated_.load();
  std::lock_guard<std::mutex> lock(mu_);
  s.sessions_open = sessions_.size();
  for (const auto& [fp, src] : sources_) {
    s.cache_entries += src->cache->size();
    s.cache_bytes += src->cache->bytes();
    s.cache_hits += src->cache->hits();
    s.cache_misses += src->cache->misses();
    s.cache_evictions += src->cache->evictions();
    s.measure_cpu_s += src->cache->measure_cpu_s();
    s.translate_cpu_s += src->cache->translate_cpu_s();
  }
  return s;
}

}  // namespace xp::serve
