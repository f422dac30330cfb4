// xp::serve coverage: the wire protocol, the socket-free Service core, and
// a real Server + Client conversation over a Unix socket.
//
// The load-bearing contract is the last test block: a prediction served
// through the daemon — encode, socket, batch fan-out over the pool, reply
// in request order, decode — must be BITWISE identical to running
// core::Extrapolator in-process on the same golden trace and parameters.
// The simulator's integer-nanosecond virtual clock makes that a strict
// equality, not a tolerance check.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "core/extrapolator.hpp"
#include "model/params_io.hpp"
#include "rt/runtime.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"

namespace xp::serve {
namespace {

trace::Trace load_golden() {
  std::ifstream in(XP_GOLDEN_DIR "/grid_n4.xpt");
  return trace::read_text(in);
}

std::string unique_socket(const std::string& tag) {
  return ::testing::TempDir() + "serve_" + tag + "_" +
         std::to_string(getpid()) + ".sock";
}

Query distributed_query(int n_procs, double mips = 0.0) {
  Query q;
  q.n_procs = n_procs;
  q.mips_ratio = mips;
  q.params_text = "preset = distributed";
  return q;
}

/// Small pattern workloads so pattern-model sweeps stay fast in tests.
ServiceOptions pattern_service_options() {
  ServiceOptions opt;
  opt.bench_config.pipe_stages = 6;
  opt.bench_config.pipe_items = 24;
  opt.bench_config.pat_items = 1 << 10;
  opt.bench_config.pat_tasks = 32;
  return opt;
}

PatternQuery distributed_pattern_query() {
  PatternQuery q;
  q.procs = {1, 2, 4, 6};
  q.params_text = "preset = distributed";
  q.eval_at = {8.0, 16.0};
  return q;
}

/// A raw Unix-socket connection for hand-encoded frames, as an old or
/// foreign client would send them.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConnection() {
    if (fd_ >= 0) close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  /// Send one frame and read the next reply frame into `reply`.
  void exchange(const std::string& frame_bytes, Frame& reply) {
    ASSERT_GT(send(fd_, frame_bytes.data(), frame_bytes.size(), MSG_NOSIGNAL),
              0);
    char buf[1 << 12];
    for (;;) {
      if (auto parsed = try_parse_frame(rbuf_)) {
        rbuf_.erase(0, parsed->second);
        reply = std::move(parsed->first);
        return;
      }
      const ssize_t n = read(fd_, buf, sizeof buf);
      ASSERT_GT(n, 0) << "server closed the connection";
      rbuf_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string rbuf_;
};

// --- protocol --------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip) {
  const std::string body = "hello\x00world";
  const std::string bytes = encode_frame(MsgType::QueryBatch, true, 42, body);
  const auto parsed = try_parse_frame(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->second, bytes.size());
  EXPECT_EQ(parsed->first.type, MsgType::QueryBatch);
  EXPECT_TRUE(parsed->first.is_reply);
  EXPECT_EQ(parsed->first.request_id, 42u);
  EXPECT_EQ(parsed->first.body, body);
}

TEST(ServeProtocol, PartialFrameIsIncomplete) {
  const std::string bytes = encode_frame(MsgType::Stats, false, 7, "x");
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_FALSE(try_parse_frame(bytes.substr(0, n)).has_value())
        << "prefix of " << n << " bytes parsed as a frame";
}

TEST(ServeProtocol, MalformedFramesThrow) {
  // Forged length below the type+id header.
  EXPECT_THROW(try_parse_frame(std::string("\x01\x00\x00\x00zzzzzzzzzzzz", 16)),
               ProtocolError);
  // Forged length above the 64 MiB cap.
  EXPECT_THROW(try_parse_frame(std::string("\xff\xff\xff\xffzzzzzzzzzzzz", 16)),
               ProtocolError);
  // Unknown message type.
  std::string bad = encode_frame(MsgType::LoadTrace, false, 1, "");
  bad[4] = 0x33;
  EXPECT_THROW(try_parse_frame(bad), ProtocolError);
}

TEST(ServeProtocol, QueryAndResultRoundTrip) {
  Query q = distributed_query(8, 2.5);
  WireWriter w;
  encode_query(w, q);
  {
    WireReader r(w.data());
    EXPECT_EQ(decode_query(r), q);
    EXPECT_NO_THROW(r.expect_end());
  }

  QueryResult res;
  res.ok = true;
  res.predicted_ns = 123456789;
  res.ideal_ns = 1;
  res.measured_ns = -7;  // field transport is value-faithful, sign included
  res.messages = 42;
  res.bytes = 4096;
  res.compute_ns = 99;
  res.comm_wait_ns = 3;
  res.barrier_wait_ns = 2;
  WireWriter w2;
  encode_query_result(w2, res);
  {
    WireReader r(w2.data());
    EXPECT_EQ(decode_query_result(r), res);
  }

  QueryResult err;
  err.error = "boom";
  WireWriter w3;
  encode_query_result(w3, err);
  {
    WireReader r(w3.data());
    EXPECT_EQ(decode_query_result(r), err);
  }
}

TEST(ServeProtocol, QueryModeWireForms) {
  Query q = distributed_query(8, 2.5);
  q.mode = QueryMode::EventDriven;

  // The flagged form carries the mode byte and round-trips it.
  WireWriter w;
  encode_query(w, q, /*with_mode=*/true);
  {
    WireReader r(w.data());
    EXPECT_EQ(decode_query(r, /*with_mode=*/true), q);
    EXPECT_NO_THROW(r.expect_end());
  }

  // The flagless (pre-mode) form neither writes nor reads the byte: the
  // decoded query falls back to Auto.
  WireWriter w2;
  encode_query(w2, q);
  {
    WireReader r(w2.data());
    Query out = decode_query(r);
    EXPECT_NO_THROW(r.expect_end());
    EXPECT_EQ(out.mode, QueryMode::Auto);
    out.mode = q.mode;
    EXPECT_EQ(out, q);
  }

  // Mode byte 2 named a retired mode; it still decodes, as Auto.
  WireWriter w4;
  encode_query(w4, q);
  w4.u8(2);
  {
    WireReader r(w4.data());
    Query out = decode_query(r, /*with_mode=*/true);
    EXPECT_NO_THROW(r.expect_end());
    EXPECT_EQ(out.mode, QueryMode::Auto);
  }

  // Mode bytes 3 and above are rejected at decode.
  for (const int bad : {3, 7, 255}) {
    WireWriter w3;
    encode_query(w3, q);
    w3.u8(static_cast<std::uint8_t>(bad));
    WireReader r(w3.data());
    EXPECT_THROW(decode_query(r, /*with_mode=*/true), ProtocolError)
        << "mode byte " << bad;
  }
}

TEST(ServeProtocol, StatsDecodeToleratesPreModeReplies) {
  ServerStats s;
  s.requests_total = 5;
  s.queries_ok = 4;
  s.simulate_cpu_s = 0.25;
  s.queries_auto = 2;
  s.queries_event = 1;
  s.queries_sampled = 2;
  s.sampling_epochs_total = 2002;
  s.sampling_epochs_simulated = 6;
  WireWriter w;
  encode_stats(w, s);
  {
    WireReader r(w.data());
    EXPECT_EQ(decode_stats(r), s);
    EXPECT_NO_THROW(r.expect_end());
  }

  // The layout is unchanged since the sampling counters were appended:
  // 16 base fields, 3 per-mode slots (the third retired, written as zero)
  // and 3 sampling counters.
  constexpr std::size_t kRetiredSlot = 18 * 8;
  ASSERT_EQ(w.data().size(), 22u * 8);
  EXPECT_EQ(w.data().substr(kRetiredSlot, 8), std::string(8, '\0'));
  // A reply from a server that still counted the retired mode carries a
  // nonzero value there; the decoder skips it and reads on.
  std::string legacy = w.data();
  legacy[kRetiredSlot] = 5;
  {
    WireReader r(legacy);
    EXPECT_EQ(decode_stats(r), s);
    EXPECT_NO_THROW(r.expect_end());
  }

  // A reply from a server that predates the sampling counters is 24 bytes
  // shorter; the decoder must zero-fill that block instead of throwing.
  const std::string pre_sampling =
      w.data().substr(0, w.data().size() - 3 * 8);
  ServerStats expect_pre_sampling = s;
  expect_pre_sampling.queries_sampled = 0;
  expect_pre_sampling.sampling_epochs_total = 0;
  expect_pre_sampling.sampling_epochs_simulated = 0;
  WireReader r2(pre_sampling);
  EXPECT_EQ(decode_stats(r2), expect_pre_sampling);
  EXPECT_NO_THROW(r2.expect_end());

  // One generation further back (pre-mode counters): both appended blocks
  // zero-fill.
  const std::string pre_modes = w.data().substr(0, w.data().size() - 6 * 8);
  ServerStats expect_pre_modes = expect_pre_sampling;
  expect_pre_modes.queries_auto = 0;
  expect_pre_modes.queries_event = 0;
  WireReader r3(pre_modes);
  EXPECT_EQ(decode_stats(r3), expect_pre_modes);
  EXPECT_NO_THROW(r3.expect_end());
}

TEST(ServeProtocol, PatternQueryAndResultRoundTrip) {
  PatternQuery q = distributed_pattern_query();
  q.mips_ratio = 2.5;
  WireWriter w;
  encode_pattern_query(w, q);
  {
    WireReader r(w.data());
    EXPECT_EQ(decode_pattern_query(r), q);
    EXPECT_NO_THROW(r.expect_end());
  }

  PatternModelResult res;
  res.ok = true;
  res.regions.push_back({1, 3, 0, 0, 0, "seq:pipestencil", "12 + 3*n"});
  res.regions.push_back({2, 0, 6, 1, 1, "pipeline:sweep", "7*n^0.5"});
  res.residual_model = "0.25";
  res.eval_at = {8.0, 16.0};
  res.value = {123.5, 99.25};
  res.lo = {120.0, 95.0};
  res.hi = {130.0, 104.0};
  WireWriter w2;
  encode_pattern_result(w2, res);
  {
    WireReader r(w2.data());
    EXPECT_EQ(decode_pattern_result(r), res);
    EXPECT_NO_THROW(r.expect_end());
  }

  PatternModelResult err;
  err.error = "boom";
  WireWriter w3;
  encode_pattern_result(w3, err);
  {
    WireReader r(w3.data());
    EXPECT_EQ(decode_pattern_result(r), err);
  }

  // Every truncation of either body throws instead of misparsing.
  for (std::size_t n = 0; n < w.data().size(); ++n) {
    WireReader r(std::string_view(w.data()).substr(0, n));
    EXPECT_THROW(
        {
          (void)decode_pattern_query(r);
          r.expect_end();
        },
        ProtocolError);
  }
  for (std::size_t n = 0; n < w2.data().size(); ++n) {
    WireReader r(std::string_view(w2.data()).substr(0, n));
    EXPECT_THROW(
        {
          (void)decode_pattern_result(r);
          r.expect_end();
        },
        ProtocolError);
  }
}

TEST(ServeProtocol, TruncatedBodyThrows) {
  Query q = distributed_query(4);
  WireWriter w;
  encode_query(w, q);
  const std::string bytes(w.data());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    WireReader r(std::string_view(bytes).substr(0, n));
    EXPECT_THROW(
        {
          Query out = decode_query(r);
          r.expect_end();
          (void)out;
        },
        ProtocolError);
  }
}

// --- service (socket-free) -------------------------------------------------

TEST(ServeService, TraceSessionAnswersQueries) {
  Service svc;
  const auto session = svc.open_trace_session(load_golden());
  const QueryResult r = svc.run_query(session, distributed_query(4));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.predicted_ns, 0);
  EXPECT_GE(r.predicted_ns, r.ideal_ns);
}

TEST(ServeService, UnknownSessionAndBadQueriesReportErrors) {
  Service svc;
  EXPECT_FALSE(svc.run_query(999, distributed_query(4)).ok);

  const auto session = svc.open_trace_session(load_golden());
  // The golden trace is a 4-thread measurement; 8 procs cannot be served.
  const QueryResult wrong_n = svc.run_query(session, distributed_query(8));
  EXPECT_FALSE(wrong_n.ok);
  EXPECT_NE(wrong_n.error.find("4-thread"), std::string::npos);

  Query bad_params = distributed_query(4);
  bad_params.params_text = "preset = no_such_preset";
  EXPECT_FALSE(svc.run_query(session, bad_params).ok);

  svc.close_session(session);
  EXPECT_FALSE(svc.run_query(session, distributed_query(4)).ok);
}

TEST(ServeService, UnknownBenchFailsAtOpen) {
  Service svc;
  EXPECT_THROW(svc.open_bench_session("no_such_program"), std::exception);
}

TEST(ServeService, BatchedQueriesAreDeterministicAndInOrder) {
  Service svc;
  const auto session = svc.open_trace_session(load_golden());

  // One batch through the full protocol path (pool fan-out, reply
  // serialized by batch index), twice — bitwise-identical replies.
  WireWriter w;
  w.u64(session);
  w.u32(4);
  for (double mips : {1.0, 2.0, 4.0, 8.0})
    encode_query(w, distributed_query(4, mips));
  const std::string req =
      encode_frame(MsgType::QueryBatch, false, 5, w.data());

  const std::string reply1 = svc.handle(req.substr(4));
  const std::string reply2 = svc.handle(req.substr(4));
  EXPECT_EQ(reply1, reply2) << "served batch is not reproducible";

  const auto parsed = try_parse_frame(reply1);
  ASSERT_TRUE(parsed.has_value());
  WireReader r(parsed->first.body);
  ASSERT_EQ(r.u8(), 0) << "batch reply carries an error status";
  ASSERT_EQ(r.u32(), 4u);
  std::vector<QueryResult> results;
  for (int i = 0; i < 4; ++i) results.push_back(decode_query_result(r));
  r.expect_end();
  // Results are in query order: the ratio scales compute time linearly
  // (a ratio of 2 means the target retires instructions at half the host
  // rate), so the batch indices must come back sorted by ratio.
  for (const auto& res : results) ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(results[1].compute_ns, 2 * results[0].compute_ns);
  EXPECT_EQ(results[2].compute_ns, 2 * results[1].compute_ns);
  EXPECT_EQ(results[3].compute_ns, 2 * results[2].compute_ns);

  // Per-query failures are reported in-slot, not batch-wide.
  WireWriter w2;
  w2.u64(session);
  w2.u32(2);
  encode_query(w2, distributed_query(4));
  encode_query(w2, distributed_query(8));  // wrong thread count
  const std::string mixed = svc.handle(
      encode_frame(MsgType::QueryBatch, false, 6, w2.data()).substr(4));
  const auto parsed2 = try_parse_frame(mixed);
  ASSERT_TRUE(parsed2.has_value());
  WireReader r2(parsed2->first.body);
  ASSERT_EQ(r2.u8(), 0);
  ASSERT_EQ(r2.u32(), 2u);
  EXPECT_TRUE(decode_query_result(r2).ok);
  EXPECT_FALSE(decode_query_result(r2).ok);
}

TEST(ServeService, QueryModesAgreeBitwiseAndAreCounted) {
  Service svc;
  const auto session = svc.open_trace_session(load_golden());

  // Auto is conservative-exact: on both an analytic and a message-passing
  // machine, both requested modes serve the same bytes.
  for (const char* preset : {"preset = shared", "preset = distributed"}) {
    Query q = distributed_query(4);
    q.params_text = preset;
    q.mode = QueryMode::EventDriven;
    const QueryResult ev = svc.run_query(session, q);
    ASSERT_TRUE(ev.ok) << ev.error;
    q.mode = QueryMode::Auto;
    const QueryResult au = svc.run_query(session, q);
    EXPECT_EQ(ev, au) << preset;
  }

  const ServerStats st = svc.stats();
  EXPECT_EQ(st.queries_event, 2u);
  EXPECT_EQ(st.queries_auto, 2u);
  EXPECT_EQ(st.queries_ok, 4u);
}

// The serve_warm batch shape on a grid bench session: {distributed, cm5,
// paragon, sp1} x MIPS {1, 4}.  These message-barrier machines are where
// Auto memoizes barrier epochs on the event path, so the EventDriven and
// Auto replies must still be byte-identical — and in-process, the same
// Auto simulations must actually replay memoized windows.
TEST(ServeService, MemoizedAutoRepliesMatchEventDrivenBytes) {
  constexpr int kProcs = 16;
  Service svc;
  const auto session = svc.open_bench_session("grid");
  auto batch_reply = [&](QueryMode mode) {
    WireWriter w;
    w.u64(session);
    w.u32(8u | kBatchHasModes);
    for (const char* preset : {"distributed", "cm5", "paragon", "sp1"})
      for (const double mips : {1.0, 4.0}) {
        Query q;
        q.n_procs = kProcs;
        q.mips_ratio = mips;
        q.params_text = std::string("preset = ") + preset;
        q.mode = mode;
        encode_query(w, q, /*with_mode=*/true);
      }
    return svc.handle(
        encode_frame(MsgType::QueryBatch, false, 9, w.data()).substr(4));
  };
  const std::string event = batch_reply(QueryMode::EventDriven);
  const std::string autom = batch_reply(QueryMode::Auto);
  EXPECT_EQ(event, autom) << "memoized replies differ from the oracle's";
  const auto parsed = try_parse_frame(autom);
  ASSERT_TRUE(parsed.has_value());
  WireReader r(parsed->first.body);
  ASSERT_EQ(r.u8(), 0);
  ASSERT_EQ(r.u32(), 8u);
  for (int i = 0; i < 8; ++i) {
    const QueryResult res = decode_query_result(r);
    ASSERT_TRUE(res.ok) << res.error;
  }

  auto prog = suite::make_by_name("grid", suite::SuiteConfig{});
  rt::MeasureOptions mo;
  mo.n_threads = kProcs;
  const core::TranslatedTrace prepared =
      core::prepare_trace(rt::measure(*prog, mo));
  core::SimOptions sopts;
  sopts.mode = core::SimMode::Auto;
  sopts.emit_trace = false;
  for (const char* preset : {"distributed", "cm5", "paragon", "sp1"})
    for (const double mips : {1.0, 4.0}) {
      model::SimParams params =
          model::parse_params_string(std::string("preset = ") + preset);
      params.proc.mips_ratio = mips;
      const core::Prediction p = core::predict(prepared, params, sopts);
      EXPECT_GT(p.sim.hybrid.memo_hits, 0) << preset << " mips " << mips;
    }
}

TEST(ServeService, ModeFlaggedBatchesDecodeNextToFlaglessOnes) {
  Service svc;
  const auto session = svc.open_trace_session(load_golden());

  // Versioned wire form: kBatchHasModes on the count, a mode byte per
  // query.  Both modes, and the retired mode byte 2 (hand-encoded; it is
  // served as Auto), must come back ok and bitwise-equal.
  WireWriter w;
  w.u64(session);
  w.u32(3u | kBatchHasModes);
  Query q = distributed_query(4);
  q.mode = QueryMode::EventDriven;
  encode_query(w, q, /*with_mode=*/true);
  encode_query(w, distributed_query(4));
  w.u8(2);
  q.mode = QueryMode::Auto;
  encode_query(w, q, /*with_mode=*/true);
  const std::string flagged = svc.handle(
      encode_frame(MsgType::QueryBatch, false, 11, w.data()).substr(4));
  const auto parsed = try_parse_frame(flagged);
  ASSERT_TRUE(parsed.has_value());
  WireReader r(parsed->first.body);
  ASSERT_EQ(r.u8(), 0) << "flagged batch rejected";
  ASSERT_EQ(r.u32(), 3u);
  std::vector<QueryResult> results;
  for (int i = 0; i < 3; ++i) results.push_back(decode_query_result(r));
  r.expect_end();
  for (const auto& res : results) ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);

  // The flagless (pre-mode) form from an old client still parses and runs
  // as Auto.
  WireWriter w2;
  w2.u64(session);
  w2.u32(1);
  encode_query(w2, distributed_query(4));
  const std::string flagless = svc.handle(
      encode_frame(MsgType::QueryBatch, false, 12, w2.data()).substr(4));
  const auto parsed2 = try_parse_frame(flagless);
  ASSERT_TRUE(parsed2.has_value());
  WireReader r2(parsed2->first.body);
  ASSERT_EQ(r2.u8(), 0) << "flagless batch rejected";
  ASSERT_EQ(r2.u32(), 1u);
  const QueryResult legacy = decode_query_result(r2);
  ASSERT_TRUE(legacy.ok) << legacy.error;
  EXPECT_EQ(legacy, results[0]);

  const ServerStats st = svc.stats();
  EXPECT_EQ(st.queries_event, 1u);
  // Mode byte 2, explicit Auto and the flagless default.
  EXPECT_EQ(st.queries_auto, 3u);

  // A flagged batch with a mode byte outside the enum (3 is the first) is
  // an error reply to that request, not a crash.
  for (const int bad_mode : {3, 7}) {
    WireWriter w3;
    w3.u64(session);
    w3.u32(1u | kBatchHasModes);
    encode_query(w3, distributed_query(4));
    w3.u8(static_cast<std::uint8_t>(bad_mode));
    const std::string bad = svc.handle(
        encode_frame(MsgType::QueryBatch, false, 13, w3.data()).substr(4));
    const auto parsed3 = try_parse_frame(bad);
    ASSERT_TRUE(parsed3.has_value());
    WireReader r3(parsed3->first.body);
    EXPECT_NE(r3.u8(), 0) << "out-of-range mode byte " << bad_mode
                          << " was accepted";
  }
  EXPECT_EQ(svc.stats().queries_ok, 4u);
}

TEST(ServeService, SharedSourceCachesAcrossSessions) {
  Service svc;
  const trace::Trace golden = load_golden();
  const auto s1 = svc.open_trace_session(golden);
  const auto s2 = svc.open_trace_session(golden);
  EXPECT_NE(s1, s2);
  ASSERT_TRUE(svc.run_query(s1, distributed_query(4)).ok);
  ASSERT_TRUE(svc.run_query(s2, distributed_query(4)).ok);
  const ServerStats st = svc.stats();
  // Same fingerprint => one source, one cache entry, second query a hit.
  EXPECT_EQ(st.cache_entries, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_GE(st.cache_hits, 1u);
  EXPECT_EQ(st.sessions_open, 2u);
}

// A bench-session miss measures and translates through the source's cache,
// and stats() reports the CPU split; a later hit adds to neither.
TEST(ServeService, StatsSplitBenchMissCpuIntoMeasureAndTranslate) {
  ServiceOptions opt;
  opt.bench_config.embar_pairs = 1 << 12;
  Service svc(opt);
  const auto session = svc.open_bench_session("embar");
  EXPECT_EQ(svc.stats().measure_cpu_s, 0.0);
  EXPECT_EQ(svc.stats().translate_cpu_s, 0.0);

  ASSERT_TRUE(svc.run_query(session, distributed_query(4)).ok);
  const ServerStats miss = svc.stats();
  EXPECT_EQ(miss.cache_misses, 1u);
  EXPECT_GT(miss.measure_cpu_s, 0.0);
  EXPECT_GT(miss.translate_cpu_s, 0.0);

  ASSERT_TRUE(svc.run_query(session, distributed_query(4, 2.0)).ok);
  const ServerStats hit = svc.stats();
  EXPECT_EQ(hit.cache_hits, 1u);
  EXPECT_EQ(hit.measure_cpu_s, miss.measure_cpu_s);
  EXPECT_EQ(hit.translate_cpu_s, miss.translate_cpu_s);
}

// Thread counts a bench program rejects fail in the reply and leave no
// cache entry behind, so a long-lived daemon does not accumulate one per
// distinct failing n; the session keeps working for valid counts.
TEST(ServeService, FailedBenchMissesLeaveNoCacheEntries) {
  ServiceOptions opt;
  opt.bench_config.sort_keys = 1 << 10;
  Service svc(opt);
  const auto session = svc.open_bench_session("sort");
  for (int n : {3, 5, 6, 7, 3}) {
    const QueryResult r = svc.run_query(session, distributed_query(n));
    EXPECT_FALSE(r.ok) << "n_procs=" << n;
    EXPECT_NE(r.error.find("power-of-two"), std::string::npos) << r.error;
  }
  ServerStats st = svc.stats();
  EXPECT_EQ(st.cache_entries, 0u);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.queries_err, 5u);

  ASSERT_TRUE(svc.run_query(session, distributed_query(4)).ok);
  st = svc.stats();
  EXPECT_EQ(st.cache_entries, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 0u);
}

TEST(ServeService, PatternModelFitsBenchSessions) {
  Service svc(pattern_service_options());
  const auto session = svc.open_bench_session("mrhist");
  const PatternModelResult res =
      svc.run_pattern_model(session, distributed_pattern_query());
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.regions.size(), 1u);  // mrhist is a single mapreduce leaf
  EXPECT_EQ(res.regions[0].region, 1);
  EXPECT_EQ(res.regions[0].label, "mapreduce:hist");
  EXPECT_EQ(res.regions[0].parent, 0);
  EXPECT_EQ(res.regions[0].depth, 0);
  EXPECT_FALSE(res.regions[0].model.empty());
  EXPECT_FALSE(res.residual_model.empty());
  ASSERT_EQ(res.eval_at.size(), 2u);
  ASSERT_EQ(res.value.size(), 2u);
  for (std::size_t i = 0; i < res.value.size(); ++i) {
    EXPECT_GT(res.value[i], 0.0);
    EXPECT_LE(res.lo[i], res.value[i]);
    EXPECT_GE(res.hi[i], res.value[i]);
  }
}

TEST(ServeService, PatternModelReportsErrorsInTheResult) {
  Service svc(pattern_service_options());

  // Unknown session.
  EXPECT_FALSE(svc.run_pattern_model(999, distributed_pattern_query()).ok);

  // Trace sessions cannot be swept to new thread counts.
  const auto trace_session = svc.open_trace_session(load_golden());
  const PatternModelResult on_trace =
      svc.run_pattern_model(trace_session, distributed_pattern_query());
  EXPECT_FALSE(on_trace.ok);
  EXPECT_NE(on_trace.error.find("bench"), std::string::npos);

  const auto session = svc.open_bench_session("mrhist");

  // Too few / unordered fit counts.
  PatternQuery two = distributed_pattern_query();
  two.procs = {1, 2};
  EXPECT_FALSE(svc.run_pattern_model(session, two).ok);
  PatternQuery unsorted = distributed_pattern_query();
  unsorted.procs = {4, 2, 1};
  EXPECT_FALSE(svc.run_pattern_model(session, unsorted).ok);

  // A pattern-free benchmark has nothing to fit.
  const auto plain = svc.open_bench_session("cyclic");
  const PatternModelResult no_patterns =
      svc.run_pattern_model(plain, distributed_pattern_query());
  EXPECT_FALSE(no_patterns.ok);
  EXPECT_NE(no_patterns.error.find("pattern"), std::string::npos);
}

// --- server + client over a unix socket ------------------------------------

TEST(ServeServer, EndToEndOverUnixSocket) {
  const std::string sock = unique_socket("e2e");
  ServerOptions opt;
  opt.unix_path = sock;
  Server server(std::move(opt));
  server.start();

  Client client = Client::connect_unix(sock);
  const auto session = client.load_trace(load_golden());
  const QueryResult r = client.query(session, distributed_query(4));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.predicted_ns, 0);

  // Server-side failures surface as ServeError on the sync error verb
  // path and as in-slot errors for queries.
  EXPECT_THROW(client.close_session(9999), ServeError);
  EXPECT_FALSE(client.query(session, distributed_query(8)).ok);

  const ServerStats st = client.stats();
  EXPECT_EQ(st.connections_open, 1u);
  EXPECT_GE(st.requests_total, 3u);

  client.close_session(session);
  server.stop();
  server.join();
}

TEST(ServeServer, ConcurrentClientsShareOneCache) {
  const std::string sock = unique_socket("conc");
  ServerOptions opt;
  opt.unix_path = sock;
  Server server(std::move(opt));
  server.start();

  const trace::Trace golden = load_golden();
  constexpr int kClients = 4;
  constexpr int kBatches = 8;
  std::vector<std::vector<QueryResult>> per_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client cl = Client::connect_unix(sock);
      const auto session = cl.load_trace(golden);
      std::vector<Client::Ticket> tickets;
      std::vector<Query> batch;
      for (double mips : {1.0, 2.0, 3.0})
        batch.push_back(distributed_query(4, mips));
      for (int b = 0; b < kBatches; ++b)  // pipelined: write all, then read
        tickets.push_back(cl.submit_batch(session, batch));
      for (const auto t : tickets) {
        const auto results = cl.wait_batch(t);
        per_client[c].insert(per_client[c].end(), results.begin(),
                             results.end());
      }
      cl.close_session(session);
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(per_client[c].size(),
              static_cast<std::size_t>(3 * kBatches));
    for (const auto& r : per_client[c]) ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(per_client[c], per_client[0])
        << "client " << c << " saw different predictions";
  }

  Client admin = Client::connect_unix(sock);
  const ServerStats st = admin.stats();
  // Every client uploaded the same bytes: one source, one translate miss.
  EXPECT_EQ(st.cache_entries, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.queries_err, 0u);
  EXPECT_EQ(st.queries_ok,
            static_cast<std::uint64_t>(kClients * kBatches * 3));

  server.stop();
  server.join();
}

TEST(ServeServer, ModeRequestsRoundTripOverTheSocket) {
  const std::string sock = unique_socket("mode");
  ServerOptions opt;
  opt.unix_path = sock;
  Server server(std::move(opt));
  server.start();

  Client client = Client::connect_unix(sock);
  const auto session = client.load_trace(load_golden());

  Query qe = distributed_query(4);
  qe.mode = QueryMode::EventDriven;
  // Mixed batch: a non-default mode makes the client emit the flagged
  // wire form for the whole batch.
  const auto results = client.query_batch(session, {qe, distributed_query(4)});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(results[0], results[1]);

  const ServerStats st = client.stats();
  EXPECT_EQ(st.queries_event, 1u);
  EXPECT_EQ(st.queries_auto, 1u);

  client.close_session(session);
  server.stop();
  server.join();
}

// Bench sessions measure one fiber per requested thread, so thread counts
// are capped: an oversized request gets an error reply and the daemon
// keeps serving — one test per verb that names a thread count.
class ServeThreadCap : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions opt;
    opt.unix_path = unique_socket("cap");
    opt.service = pattern_service_options();
    server_ = std::make_unique<Server>(std::move(opt));
    server_->start();
    client_ = std::make_unique<Client>(
        Client::connect_unix(server_->unix_path()));
  }
  void TearDown() override {
    client_.reset();
    server_->stop();
    server_->join();
  }

  /// The daemon still answers a normal query on `session`.
  void expect_still_serving(std::uint64_t session) {
    const QueryResult ok = client_->query(session, distributed_query(2));
    EXPECT_TRUE(ok.ok) << ok.error;
  }

  static constexpr std::int32_t kHuge = 100'000'000;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;
};

TEST_F(ServeThreadCap, OversizedQueryIsRefused) {
  const auto session = client_->open_bench("cyclic");
  const QueryResult r = client_->query(session, distributed_query(kHuge));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("at most 16384 threads"), std::string::npos)
      << r.error;
  expect_still_serving(session);
}

TEST_F(ServeThreadCap, OversizedQueryInABatchFailsInSlot) {
  const auto session = client_->open_bench("cyclic");
  const auto results = client_->query_batch(
      session, {distributed_query(2), distributed_query(16385)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("at most 16384 threads"),
            std::string::npos)
      << results[1].error;
  expect_still_serving(session);
}

TEST_F(ServeThreadCap, OversizedPatternModelIsRefused) {
  const auto session = client_->open_bench("mrhist");
  PatternQuery q = distributed_pattern_query();
  q.procs = {1, 2, kHuge};
  const PatternModelResult r = client_->pattern_model(session, q);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("at most 16384 threads"), std::string::npos)
      << r.error;
  const auto plain = client_->open_bench("cyclic");
  expect_still_serving(plain);
}

TEST(ServeServer, MalformedBytesDropTheConnectionOnly) {
  const std::string sock = unique_socket("mal");
  ServerOptions opt;
  opt.unix_path = sock;
  Server server(std::move(opt));
  server.start();

  // A raw socket spewing garbage: the server must drop it without taking
  // the daemon down.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string garbage(64, '\xff');  // forged length > 64 MiB cap
    ASSERT_GT(send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
    char buf[16];
    EXPECT_EQ(read(fd, buf, sizeof buf), 0) << "server kept a poisoned "
                                               "connection open";
    close(fd);
  }

  // A malformed PAYLOAD (valid framing) gets an error reply instead.
  {
    Client cl = Client::connect_unix(sock);
    EXPECT_THROW(cl.load_trace_bytes("these are not XPTB bytes"), ServeError);
    // ... and the connection is still usable afterwards.
    const auto session = cl.open_bench("cyclic");
    EXPECT_TRUE(cl.query(session, distributed_query(2)).ok);
  }

  server.stop();
  server.join();
}

TEST(ServeServer, ShutdownVerbStopsTheServer) {
  const std::string sock = unique_socket("shut");
  ServerOptions opt;
  opt.unix_path = sock;
  Server server(std::move(opt));
  server.start();

  Client client = Client::connect_unix(sock);
  client.shutdown_server();  // reply arrives before the server exits
  server.join();             // returns promptly: the verb triggered stop()
  EXPECT_EQ(unlink(sock.c_str()), -1) << "socket file survived shutdown";
}

// --- the acceptance contract: served == in-process, bitwise ----------------

TEST(ServeServer, ServedPredictionsMatchInProcessExtrapolatorBitwise) {
  const trace::Trace golden = load_golden();

  const std::string sock = unique_socket("gold");
  ServerOptions opt;
  opt.unix_path = sock;
  Server server(std::move(opt));
  server.start();

  Client client = Client::connect_unix(sock);
  const auto session = client.load_trace(golden);

  for (double mips : {0.0, 1.0, 2.0, 8.0}) {
    const QueryResult served =
        client.query(session, distributed_query(4, mips));
    ASSERT_TRUE(served.ok) << served.error;

    model::SimParams params = model::distributed_preset();
    if (mips > 0) params.proc.mips_ratio = mips;
    const core::Prediction local =
        core::Extrapolator(params).extrapolate_trace(golden);

    EXPECT_EQ(served.predicted_ns, local.predicted_time.count_ns());
    EXPECT_EQ(served.ideal_ns, local.ideal_time.count_ns());
    EXPECT_EQ(served.measured_ns, local.measured_time.count_ns());
    EXPECT_EQ(served.messages, local.sim.messages);
    EXPECT_EQ(served.bytes, local.sim.bytes);
    EXPECT_EQ(served.compute_ns, local.sim.total_compute().count_ns());
    EXPECT_EQ(served.comm_wait_ns, local.sim.total_comm_wait().count_ns());
    EXPECT_EQ(served.barrier_wait_ns,
              local.sim.total_barrier_wait().count_ns());
  }

  server.stop();
  server.join();
}

TEST(ServeServer, ServedPatternModelMatchesInProcessServiceBitwise) {
  const std::string sock = unique_socket("pat");
  ServerOptions opt;
  opt.unix_path = sock;
  opt.service = pattern_service_options();
  Server server(std::move(opt));
  server.start();

  Client client = Client::connect_unix(sock);
  for (const char* bench : {"pipestencil", "taskgraph"}) {
    SCOPED_TRACE(bench);
    const auto session = client.open_bench(bench);
    const PatternModelResult served =
        client.pattern_model(session, distributed_pattern_query());
    ASSERT_TRUE(served.ok) << served.error;
    EXPECT_GE(served.regions.size(), 3u);  // both benches are nested trees

    // The daemon path — encode, socket, pool, decode — must reproduce the
    // in-process Service to the last f64 bit (operator== compares every
    // model string and band endpoint exactly).
    Service local(pattern_service_options());
    const auto local_session = local.open_bench_session(bench);
    const PatternModelResult in_process =
        local.run_pattern_model(local_session, distributed_pattern_query());
    ASSERT_TRUE(in_process.ok) << in_process.error;
    EXPECT_EQ(served, in_process);

    client.close_session(session);
  }

  server.stop();
  server.join();
}

TEST(ServeServer, OldWireFormsStillWorkOnAPatternAwareServer) {
  // The version gate is the NEW VERB ITSELF: a pattern-aware server must
  // keep serving every pre-pattern wire form byte-compatibly, and reject
  // type bytes beyond its ken with an error reply, not a dropped
  // connection.
  const std::string sock = unique_socket("oldwire");
  ServerOptions opt;
  opt.unix_path = sock;
  opt.service = pattern_service_options();
  Server server(std::move(opt));
  server.start();

  RawConnection conn(sock);
  Frame reply;
  const auto exchange = [&](const std::string& frame_bytes) {
    conn.exchange(frame_bytes, reply);
  };

  // An old client's session open + flagless (pre-mode) batch.
  {
    WireWriter w;
    w.str("mrhist");
    exchange(encode_frame(MsgType::OpenBench, false, 1, w.data()));
    WireReader r(reply.body);
    ASSERT_EQ(r.u8(), 0) << "old OpenBench form rejected";
    const std::uint64_t session = r.u64();

    WireWriter wb;
    wb.u64(session);
    wb.u32(1);  // flagless count: the pre-kBatchHasModes form
    encode_query(wb, distributed_query(2));
    exchange(encode_frame(MsgType::QueryBatch, false, 2, wb.data()));
    WireReader rb(reply.body);
    ASSERT_EQ(rb.u8(), 0) << "old flagless batch rejected";
    ASSERT_EQ(rb.u32(), 1u);
    const QueryResult res = decode_query_result(rb);
    EXPECT_TRUE(res.ok) << res.error;
  }

  // A type byte from beyond this server's protocol version: error reply,
  // connection stays up (the next exchange proves it).
  {
    std::string future = encode_frame(MsgType::Stats, false, 3, "");
    future[4] = static_cast<char>(MsgType::PatternModel) + 1;
    exchange(future);
    WireReader r(reply.body);
    EXPECT_NE(r.u8(), 0) << "unknown type byte was accepted";
    exchange(encode_frame(MsgType::Stats, false, 4, ""));
    WireReader r2(reply.body);
    EXPECT_EQ(r2.u8(), 0) << "connection poisoned by unknown type";
  }

  server.stop();
  server.join();
}

TEST(ServeServer, OldSamplingBatchesGetExactReplies) {
  // kBatchHasSampling once carried an inexact epoch tolerance.  Current
  // clients never raise it, but an old client's flagged batch must still
  // be served: the tolerance is range-checked and ignored, the reply
  // echoes the flag with the old layout, and the certified-bound slot is
  // 0 because every answer is exact.
  const std::string sock = unique_socket("oldsampling");
  ServerOptions opt;
  opt.unix_path = sock;
  Server server(std::move(opt));
  server.start();

  RawConnection conn(sock);
  Frame reply;
  conn.exchange(
      [] {
        WireWriter w;
        w.str("cyclic");
        return encode_frame(MsgType::OpenBench, false, 1, w.data());
      }(),
      reply);
  WireReader ro(reply.body);
  ASSERT_EQ(ro.u8(), 0) << "OpenBench rejected";
  const std::uint64_t session = ro.u64();

  Query shared;
  shared.n_procs = 4;
  shared.params_text =
      "preset = shared\ncluster.procs_per_cluster = 1048576";
  const std::vector<Query> queries{distributed_query(4), shared};
  const auto batch = [&](std::uint64_t id, std::optional<double> tolerance) {
    WireWriter w;
    w.u64(session);
    w.u32(static_cast<std::uint32_t>(queries.size()) |
          (tolerance ? kBatchHasSampling : 0u));
    for (const Query& q : queries) {
      encode_query(w, q);
      if (tolerance) w.f64(*tolerance);
    }
    return encode_frame(MsgType::QueryBatch, false, id, w.data());
  };

  conn.exchange(batch(2, std::nullopt), reply);
  WireReader rf(reply.body);
  ASSERT_EQ(rf.u8(), 0) << "flagless batch rejected";
  ASSERT_EQ(rf.u32(), queries.size());
  std::vector<QueryResult> flagless;
  for (std::size_t i = 0; i < queries.size(); ++i)
    flagless.push_back(decode_query_result(rf));
  rf.expect_end();

  conn.exchange(batch(3, 0.25), reply);
  WireReader rs(reply.body);
  ASSERT_EQ(rs.u8(), 0) << "sampling-flagged batch rejected";
  ASSERT_EQ(rs.u32(), queries.size() | kBatchHasSampling)
      << "the reply must echo kBatchHasSampling";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryResult res = decode_query_result(rs);  // base fields
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res, flagless[i]);
    const std::int64_t epochs = rs.i64();
    const std::int64_t classes = rs.i64();
    const std::int64_t simulated = rs.i64();
    // Only the single-cluster shared-memory query is fully analytic, so
    // only it takes the sampled path.
    EXPECT_EQ(epochs > 0, i == 1);
    EXPECT_LE(classes, epochs);
    EXPECT_LE(simulated, epochs);
    EXPECT_EQ(rs.i64(), 0) << "retired bound slot must be 0";
  }
  rs.expect_end();

  // Out-of-range tolerances are error replies; the connection survives
  // and serves the next valid batch.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 1.5}) {
    SCOPED_TRACE(bad);
    conn.exchange(batch(4, bad), reply);
    WireReader rb(reply.body);
    EXPECT_NE(rb.u8(), 0) << "tolerance " << bad << " was accepted";
    conn.exchange(batch(5, std::nullopt), reply);
    WireReader rv(reply.body);
    ASSERT_EQ(rv.u8(), 0) << "connection poisoned by a bad tolerance";
    ASSERT_EQ(rv.u32(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      EXPECT_EQ(decode_query_result(rv), flagless[i]);
  }

  server.stop();
  server.join();
}

}  // namespace
}  // namespace xp::serve
