// xp::serve wire protocol — length-prefixed binary frames.
//
// The daemon answers the paper's what-if question as a service: load a
// measured trace (or name a suite benchmark) once, then fire batched
// queries (n_procs, machine params, MipsRatio) -> predicted time against
// it.  The protocol is deliberately small and fully little-endian:
//
//   Frame   := u32 payload_len | payload          (len caps at 64 MiB)
//   Payload := u8 type | u8 version | u64 request_id | body
//   str     := u32 len | len bytes
//
//   type           request body                  ok reply fields
//   LOAD_TRACE     XPTB trace bytes              u64 session | i32 n_threads
//   OPEN_BENCH     str name                      u64 session | i32 0
//   QUERY_BATCH    u64 session | u32 n | n Query u32 n | n QueryResult
//   STATS          (empty)                       ServerStats
//   CLOSE_SESSION  u64 session                   (none)
//   SHUTDOWN       (empty)                       (none)
//   PATTERN_MODEL  u64 session | PatternQuery    PatternModelResult
//
// Every message has exactly one body at a protocol version: the version
// byte is the whole compatibility story, with no flag bits or optional
// trailing fields.  A request of any other version gets an error reply and
// the connection stays up; changing a body means bumping kProtocolVersion.
//
// Requests carry a client-chosen request_id; the matching reply echoes it
// with the high bit of the type set (kReplyBit), so clients may PIPELINE —
// write many requests before reading any reply — and match replies by id.
// The server completes requests out of order internally but writes each
// connection's replies in request order, so a simple client may also just
// read replies sequentially.
//
// Every reply body begins with a status byte: 0 = ok (verb-specific fields
// follow), nonzero = error (a human-readable message string follows).
// QUERY_BATCH additionally carries a per-query ok/error, so one bad query
// does not poison its batch.
//
// All decoding is bounds-checked and throws ProtocolError — the daemon
// parses bytes it did not write (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulator.hpp"
#include "util/error.hpp"

namespace xp::serve {

/// Malformed frame or message body.
class ProtocolError : public util::Error {
 public:
  using Error::Error;
};

/// Frames larger than this are rejected outright (a forged length prefix
/// must not drive allocation).
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Replies echo the request type with this bit set.
constexpr std::uint8_t kReplyBit = 0x80;

/// The payload's version byte.  The unversioned protocol before it counts
/// as version 1 (its first request id would read as 1 in this position).
constexpr std::uint8_t kProtocolVersion = 4;

/// Payload header bytes: type, version and request id.
constexpr std::uint32_t kHeaderBytes = 1 + 1 + 8;

/// A retired QUERY_BATCH count flag; the server never sets it.
constexpr std::uint32_t kBatchHasSampling = 1u << 30;

enum class MsgType : std::uint8_t {
  LoadTrace = 1,     ///< body: XPTB binary trace bytes -> session
  OpenBench = 2,     ///< body: suite benchmark name -> session
  QueryBatch = 3,    ///< body: session + array of Query
  Stats = 4,         ///< body: empty
  CloseSession = 5,  ///< body: session
  Shutdown = 6,      ///< body: empty; server drains and exits
  /// body: session + PatternQuery -> composed per-pattern cost model
  /// (xp::pattern).
  PatternModel = 7,
};

/// One what-if query against a session: predict the session's program on
/// `n_procs` processors of the machine described by `params_text`
/// (key=value lines for model::parse_params_string; empty = defaults) with
/// `mips_ratio` overriding the machine's MipsRatio when positive.
struct Query {
  std::int32_t n_procs = 0;
  double mips_ratio = 0.0;  ///< <= 0: keep the value in params_text
  std::string params_text;

  bool operator==(const Query&) const = default;
};

/// The served prediction.  Integer-nanosecond fields come straight from
/// the deterministic simulator, so a served result is bitwise-comparable
/// to an in-process core::Extrapolator run on the same inputs, and equal
/// to Service::run_query's.
struct QueryResult {
  bool ok = false;
  std::string error;  ///< set when !ok
  std::int64_t predicted_ns = 0;
  std::int64_t ideal_ns = 0;
  std::int64_t measured_ns = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t compute_ns = 0;
  std::int64_t comm_wait_ns = 0;
  std::int64_t barrier_wait_ns = 0;

  bool operator==(const QueryResult&) const = default;
};

/// PATTERN_MODEL request: fit composed per-pattern cost models for a
/// bench session's program from a sweep over `procs` (ascending, distinct,
/// >= 3 counts) on the machine described by `params_text` / `mips_ratio`
/// (same convention as Query), then evaluate the composed prediction at
/// each `eval_at` processor count.
struct PatternQuery {
  std::vector<std::int32_t> procs;
  double mips_ratio = 0.0;  ///< <= 0: keep the value in params_text
  std::string params_text;
  std::vector<double> eval_at;

  bool operator==(const PatternQuery&) const = default;
};

/// One fitted pattern region of a PATTERN_MODEL reply.
struct PatternRegionWire {
  std::int64_t region = 0;
  std::int32_t kind = 0;    ///< pattern::Kind on the wire
  std::int32_t detail = 0;  ///< structural size (stages/items/tasks)
  std::int64_t parent = 0;  ///< 0 = top level
  std::int32_t depth = 0;
  std::string label;
  std::string model;  ///< fitted self-time PMNF, fit::Model::str()

  bool operator==(const PatternRegionWire&) const = default;
};

/// The served composed model.  Model strings and f64 evaluations come from
/// the deterministic fitter, so a served result is bitwise-comparable to
/// an in-process pattern::compose() over the same sweep.
struct PatternModelResult {
  bool ok = false;
  std::string error;  ///< set when !ok
  std::vector<PatternRegionWire> regions;  ///< region-id (pre)order
  std::string residual_model;
  std::vector<double> eval_at;  ///< echoed from the request
  std::vector<double> value;    ///< composed eval, us
  std::vector<double> lo;       ///< composed confidence band, us
  std::vector<double> hi;

  bool operator==(const PatternModelResult&) const = default;
};

/// The `stats` verb's answer: service counters, the translate-cache totals
/// (summed over all per-source caches), per-stage CPU-seconds in the
/// spirit of core::SweepStages, and the served queries' fast-path counters.
/// On the wire in declaration order, `sim` as kSimCounterFields' i64s.
struct ServerStats {
  std::uint64_t connections_total = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t sessions_open = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t batches = 0;
  std::uint64_t queries_ok = 0;
  std::uint64_t queries_err = 0;
  std::uint64_t queue_depth = 0;  ///< queries dispatched, not yet finished
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  double measure_cpu_s = 0;
  double translate_cpu_s = 0;
  double simulate_cpu_s = 0;
  core::SimCounters sim;  ///< summed over served queries, one cell each

  bool operator==(const ServerStats&) const = default;
};

// --- primitive encoding ----------------------------------------------------

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);  ///< IEEE-754 bits, little-endian
  void str(std::string_view s);
  void raw(std::string_view bytes);

  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer; every
/// overrun throws ProtocolError.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}
  /// The reader is a VIEW — it must not outlive the bytes.  Reject
  /// temporaries outright (e.g. `WireReader r(wait_ok(id))`): the string
  /// dies before the first read.
  explicit WireReader(std::string&&) = delete;

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  std::string str();
  std::string_view rest();  ///< everything not yet consumed

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws unless the whole buffer was consumed (trailing garbage).
  void expect_end() const;

 private:
  std::string_view take(std::size_t n);
  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- framing ---------------------------------------------------------------

struct Frame {
  MsgType type{};
  bool is_reply = false;
  std::uint64_t request_id = 0;
  std::string body;
};

/// Serialize a full frame (length prefix + header at kProtocolVersion +
/// body).
std::string encode_frame(MsgType type, bool is_reply, std::uint64_t request_id,
                         std::string_view body);

/// Parse one payload (type | version | request_id | body) into `f`.  The
/// whole header is read before it is checked, so when the check fails
/// (unknown type, other version) f.request_id is already set for the
/// error reply; f.type is only set to a known type.  Throws ProtocolError.
void parse_payload(std::string_view payload, Frame& f);

/// Try to parse one frame from the front of `data`.  Returns the frame and
/// the number of bytes consumed, or nullopt if the buffer does not yet hold
/// a complete frame.  Throws ProtocolError on an oversized or undersized
/// length prefix and on a payload parse_payload rejects.
std::optional<std::pair<Frame, std::size_t>> try_parse_frame(
    std::string_view data);

// --- message bodies --------------------------------------------------------

void encode_query(WireWriter& w, const Query& q);
Query decode_query(WireReader& r);

/// Ok results carry the eight i64 fields in declaration order, error
/// results the message.
void encode_query_result(WireWriter& w, const QueryResult& res);
QueryResult decode_query_result(WireReader& r);

void encode_stats(WireWriter& w, const ServerStats& s);
ServerStats decode_stats(WireReader& r);

void encode_pattern_query(WireWriter& w, const PatternQuery& q);
PatternQuery decode_pattern_query(WireReader& r);

void encode_pattern_result(WireWriter& w, const PatternModelResult& res);
PatternModelResult decode_pattern_result(WireReader& r);

/// Ok/error reply helpers: both produce a complete reply BODY (status byte
/// first); the caller wraps it in a frame with the echoed request id.
std::string ok_reply_body(std::string_view fields = {});
std::string error_reply_body(std::string_view message);

}  // namespace xp::serve
