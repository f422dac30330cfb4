// xp::serve wire protocol — length-prefixed binary frames.
//
// The daemon answers the paper's what-if question as a service: load a
// measured trace (or name a suite benchmark) once, then fire batched
// queries (n_procs, machine params, MipsRatio) -> predicted time against
// it.  The protocol is deliberately small and fully little-endian:
//
//   Frame   := u32 payload_len | payload          (len caps at 64 MiB)
//   Payload := u8 type | u64 request_id | body
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

/// QUERY_BATCH versioning: set on the query-count u32 when every encoded
/// query carries a trailing mode byte.  Unambiguous — the server caps
/// batches at 2^20 queries, so a count with this bit set can only mean a
/// mode-carrying batch.  Clients that never set a non-default mode keep
/// emitting the flagless wire form, which old servers parse unchanged.
constexpr std::uint32_t kBatchHasModes = 1u << 31;

/// QUERY_BATCH versioning, second flag: set on the query-count u32 when
/// every encoded query carries a trailing epoch-tolerance f64.  The
/// tolerance named a retired inexact sampling tier; current clients never
/// set this flag.  Servers still accept it from old clients: the f64 is
/// range-checked to [0, 1] and then ignored, since every answer is exact.
/// Unambiguous for the same reason as kBatchHasModes — the 2^20 query cap
/// leaves bits 20..31 free.  The server ECHOES this flag on the reply's
/// result-count u32 and appends per-result sampling stats when set, so
/// clients decode replies statelessly.  Composes independently with
/// kBatchHasModes (either, both, or neither may be set).
constexpr std::uint32_t kBatchHasSampling = 1u << 30;

enum class MsgType : std::uint8_t {
  LoadTrace = 1,     ///< body: XPTB binary trace bytes -> session
  OpenBench = 2,     ///< body: suite benchmark name -> session
  QueryBatch = 3,    ///< body: session + array of Query
  Stats = 4,         ///< body: empty
  CloseSession = 5,  ///< body: session
  Shutdown = 6,      ///< body: empty; server drains and exits
  /// body: session + PatternQuery -> composed per-pattern cost model
  /// (xp::pattern).  Versioning: a NEW verb is the whole gate — servers
  /// that predate it reject the type byte with an error reply and every
  /// pre-existing verb's wire form is untouched, so old clients and old
  /// servers interoperate with pattern-aware peers unchanged.
  PatternModel = 7,
};

/// Requested simulation mode for one query (core::SimMode on the wire).
/// Auto is conservative-exact, so the mode never changes the numbers in a
/// QueryResult — only how the server computes them.  Auto is the default
/// so flagless (pre-mode) batches get the fast path for free.  Mode byte 2
/// named a retired third mode (forced segment collapse without epoch
/// sampling); decoders still accept it and serve it as Auto, which is
/// bitwise-equal.  Bytes 3 and above are rejected.
enum class QueryMode : std::uint8_t {
  Auto = 0,         ///< the fast exact path (the default)
  EventDriven = 1,  ///< force the full discrete-event replay
};

const char* to_string(QueryMode m);

/// One what-if query against a session: predict the session's program on
/// `n_procs` processors of the machine described by `params_text`
/// (key=value lines for model::parse_params_string; empty = defaults) with
/// `mips_ratio` overriding the machine's MipsRatio when positive.
struct Query {
  std::int32_t n_procs = 0;
  double mips_ratio = 0.0;  ///< <= 0: keep the value in params_text
  std::string params_text;
  /// Only on the wire when the batch count carries kBatchHasModes.
  QueryMode mode = QueryMode::Auto;

  bool operator==(const Query&) const = default;
};

/// The served prediction.  Integer-nanosecond fields come straight from
/// the deterministic simulator, so a served result is bitwise-comparable
/// to an in-process core::Extrapolator run on the same inputs.
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
  // Representative-epoch sampling attribution (core::SamplingStats).  On
  // the wire only when the reply count echoes kBatchHasSampling; zero when
  // the query's simulation did not take the sampled path.  A fourth
  // wire slot after these, once a certified error bound, is always 0.
  std::int64_t sampling_epochs = 0;      ///< epochs in the replayed trace
  std::int64_t sampling_classes = 0;     ///< distinct epoch classes
  std::int64_t sampling_simulated = 0;   ///< exemplar epochs actually walked

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

/// The `stats` verb's answer: service counters plus the translate-cache
/// totals (summed over all per-source caches) and per-stage CPU-seconds in
/// the spirit of core::SweepStages.
///
/// Extensibility rule: new fields append at the END of the encoding and
/// decoders stop at the bytes they have (decode_stats zero-fills absent
/// trailing fields), so stats replies stay parseable across versions in
/// both directions.  The per-mode query counts below were the first such
/// extension; their third slot counted the retired mode byte 2 and is
/// still on the wire, written as zero and skipped on decode.
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
  // Queries by requested mode (appended extension; old replies decode to 0).
  std::uint64_t queries_auto = 0;
  std::uint64_t queries_event = 0;
  // Representative-epoch sampling counters (second appended extension):
  // how many served queries took the sampled path and how much epoch
  // replay it saved daemon-wide.  Old replies decode to 0.
  std::uint64_t queries_sampled = 0;          ///< queries on the sampled path
  std::uint64_t sampling_epochs_total = 0;    ///< epochs covered by those
  std::uint64_t sampling_epochs_simulated = 0;  ///< exemplar walks performed

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

/// Serialize a full frame (length prefix + type + id + body).
std::string encode_frame(MsgType type, bool is_reply, std::uint64_t request_id,
                         std::string_view body);

/// Try to parse one frame from the front of `data`.  Returns the frame and
/// the number of bytes consumed, or nullopt if the buffer does not yet hold
/// a complete frame.  Throws ProtocolError on an oversized or undersized
/// length prefix.
std::optional<std::pair<Frame, std::size_t>> try_parse_frame(
    std::string_view data);

// --- message bodies --------------------------------------------------------

/// `with_mode` selects the kBatchHasModes wire form (a trailing mode
/// byte); without it the mode is neither written nor read and defaults to
/// QueryMode::Auto on decode.  `with_sampling` makes decode_query read
/// the kBatchHasSampling form's trailing epoch-tolerance f64 (after the
/// mode byte, when both are present), range-check it and discard it;
/// encode_query never writes it.
void encode_query(WireWriter& w, const Query& q, bool with_mode = false);
Query decode_query(WireReader& r, bool with_mode = false,
                   bool with_sampling = false);

/// `with_sampling` mirrors the kBatchHasSampling reply form: ok results
/// gain four trailing i64s, the three sampling-attribution counters and a
/// slot written as 0.  Error results are unchanged in either form.
void encode_query_result(WireWriter& w, const QueryResult& res,
                         bool with_sampling = false);
QueryResult decode_query_result(WireReader& r, bool with_sampling = false);

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
