#include "serve/protocol.hpp"

#include <bit>
#include <cstring>

namespace xp::serve {

// --- WireWriter ------------------------------------------------------------

void WireWriter::u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void WireWriter::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
void WireWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(std::string_view s) {
  if (s.size() > kMaxFrameBytes)
    throw ProtocolError("string too large to encode");
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s);
}

void WireWriter::raw(std::string_view bytes) { buf_.append(bytes); }

// --- WireReader ------------------------------------------------------------

std::string_view WireReader::take(std::size_t n) {
  if (remaining() < n)
    throw ProtocolError("message truncated: wanted " + std::to_string(n) +
                        " bytes, " + std::to_string(remaining()) + " left");
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t WireReader::u8() {
  return static_cast<std::uint8_t>(take(1)[0]);
}

std::uint32_t WireReader::u32() {
  const std::string_view b = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  const std::string_view b = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  return v;
}

std::int32_t WireReader::i32() { return static_cast<std::int32_t>(u32()); }
std::int64_t WireReader::i64() { return static_cast<std::int64_t>(u64()); }
double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (n > kMaxFrameBytes) throw ProtocolError("implausible string length");
  return std::string(take(n));
}

std::string_view WireReader::rest() { return take(remaining()); }

void WireReader::expect_end() const {
  if (pos_ != data_.size())
    throw ProtocolError("trailing bytes after message body");
}

// --- framing ---------------------------------------------------------------

std::string encode_frame(MsgType type, bool is_reply, std::uint64_t request_id,
                         std::string_view body) {
  const std::size_t payload = kHeaderBytes + body.size();
  if (payload > kMaxFrameBytes) throw ProtocolError("frame body too large");
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(payload));
  w.u8(static_cast<std::uint8_t>(type) |
       (is_reply ? kReplyBit : std::uint8_t{0}));
  w.u8(kProtocolVersion);
  w.u64(request_id);
  w.raw(body);
  return w.take();
}

void parse_payload(std::string_view payload, Frame& f) {
  WireReader r(payload);
  const std::uint8_t t = r.u8();
  const std::uint8_t version = r.u8();
  f.request_id = r.u64();
  f.is_reply = (t & kReplyBit) != 0;
  const std::uint8_t raw_type = t & static_cast<std::uint8_t>(~kReplyBit);
  if (raw_type < static_cast<std::uint8_t>(MsgType::LoadTrace) ||
      raw_type > static_cast<std::uint8_t>(MsgType::PatternModel))
    throw ProtocolError("unknown message type " + std::to_string(raw_type));
  f.type = static_cast<MsgType>(raw_type);
  if (version != kProtocolVersion)
    throw ProtocolError("protocol version " + std::to_string(version) +
                        ", this end speaks " +
                        std::to_string(kProtocolVersion));
  f.body = std::string(r.rest());
}

std::optional<std::pair<Frame, std::size_t>> try_parse_frame(
    std::string_view data) {
  if (data.size() < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[i]))
           << (8 * i);
  if (len < kHeaderBytes) throw ProtocolError("frame shorter than its header");
  if (len > kMaxFrameBytes) throw ProtocolError("frame exceeds 64 MiB cap");
  if (data.size() < 4u + len) return std::nullopt;
  Frame f;
  parse_payload(data.substr(4, len), f);
  return std::make_pair(std::move(f), 4u + static_cast<std::size_t>(len));
}

// --- message bodies --------------------------------------------------------

void encode_query(WireWriter& w, const Query& q) {
  w.i32(q.n_procs);
  w.f64(q.mips_ratio);
  w.str(q.params_text);
}

Query decode_query(WireReader& r) {
  Query q;
  q.n_procs = r.i32();
  q.mips_ratio = r.f64();
  q.params_text = r.str();
  return q;
}

void encode_query_result(WireWriter& w, const QueryResult& res) {
  w.u8(res.ok ? 1 : 0);
  if (!res.ok) {
    w.str(res.error);
    return;
  }
  w.i64(res.predicted_ns);
  w.i64(res.ideal_ns);
  w.i64(res.measured_ns);
  w.i64(res.messages);
  w.i64(res.bytes);
  w.i64(res.compute_ns);
  w.i64(res.comm_wait_ns);
  w.i64(res.barrier_wait_ns);
}

QueryResult decode_query_result(WireReader& r) {
  QueryResult res;
  res.ok = r.u8() != 0;
  if (!res.ok) {
    res.error = r.str();
    return res;
  }
  res.predicted_ns = r.i64();
  res.ideal_ns = r.i64();
  res.measured_ns = r.i64();
  res.messages = r.i64();
  res.bytes = r.i64();
  res.compute_ns = r.i64();
  res.comm_wait_ns = r.i64();
  res.barrier_wait_ns = r.i64();
  return res;
}

namespace {
/// Per-request caps on PATTERN_MODEL array counts (forged counts must not
/// drive allocation; real requests use a handful of each).
constexpr std::uint32_t kMaxPatternProcs = 1u << 10;
constexpr std::uint32_t kMaxPatternEvals = 1u << 12;
constexpr std::uint32_t kMaxPatternRegions = 1u << 16;
}  // namespace

void encode_pattern_query(WireWriter& w, const PatternQuery& q) {
  w.u32(static_cast<std::uint32_t>(q.procs.size()));
  for (std::int32_t p : q.procs) w.i32(p);
  w.f64(q.mips_ratio);
  w.str(q.params_text);
  w.u32(static_cast<std::uint32_t>(q.eval_at.size()));
  for (double n : q.eval_at) w.f64(n);
}

PatternQuery decode_pattern_query(WireReader& r) {
  PatternQuery q;
  const std::uint32_t n_procs = r.u32();
  if (n_procs > kMaxPatternProcs)
    throw ProtocolError("implausible pattern-query proc count");
  q.procs.reserve(n_procs);
  for (std::uint32_t i = 0; i < n_procs; ++i) q.procs.push_back(r.i32());
  q.mips_ratio = r.f64();
  q.params_text = r.str();
  const std::uint32_t n_eval = r.u32();
  if (n_eval > kMaxPatternEvals)
    throw ProtocolError("implausible pattern-query eval count");
  q.eval_at.reserve(n_eval);
  for (std::uint32_t i = 0; i < n_eval; ++i) q.eval_at.push_back(r.f64());
  return q;
}

void encode_pattern_result(WireWriter& w, const PatternModelResult& res) {
  w.u8(res.ok ? 1 : 0);
  if (!res.ok) {
    w.str(res.error);
    return;
  }
  w.u32(static_cast<std::uint32_t>(res.regions.size()));
  for (const PatternRegionWire& reg : res.regions) {
    w.i64(reg.region);
    w.i32(reg.kind);
    w.i32(reg.detail);
    w.i64(reg.parent);
    w.i32(reg.depth);
    w.str(reg.label);
    w.str(reg.model);
  }
  w.str(res.residual_model);
  w.u32(static_cast<std::uint32_t>(res.eval_at.size()));
  for (std::size_t i = 0; i < res.eval_at.size(); ++i) {
    w.f64(res.eval_at[i]);
    w.f64(res.value[i]);
    w.f64(res.lo[i]);
    w.f64(res.hi[i]);
  }
}

PatternModelResult decode_pattern_result(WireReader& r) {
  PatternModelResult res;
  res.ok = r.u8() != 0;
  if (!res.ok) {
    res.error = r.str();
    return res;
  }
  const std::uint32_t n_regions = r.u32();
  if (n_regions > kMaxPatternRegions)
    throw ProtocolError("implausible pattern-model region count");
  res.regions.reserve(n_regions);
  for (std::uint32_t i = 0; i < n_regions; ++i) {
    PatternRegionWire reg;
    reg.region = r.i64();
    reg.kind = r.i32();
    reg.detail = r.i32();
    reg.parent = r.i64();
    reg.depth = r.i32();
    reg.label = r.str();
    reg.model = r.str();
    res.regions.push_back(std::move(reg));
  }
  res.residual_model = r.str();
  const std::uint32_t n_eval = r.u32();
  if (n_eval > kMaxPatternEvals)
    throw ProtocolError("implausible pattern-model eval count");
  res.eval_at.reserve(n_eval);
  for (std::uint32_t i = 0; i < n_eval; ++i) {
    res.eval_at.push_back(r.f64());
    res.value.push_back(r.f64());
    res.lo.push_back(r.f64());
    res.hi.push_back(r.f64());
  }
  return res;
}

void encode_stats(WireWriter& w, const ServerStats& s) {
  w.u64(s.connections_total);
  w.u64(s.connections_open);
  w.u64(s.sessions_open);
  w.u64(s.requests_total);
  w.u64(s.batches);
  w.u64(s.queries_ok);
  w.u64(s.queries_err);
  w.u64(s.queue_depth);
  w.u64(s.cache_entries);
  w.u64(s.cache_bytes);
  w.u64(s.cache_hits);
  w.u64(s.cache_misses);
  w.u64(s.cache_evictions);
  w.f64(s.measure_cpu_s);
  w.f64(s.translate_cpu_s);
  w.f64(s.simulate_cpu_s);
  for (const core::SimCounterField& f : core::kSimCounterFields)
    w.i64(s.sim.*f.member);
}

ServerStats decode_stats(WireReader& r) {
  ServerStats s;
  s.connections_total = r.u64();
  s.connections_open = r.u64();
  s.sessions_open = r.u64();
  s.requests_total = r.u64();
  s.batches = r.u64();
  s.queries_ok = r.u64();
  s.queries_err = r.u64();
  s.queue_depth = r.u64();
  s.cache_entries = r.u64();
  s.cache_bytes = r.u64();
  s.cache_hits = r.u64();
  s.cache_misses = r.u64();
  s.cache_evictions = r.u64();
  s.measure_cpu_s = r.f64();
  s.translate_cpu_s = r.f64();
  s.simulate_cpu_s = r.f64();
  for (const core::SimCounterField& f : core::kSimCounterFields)
    s.sim.*f.member = r.i64();
  return s;
}

std::string ok_reply_body(std::string_view fields) {
  WireWriter w;
  w.u8(0);
  w.raw(fields);
  return w.take();
}

std::string error_reply_body(std::string_view message) {
  WireWriter w;
  w.u8(1);
  w.str(message);
  return w.take();
}

}  // namespace xp::serve
