// Golden-file round-trip coverage for trace serialization.
//
// A golden measured trace of the Grid suite program (the §4.1 subject) is
// checked in at tests/golden/grid_n4.xpt.  These tests pin three contracts
// at the byte level:
//
//   1. text I/O is a bijection on its image: read(golden) then write
//      reproduces the file byte for byte;
//   2. binary I/O round-trips losslessly: write_binary -> read_binary ->
//      write_binary yields identical bytes, and the re-read trace still
//      textualizes to the golden bytes;
//   3. measurement is reproducible: re-measuring the pinned program/config
//      yields the golden bytes — the property that makes a TranslateCache
//      key (the thread count) a sound stand-in for the trace content
//      itself (core/sweep.hpp's cache-key contract).
//
// Regenerate after an intentional tracer/suite change with:
//   XP_REGEN_GOLDEN=1 ./trace_io_roundtrip_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "pattern/pattern.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

namespace xp::trace {
namespace {

const char* kGoldenPath = XP_GOLDEN_DIR "/grid_n4.xpt";

// The pinned measurement: Grid, 4 threads, a reduced problem size that
// keeps the golden file small but still exercises every event kind.
Trace measure_golden_program() {
  suite::SuiteConfig cfg;
  cfg.grid_blocks = 4;
  cfg.grid_block_points = 8;
  cfg.grid_iters = 3;
  auto prog = suite::make_grid(cfg);
  rt::MeasureOptions mo;
  mo.n_threads = 4;
  return rt::measure(*prog, mo);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string to_text(const Trace& t) {
  std::ostringstream os;
  write_text(t, os);
  return os.str();
}

std::string to_binary(const Trace& t) {
  std::ostringstream os;
  write_binary(t, os);
  return os.str();
}

TEST(TraceIoRoundTrip, RegenerateGolden) {
  if (std::getenv("XP_REGEN_GOLDEN") == nullptr)
    GTEST_SKIP() << "set XP_REGEN_GOLDEN=1 to rewrite " << kGoldenPath;
  std::ofstream out(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(out.good());
  write_text(measure_golden_program(), out);
}

TEST(TraceIoRoundTrip, TextReadWriteReproducesGoldenBytes) {
  const std::string golden = slurp(kGoldenPath);
  ASSERT_FALSE(golden.empty());
  std::istringstream in(golden);
  const Trace t = read_text(in);
  t.validate();
  EXPECT_EQ(t.n_threads(), 4);
  EXPECT_EQ(to_text(t), golden);
}

TEST(TraceIoRoundTrip, BinaryRoundTripIsLossless) {
  std::istringstream in(slurp(kGoldenPath));
  const Trace t = read_text(in);

  const std::string bin1 = to_binary(t);
  std::istringstream bin_in(bin1);
  const Trace t2 = read_binary(bin_in);
  t2.validate();
  const std::string bin2 = to_binary(t2);
  EXPECT_EQ(bin1, bin2) << "binary write->read->write changed bytes";
  EXPECT_EQ(to_text(t2), to_text(t))
      << "binary round trip changed the text rendition";
}

TEST(TraceIoRoundTrip, MeasurementReproducesGoldenBytes) {
  const std::string golden = slurp(kGoldenPath);
  const Trace fresh = measure_golden_program();
  EXPECT_EQ(to_text(fresh), golden)
      << "re-measuring the pinned Grid config no longer matches the golden "
         "trace; if the tracer or suite changed intentionally, regenerate "
         "with XP_REGEN_GOLDEN=1";
}

// --- malformed-input hardening ---------------------------------------------
//
// The serve daemon feeds read_binary() bytes straight off a socket, so both
// readers must reject anything structurally invalid with TraceError — never
// index out of range, loop on a forged count, or allocate ahead of the
// bytes actually present.

Trace tiny_trace() {
  Trace t;
  t.set_n_threads(2);
  Event e;
  e.kind = EventKind::ThreadBegin;
  e.time = util::Time::ns(10);
  e.thread = 0;
  e.peer = -1;
  t.append(e);
  e.thread = 1;
  e.time = util::Time::ns(20);
  t.append(e);
  return t;
}

Trace read_text_str(const std::string& s) {
  std::istringstream in(s);
  return read_text(in);
}

Trace read_binary_str(const std::string& s) {
  std::istringstream in(s);
  return read_binary(in);
}

TEST(TraceIoMalformed, TextRejectsStructurallyInvalidInput) {
  using util::TraceError;
  const std::string hdr = "#XPTRACE v1\n#threads 2\n";
  // Not a trace at all.
  EXPECT_THROW(read_text_str(""), TraceError);
  EXPECT_THROW(read_text_str("#XPTRACE v2\n"), TraceError);
  // #threads must be present, positive, and sane.
  EXPECT_THROW(read_text_str("#XPTRACE v1\n"), TraceError);
  EXPECT_THROW(read_text_str("#XPTRACE v1\n#threads 0\n"), TraceError);
  EXPECT_THROW(read_text_str("#XPTRACE v1\n#threads -3\n"), TraceError);
  EXPECT_THROW(read_text_str("#XPTRACE v1\n#threads 9999999999\n"),
               TraceError);
  // Events may not precede the #threads directive (their thread field
  // would be unvalidatable).
  EXPECT_THROW(
      read_text_str("#XPTRACE v1\nE 0 0 BEGIN 0 -1 0 0 0\n#threads 2\n"),
      TraceError);
  EXPECT_THROW(read_text_str(hdr + "#bogus directive\n"), TraceError);
  EXPECT_THROW(read_text_str(hdr + "E 0 0 NOT_A_KIND 0 -1 0 0 0\n"),
               TraceError);
  EXPECT_THROW(read_text_str(hdr + "E 0 0\n"), TraceError);
  // Field-range checks: thread, peer, timestamp, transfer sizes.
  EXPECT_THROW(read_text_str(hdr + "E 0 2 BEGIN 0 -1 0 0 0\n"), TraceError);
  EXPECT_THROW(read_text_str(hdr + "E 0 -1 BEGIN 0 -1 0 0 0\n"), TraceError);
  EXPECT_THROW(read_text_str(hdr + "E 0 0 BEGIN 0 2 0 0 0\n"), TraceError);
  EXPECT_THROW(read_text_str(hdr + "E 0 0 BEGIN 0 -2 0 0 0\n"), TraceError);
  EXPECT_THROW(read_text_str(hdr + "E -5 0 BEGIN 0 -1 0 0 0\n"), TraceError);
  EXPECT_THROW(read_text_str(hdr + "E 0 0 BEGIN 0 -1 0 -4 0\n"), TraceError);
  EXPECT_THROW(read_text_str(hdr + "E 0 0 BEGIN 0 -1 0 0 -4\n"), TraceError);
  // The well-formed version of the same trace parses.
  EXPECT_NO_THROW(read_text_str(hdr + "E 0 0 BEGIN 0 -1 0 0 0\n"));
}

TEST(TraceIoMalformed, BinaryRejectsStructurallyInvalidInput) {
  using util::TraceError;
  std::ostringstream os;
  write_binary(tiny_trace(), os);
  const std::string good = os.str();
  ASSERT_NO_THROW(read_binary_str(good));
  // Layout: magic[4] | version u32 | n_threads i32 | n_meta u32 |
  //         n_events u64 | events (37 bytes each).
  constexpr std::size_t kVersionOff = 4;
  constexpr std::size_t kThreadsOff = 8;
  constexpr std::size_t kMetaCountOff = 12;
  constexpr std::size_t kEventCountOff = 16;
  constexpr std::size_t kFirstEventOff = 24;
  const auto with = [&](std::size_t off, std::initializer_list<int> bytes) {
    std::string s = good;
    std::size_t i = off;
    for (const int b : bytes) s[i++] = static_cast<char>(b);
    return s;
  };

  EXPECT_THROW(read_binary_str(""), TraceError);
  EXPECT_THROW(read_binary_str("XPTA"), TraceError);  // bad magic
  EXPECT_THROW(read_binary_str(with(0, {'Y'})), TraceError);
  EXPECT_THROW(read_binary_str(with(kVersionOff, {9})), TraceError);
  // Thread count: zero, negative, over the cap.
  EXPECT_THROW(read_binary_str(with(kThreadsOff, {0, 0, 0, 0})), TraceError);
  EXPECT_THROW(
      read_binary_str(with(kThreadsOff, {0xff, 0xff, 0xff, 0xff})),
      TraceError);
  EXPECT_THROW(
      read_binary_str(with(kThreadsOff, {0, 0, 0, 0x7f})), TraceError);
  // Forged meta count cannot drive the meta loop.
  EXPECT_THROW(
      read_binary_str(with(kMetaCountOff, {0xff, 0xff, 0xff, 0x0f})),
      TraceError);
  // Forged event count runs out of bytes -> "truncated", not a hang/alloc.
  EXPECT_THROW(
      read_binary_str(with(kEventCountOff, {0xff, 0xff, 0xff, 0xff})),
      TraceError);
  // Truncation at every byte boundary is detected.
  for (const std::size_t cut : {3u, 7u, 11u, 15u, 23u, 30u}) {
    EXPECT_THROW(read_binary_str(good.substr(0, cut)), TraceError)
        << "cut at byte " << cut;
  }
  // Event field validation: kind, thread, peer live at fixed offsets in
  // the first event record (time i64 | thread i32 | kind u8 | barrier i32 |
  // peer i32 | object i64 | declared i32 | actual i32).
  EXPECT_THROW(
      read_binary_str(with(kFirstEventOff + 12, {0x7f})), TraceError);
  EXPECT_THROW(
      read_binary_str(with(kFirstEventOff + 8, {9, 0, 0, 0})), TraceError);
  EXPECT_THROW(
      read_binary_str(with(kFirstEventOff + 17, {0xfe, 0xff, 0xff, 0xff})),
      TraceError);
  // Trailing bytes after the declared events poison the stream.
  EXPECT_THROW(read_binary_str(good + "x"), TraceError);
}

TEST(TraceIoMalformed, GoldenUploadSurvivesRoundTripUnderChecks) {
  // The hardening must not reject real traces: the golden file and its
  // binary rendition still parse with every check in place.
  std::istringstream in(slurp(kGoldenPath));
  const Trace t = read_text(in);
  std::ostringstream os;
  write_binary(t, os);
  std::istringstream bin(os.str());
  EXPECT_NO_THROW(read_binary(bin));
}

// --- pattern goldens (format v2) -------------------------------------------
//
// One golden per pattern node kind, measured at n=2 with pinned small
// specs.  They pin the v2 content gate from both sides: traces WITH
// pattern delimiters serialize as v2 and round-trip byte-exactly, while
// pattern-free traces (everything above) stay on v1 bytes.

struct PatternGolden {
  const char* path;
  const char* program;
  std::unique_ptr<pattern::Node> (*build)();
};

const PatternGolden kPatternGoldens[] = {
    {XP_GOLDEN_DIR "/pattern_pipeline_n2.xpt", "golden_pipeline",
     [] {
       pattern::PipelineSpec s;
       s.stages = 4;
       s.items = 8;
       return pattern::make_pipeline("gold", s);
     }},
    {XP_GOLDEN_DIR "/pattern_mapreduce_n2.xpt", "golden_mapreduce",
     [] {
       pattern::MapReduceSpec s;
       s.items = 64;
       s.bins = 4;
       return pattern::make_mapreduce("gold", s);
     }},
    {XP_GOLDEN_DIR "/pattern_taskpool_n2.xpt", "golden_taskpool",
     [] {
       pattern::TaskPoolSpec s;
       s.tasks = 12;
       return pattern::make_taskpool("gold", s);
     }},
};

Trace measure_pattern_golden(const PatternGolden& g) {
  pattern::PatternProgram prog(g.program, g.build);
  rt::MeasureOptions mo;
  mo.n_threads = 2;
  return rt::measure(prog, mo);
}

TEST(TraceIoPatternGolden, RegeneratePatternGoldens) {
  if (std::getenv("XP_REGEN_GOLDEN") == nullptr)
    GTEST_SKIP() << "set XP_REGEN_GOLDEN=1 to rewrite the pattern goldens";
  for (const PatternGolden& g : kPatternGoldens) {
    std::ofstream out(g.path, std::ios::binary);
    ASSERT_TRUE(out.good()) << g.path;
    write_text(measure_pattern_golden(g), out);
  }
}

TEST(TraceIoPatternGolden, TextAndBinaryRoundTripsReproduceBytes) {
  for (const PatternGolden& g : kPatternGoldens) {
    SCOPED_TRACE(g.path);
    const std::string golden = slurp(g.path);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(golden.rfind("#XPTRACE v2\n", 0), 0u)
        << "a pattern trace must serialize as format v2";

    std::istringstream in(golden);
    const Trace t = read_text(in);
    t.validate();
    EXPECT_TRUE(has_pattern_events(t));
    EXPECT_EQ(to_text(t), golden);

    const std::string bin1 = to_binary(t);
    // Binary version word is content-gated too: v2 for pattern traces.
    ASSERT_GT(bin1.size(), 8u);
    EXPECT_EQ(static_cast<int>(static_cast<unsigned char>(bin1[4])), 2);
    std::istringstream bin_in(bin1);
    const Trace t2 = read_binary(bin_in);
    t2.validate();
    EXPECT_EQ(to_binary(t2), bin1);
    EXPECT_EQ(to_text(t2), golden);
  }
}

TEST(TraceIoPatternGolden, MeasurementReproducesGoldenBytes) {
  for (const PatternGolden& g : kPatternGoldens) {
    SCOPED_TRACE(g.path);
    EXPECT_EQ(to_text(measure_pattern_golden(g)), slurp(g.path))
        << "re-measuring the pinned pattern node no longer matches; if the "
           "tracer or pattern bodies changed intentionally, regenerate with "
           "XP_REGEN_GOLDEN=1";
  }
}

TEST(TraceIoPatternGolden, PatternFreeTracesKeepV1Bytes) {
  // The content gate's other half: no pattern events, no v2 header — old
  // readers keep parsing everything an unchanged program produces.
  const Trace t = tiny_trace();
  ASSERT_FALSE(has_pattern_events(t));
  EXPECT_EQ(to_text(t).rfind("#XPTRACE v1\n", 0), 0u);
  const std::string bin = to_binary(t);
  ASSERT_GT(bin.size(), 8u);
  EXPECT_EQ(static_cast<int>(static_cast<unsigned char>(bin[4])), 1);
}

TEST(TraceIoPatternMalformed, TextRejectsPatternCorruptions) {
  using util::TraceError;
  const std::string v1 = "#XPTRACE v1\n#threads 2\n";
  const std::string v2 = "#XPTRACE v2\n#threads 2\n";
  // Pattern kinds are a v2 feature: a v1 stream carrying them is corrupt.
  EXPECT_THROW(read_text_str(v1 + "E 0 0 PATBEGIN 1 -1 3 4 0\n"), TraceError);
  EXPECT_THROW(read_text_str(v1 + "E 0 0 PATEND 1 -1 3 0 0\n"), TraceError);
  // Region ids start at 1; kind and structural detail are non-negative.
  EXPECT_THROW(read_text_str(v2 + "E 0 0 PATBEGIN 1 -1 0 4 0\n"), TraceError);
  EXPECT_THROW(read_text_str(v2 + "E 0 0 PATBEGIN 1 -1 -3 4 0\n"), TraceError);
  EXPECT_THROW(read_text_str(v2 + "E 0 0 PATBEGIN -1 -1 3 4 0\n"), TraceError);
  EXPECT_THROW(read_text_str(v2 + "E 0 0 PATBEGIN 1 -1 3 -4 0\n"), TraceError);
  EXPECT_THROW(read_text_str(v2 + "E 0 0 PATEND 1 -1 0 0 0\n"), TraceError);
  // The well-formed versions of the same lines parse.
  EXPECT_NO_THROW(read_text_str(v2 + "E 0 0 PATBEGIN 1 -1 3 4 0\n"));
  EXPECT_NO_THROW(read_text_str(v2 + "E 0 0 PATEND 1 -1 3 0 0\n"));
}

TEST(TraceIoPatternMalformed, BinaryRejectsPatternCorruptions) {
  using util::TraceError;
  std::istringstream in(slurp(kPatternGoldens[1].path));  // mapreduce
  const Trace t = read_text(in);
  const std::string good = to_binary(t);
  ASSERT_NO_THROW(read_binary_str(good));

  // Events are 37-byte records at the tail; locate the first pattern event
  // (kind u8 at +12, barrier i32 at +13, object i64 at +21 in a record).
  constexpr std::size_t kRecord = 37;
  std::size_t pat_index = t.events().size();
  for (std::size_t i = 0; i < t.events().size(); ++i)
    if (is_pattern(t.events()[i].kind)) {
      pat_index = i;
      break;
    }
  ASSERT_LT(pat_index, t.events().size());
  const std::size_t rec =
      good.size() - t.events().size() * kRecord + pat_index * kRecord;
  const auto with = [&](std::size_t off, std::initializer_list<int> bytes) {
    std::string s = good;
    std::size_t i = off;
    for (const int b : bytes) s[i++] = static_cast<char>(b);
    return s;
  };

  // A v1 version word over a stream with pattern kinds: the kinds are now
  // out of range for the declared version.
  EXPECT_THROW(read_binary_str(with(4, {1})), TraceError);
  // Kind byte beyond the v2 maximum.
  EXPECT_THROW(read_binary_str(with(rec + 12, {10})), TraceError);
  // Region id forged to 0 (and to a negative value).
  EXPECT_THROW(read_binary_str(with(rec + 21, {0, 0, 0, 0, 0, 0, 0, 0})),
               TraceError);
  EXPECT_THROW(
      read_binary_str(with(rec + 21,
                           {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})),
      TraceError);
  // Pattern kind (barrier field) forged negative.
  EXPECT_THROW(
      read_binary_str(with(rec + 13, {0xff, 0xff, 0xff, 0xff})), TraceError);
}

TEST(TraceIoRoundTrip, FileExtensionDispatch) {
  std::istringstream in(slurp(kGoldenPath));
  const Trace t = read_text(in);
  const std::string tmp_text = ::testing::TempDir() + "roundtrip.xpt";
  const std::string tmp_bin = ::testing::TempDir() + "roundtrip.xptb";
  save(t, tmp_text);
  save(t, tmp_bin);
  EXPECT_EQ(to_text(load(tmp_text)), to_text(t));
  EXPECT_EQ(to_text(load(tmp_bin)), to_text(t));
  std::remove(tmp_text.c_str());
  std::remove(tmp_bin.c_str());
}

}  // namespace
}  // namespace xp::trace
