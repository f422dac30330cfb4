// Unit tests for the trace model, validation, I/O, and summaries.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/extrapolator.hpp"
#include "trace/summary.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "trace_order.hpp"

namespace xp::trace {
namespace {

Event ev(std::int64_t t_ns, int thread, EventKind kind, int barrier = -1,
         int peer = -1, std::int64_t object = -1, int declared = 0,
         int actual = 0) {
  Event e;
  e.time = Time::ns(t_ns);
  e.thread = thread;
  e.kind = kind;
  e.barrier_id = barrier;
  e.peer = peer;
  e.object = object;
  e.declared_bytes = declared;
  e.actual_bytes = actual;
  return e;
}

// A minimal valid 2-thread trace with one barrier and one remote read.
Trace valid_trace() {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(100, 0, EventKind::BarrierEntry, 0));
  t.append(ev(110, 1, EventKind::ThreadBegin));
  t.append(ev(200, 1, EventKind::RemoteRead, -1, 0, 7, 64, 8));
  t.append(ev(300, 1, EventKind::BarrierEntry, 0));
  t.append(ev(310, 1, EventKind::BarrierExit, 0));
  t.append(ev(320, 1, EventKind::ThreadEnd));
  t.append(ev(400, 0, EventKind::BarrierExit, 0));
  t.append(ev(410, 0, EventKind::ThreadEnd));
  return t;
}

TEST(EventTest, KindRoundTrip) {
  for (int k = 0; k <= static_cast<int>(EventKind::PhaseEnd); ++k) {
    const auto kind = static_cast<EventKind>(k);
    EventKind back;
    ASSERT_TRUE(kind_from_string(to_string(kind), back));
    EXPECT_EQ(back, kind);
  }
  EventKind dummy;
  EXPECT_FALSE(kind_from_string("NOPE", dummy));
}

TEST(EventTest, StrContainsFields) {
  const Event e = ev(42, 3, EventKind::RemoteRead, -1, 1, 9, 100, 10);
  const std::string s = e.str();
  EXPECT_NE(s.find("RREAD"), std::string::npos);
  EXPECT_NE(s.find("thr=3"), std::string::npos);
}

TEST(TraceTest, SortIsStable) {
  Trace t(2);
  t.append(ev(100, 0, EventKind::ThreadBegin));
  t.append(ev(50, 1, EventKind::ThreadBegin));
  t.append(ev(100, 1, EventKind::ThreadEnd));  // equal time: keeps order
  t.sort_by_time();
  EXPECT_TRUE(test::time_ordered(t));
  EXPECT_EQ(t[0].thread, 1);
  EXPECT_EQ(t[1].thread, 0);
  EXPECT_EQ(t[2].kind, EventKind::ThreadEnd);
}

TEST(TraceTest, SplitAndMergeRoundTrip) {
  Trace t = valid_trace();
  t.sort_by_time();
  t.set_meta("program", "demo");
  const auto parts = t.split_by_thread();
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].meta("thread"), "0");
  EXPECT_EQ(parts[1].meta("thread"), "1");
  for (const auto& p : parts)
    for (const auto& e : p.events()) EXPECT_EQ(e.thread, p.meta("thread")[0] - '0');
  const Trace merged = Trace::merge(parts);
  EXPECT_EQ(merged.size(), t.size());
  EXPECT_TRUE(test::time_ordered(merged));
  EXPECT_EQ(merged.meta("program"), "demo");
}

TEST(TraceTest, EndTime) {
  EXPECT_EQ(valid_trace().end_time(), Time::ns(410));
  EXPECT_EQ(Trace(1).end_time(), Time::zero());
}

TEST(TraceValidate, AcceptsValidTrace) {
  EXPECT_NO_THROW(valid_trace().validate());
}

TEST(TraceValidate, RejectsMissingBegin) {
  Trace t(1);
  t.append(ev(0, 0, EventKind::BarrierEntry, 0));
  EXPECT_THROW(t.validate(), util::TraceError);
}

TEST(TraceValidate, RejectsEventAfterEnd) {
  Trace t(1);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(1, 0, EventKind::ThreadEnd));
  t.append(ev(2, 0, EventKind::PhaseBegin));
  EXPECT_THROW(t.validate(), util::TraceError);
}

TEST(TraceValidate, RejectsNestedBarrierEntry) {
  Trace t(1);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(1, 0, EventKind::BarrierEntry, 0));
  t.append(ev(2, 0, EventKind::BarrierEntry, 1));
  EXPECT_THROW(t.validate(), util::TraceError);
}

// Regression mutants of the grid_n4 golden trace: each is a one-line edit
// that validation used to accept, letting the input reach a library
// invariant (translate's barrier-pairing check) or predict with a
// nonsensical clock.  prepare_trace must reject each as a TraceError.
std::string golden_text() {
  std::ifstream in(XP_GOLDEN_DIR "/grid_n4.xpt");
  EXPECT_TRUE(in.good()) << "missing golden trace";
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The golden text with its first `from` line replaced by `to`.
std::string mutate_golden(const std::string& from, const std::string& to) {
  std::string text = golden_text();
  const auto at = text.find(from + "\n");
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

core::TranslatedTrace prepare_text(const std::string& text) {
  std::istringstream in(text);
  return core::prepare_trace(read_text(in));
}

TEST(TraceValidate, RejectsRemoteInsideBarrier) {
  // Thread 0 reads remotely between its BarrierEntry and BarrierExit.
  const std::string text = mutate_golden(
      "E 0 0 BARENTRY 0 -1 -1 0 0",
      "E 0 0 BARENTRY 0 -1 -1 0 0\nE 0 0 RREAD -1 1 6 231456 64");
  EXPECT_THROW(prepare_text(text), util::TraceError);
}

TEST(TraceValidate, RejectsTimeSteppingBack) {
  const std::string text = mutate_golden(
      "E 1352112 0 RREAD -1 1 2 231456 64",
      "E 1352111 0 RREAD -1 1 2 231456 64");
  EXPECT_THROW(prepare_text(text), util::TraceError);
}

TEST(TraceValidate, RejectsTimeAboveTheCap) {
  const std::string text = mutate_golden(
      "E 1352112 3 BARENTRY 1 -1 -1 0 0",
      "E 9223372036854775807 3 BARENTRY 1 -1 -1 0 0");
  EXPECT_THROW(prepare_text(text), util::TraceError);
}

TEST(TraceValidate, TimeBoundsAreInclusive) {
  Trace t(1);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(kMaxTraceTimeNs, 0, EventKind::ThreadEnd));
  EXPECT_NO_THROW(t.validate());
  t.mutable_events()[1].time = Time::ns(kMaxTraceTimeNs + 1);
  EXPECT_THROW(t.validate(), util::TraceError);
  t.mutable_events()[1].time = Time::ns(0);
  t.mutable_events()[0].time = Time::ns(-1);
  EXPECT_THROW(t.validate(), util::TraceError);
}

TEST(TraceValidate, RejectsExitWithoutEntry) {
  Trace t(1);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(1, 0, EventKind::BarrierExit, 0));
  EXPECT_THROW(t.validate(), util::TraceError);
}

TEST(TraceValidate, RejectsBarrierIdMismatch) {
  Trace t(1);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(1, 0, EventKind::BarrierEntry, 0));
  t.append(ev(2, 0, EventKind::BarrierExit, 1));
  EXPECT_THROW(t.validate(), util::TraceError);
}

TEST(TraceValidate, RejectsDivergentBarrierSequences) {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(0, 1, EventKind::ThreadBegin));
  t.append(ev(1, 0, EventKind::BarrierEntry, 0));
  t.append(ev(2, 0, EventKind::BarrierExit, 0));
  t.append(ev(3, 0, EventKind::ThreadEnd));
  t.append(ev(3, 1, EventKind::ThreadEnd));  // thread 1 never barriered
  EXPECT_THROW(t.validate(), util::TraceError);
}

TEST(TraceValidate, RejectsBadRemotePeer) {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(0, 1, EventKind::ThreadBegin));
  t.append(ev(1, 0, EventKind::RemoteRead, -1, 5, 0, 8, 8));
  EXPECT_THROW(t.validate(), util::TraceError);
}

TEST(TraceValidate, RejectsActualLargerThanDeclared) {
  Trace t(2);
  t.append(ev(0, 0, EventKind::ThreadBegin));
  t.append(ev(0, 1, EventKind::ThreadBegin));
  t.append(ev(1, 0, EventKind::RemoteRead, -1, 1, 0, 8, 64));
  EXPECT_THROW(t.validate(), util::TraceError);
}

TEST(TraceValidate, RejectsThreadOutOfRange) {
  Trace t(1);
  t.append(ev(0, 5, EventKind::ThreadBegin));
  EXPECT_THROW(t.validate(), util::TraceError);
}

// --- I/O --------------------------------------------------------------------

TEST(TraceIo, TextRoundTrip) {
  Trace t = valid_trace();
  t.set_meta("program", "demo prog");
  std::stringstream ss;
  write_text(t, ss);
  const Trace back = read_text(ss);
  EXPECT_EQ(back.n_threads(), t.n_threads());
  EXPECT_EQ(back.size(), t.size());
  EXPECT_EQ(back.meta("program"), "demo prog");
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(back[i], t[i]);
}

TEST(TraceIo, BinaryRoundTrip) {
  Trace t = valid_trace();
  t.set_meta("mflops", "1.136");
  std::stringstream ss;
  write_binary(t, ss);
  const Trace back = read_binary(ss);
  EXPECT_EQ(back.n_threads(), t.n_threads());
  ASSERT_EQ(back.size(), t.size());
  EXPECT_EQ(back.meta("mflops"), "1.136");
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(back[i], t[i]);
}

TEST(TraceIo, TextRejectsBadHeader) {
  std::stringstream ss("not a trace\n");
  EXPECT_THROW(read_text(ss), util::TraceError);
}

TEST(TraceIo, TextRejectsGarbageEventLine) {
  std::stringstream ss("#XPTRACE v1\n#threads 1\nE garbage\n");
  EXPECT_THROW(read_text(ss), util::TraceError);
}

TEST(TraceIo, TextRequiresThreads) {
  std::stringstream ss("#XPTRACE v1\n");
  EXPECT_THROW(read_text(ss), util::TraceError);
}

TEST(TraceIo, BinaryRejectsBadMagic) {
  std::stringstream ss("XXXX????");
  EXPECT_THROW(read_binary(ss), util::TraceError);
}

TEST(TraceIo, BinaryRejectsTruncation) {
  Trace t = valid_trace();
  std::stringstream ss;
  write_binary(t, ss);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data);
  EXPECT_THROW(read_binary(cut), util::TraceError);
}

TEST(TraceIo, BinaryFuzzCorruptionNeverCrashes) {
  // Flip bytes all over a serialized trace: the reader must either parse
  // something or throw TraceError — never crash, hang, or allocate wildly.
  Trace t = valid_trace();
  for (int i = 0; i < 64; ++i) t.append(ev(500 + i, i % 2, EventKind::PhaseBegin));
  std::stringstream ss;
  write_binary(t, ss);
  const std::string original = ss.str();
  util::Xoshiro256ss rng(0xF422);
  for (int trial = 0; trial < 300; ++trial) {
    std::string data = original;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.next_below(data.size()));
      data[pos] = static_cast<char>(rng.next());
    }
    std::stringstream in(data);
    try {
      const Trace back = read_binary(in);
      (void)back;  // parsed despite the corruption: fine
    } catch (const util::TraceError&) {
      // rejected cleanly: fine
    }
  }
}

TEST(TraceIo, TextFuzzGarbageLines) {
  util::Xoshiro256ss rng(0x7E47);
  for (int trial = 0; trial < 100; ++trial) {
    std::string text = "#XPTRACE v1\n#threads 2\n";
    const int lines = 1 + static_cast<int>(rng.next_below(5));
    for (int l = 0; l < lines; ++l) {
      std::string line;
      const std::size_t len = rng.next_below(40);
      for (std::size_t c = 0; c < len; ++c)
        line += static_cast<char>(32 + rng.next_below(95));
      text += line + "\n";
    }
    std::stringstream in(text);
    try {
      (void)read_text(in);
    } catch (const util::TraceError&) {
    }
  }
}

TEST(TraceIo, SaveLoadByExtension) {
  const Trace t = valid_trace();
  const std::string text_path = ::testing::TempDir() + "/t.xpt";
  const std::string bin_path = ::testing::TempDir() + "/t.xptb";
  save(t, text_path);
  save(t, bin_path);
  EXPECT_EQ(load(text_path).size(), t.size());
  EXPECT_EQ(load(bin_path).size(), t.size());
}

// --- summary ------------------------------------------------------------

TEST(Summary, CountsAndVolumes) {
  const Summary s = summarize(valid_trace());
  EXPECT_EQ(s.n_threads, 2);
  EXPECT_EQ(s.events, 9);
  EXPECT_EQ(s.barriers, 1);
  EXPECT_EQ(s.remote_reads, 1);
  EXPECT_EQ(s.remote_writes, 0);
  EXPECT_EQ(s.declared_bytes, 64);
  EXPECT_EQ(s.actual_bytes, 8);
}

TEST(Summary, ComputeExcludesBarrierWait) {
  // Thread 0: begin(0) -> entry(100) -> exit(400) -> end(410).
  // Compute = 100 (begin->entry) + 10 (exit->end); the 300 ns wait span is
  // synchronization, not compute.
  const Summary s = summarize(valid_trace());
  EXPECT_EQ(s.threads[0].compute, Time::ns(110));
  // Thread 1: begin(110)->read(200)->entry(300): 190; exit(310)->end(320): 10.
  EXPECT_EQ(s.threads[1].compute, Time::ns(200));
  EXPECT_EQ(s.total_compute, Time::ns(310));
}

TEST(Summary, StrMentionsKeyFigures) {
  const std::string s = summarize(valid_trace()).str();
  EXPECT_NE(s.find("barriers=1"), std::string::npos);
  EXPECT_NE(s.find("rreads=1"), std::string::npos);
}

}  // namespace
}  // namespace xp::trace
