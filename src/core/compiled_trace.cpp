#include "core/compiled_trace.hpp"

#include "core/translate.hpp"
#include "util/error.hpp"

namespace xp::core {

using trace::Event;
using trace::EventKind;

CompiledTrace CompiledTrace::compile(
    const std::vector<trace::Trace>& translated) {
  CompiledTrace ct;
  ct.n_threads = static_cast<int>(translated.size());
  ct.threads.resize(translated.size());

  for (std::size_t t = 0; t < translated.size(); ++t) {
    const std::vector<Event>& events = translated[t].events();
    CompiledThread& out = ct.threads[t];
    XP_REQUIRE(!events.empty(), "thread trace is empty");
    for (const Event& e : events)
      XP_REQUIRE(e.thread == static_cast<std::int32_t>(t),
                 "translated trace contains foreign events");
    out.ops.reserve(events.size());
    out.pre_delta.reserve(events.size());
    out.proto.reserve(events.size());

    Time prev;
    bool first = true;
    bool done = false;
    for (std::size_t i = 0; i < events.size() && !done; ++i) {
      const Event& e = events[i];
      Time delta = Time::zero();
      if (first) {
        first = false;
      } else {
        delta = e.time - prev;
        XP_CHECK(!delta.is_negative(), "translated trace not time-ordered");
      }
      prev = e.time;
      switch (e.kind) {
        case EventKind::ThreadBegin:
          out.ops.push_back(OpKind::Begin);
          break;
        case EventKind::PhaseBegin:
        case EventKind::PhaseEnd:
        // Pattern-region delimiters are zero-cost markers exactly like user
        // phases: replay re-emits them at the simulated clock so region
        // spans can be extracted from the extrapolated trace.
        case EventKind::PatternBegin:
        case EventKind::PatternEnd:
          out.ops.push_back(OpKind::Phase);
          break;
        case EventKind::ThreadEnd:
          out.ops.push_back(OpKind::End);
          done = true;  // replay stops here; trailing events never run
          break;
        case EventKind::RemoteRead:
        case EventKind::RemoteWrite: {
          out.ops.push_back(OpKind::Remote);
          RemoteRec r;
          r.object = e.object;
          r.peer = e.peer;
          r.declared_bytes = e.declared_bytes;
          r.actual_bytes = e.actual_bytes;
          r.is_write = e.kind == EventKind::RemoteWrite;
          out.remotes.push_back(r);
          break;
        }
        case EventKind::BarrierEntry: {
          // Fold the paired BarrierExit into this step; the interval after
          // the barrier is measured from the exit timestamp (the simulator
          // generates the real exit time itself).
          XP_CHECK(i + 1 < events.size() &&
                       events[i + 1].kind == EventKind::BarrierExit,
                   "BarrierEntry without paired BarrierExit");
          out.ops.push_back(OpKind::Barrier);
          out.barrier_ids.push_back(e.barrier_id);
          prev = events[i + 1].time;
          ++i;
          break;
        }
        case EventKind::BarrierExit:
          XP_CHECK(false, "unpaired BarrierExit reached replay");
          break;
      }
      out.pre_delta.push_back(delta);
      out.proto.push_back(e);
    }
    XP_CHECK(done, "replay ran past end of trace");

    // Segment table: one barrier-delimited slice per Barrier op plus the
    // final slice ending at the End op.  Built after the walk so the op
    // array is final; remote cursors advance with the Remote ops.
    Segment seg;
    std::uint32_t remote_cursor = 0;
    for (std::uint32_t i = 0; i < out.ops.size(); ++i) {
      seg.presum += out.pre_delta[i];
      if (out.ops[i] == OpKind::Remote) {
        const RemoteRec& r = out.remotes[remote_cursor++];
        if (r.peer != static_cast<std::int32_t>(t)) {
          ++seg.nonself_remotes;
          seg.nonself_declared_bytes += r.declared_bytes;
          seg.nonself_actual_bytes += r.actual_bytes;
        }
      }
      if (out.ops[i] == OpKind::Barrier || out.ops[i] == OpKind::End) {
        seg.op_end = i;
        seg.remote_end = remote_cursor;
        out.segments.push_back(seg);
        seg = Segment{};
        seg.op_begin = i + 1;
        seg.remote_begin = remote_cursor;
      }
    }
  }

  // Segment-collapse precondition: lockstep epochs.
  ct.uniform_barriers = true;
  for (std::size_t t = 1; t < ct.threads.size(); ++t)
    if (ct.threads[t].barrier_ids != ct.threads[0].barrier_ids) {
      ct.uniform_barriers = false;
      break;
    }
  // Representative-epoch class table (core/translate.hpp): grouped here,
  // once per compile, so sampling shares it across every simulation of a
  // sweep — the same amortization contract as the segment table.  Only
  // meaningful under lockstep barriers (the sampled path's precondition).
  if (ct.uniform_barriers) ct.epoch_classes = build_epoch_classes(ct);
  return ct;
}

}  // namespace xp::core
