#include "core/compiled_trace.hpp"

#include <string>

#include "core/translate.hpp"
#include "util/error.hpp"

namespace xp::core {

using trace::Event;
using trace::EventKind;

void ThreadLowering::push(const Event& e, Time delta, Time at) {
  OpKind op = OpKind::Phase;
  switch (e.kind) {
    case EventKind::ThreadBegin:
      op = OpKind::Begin;
      break;
    case EventKind::PhaseBegin:
    case EventKind::PhaseEnd:
    // Pattern-region delimiters are zero-cost markers exactly like user
    // phases: replay re-emits them at the simulated clock so region spans
    // can be extracted from the extrapolated trace.
    case EventKind::PatternBegin:
    case EventKind::PatternEnd:
      break;
    case EventKind::ThreadEnd:
      op = OpKind::End;
      break;
    case EventKind::RemoteRead:
    case EventKind::RemoteWrite: {
      op = OpKind::Remote;
      RemoteRec r;
      r.peer = e.peer;
      r.declared_bytes = e.declared_bytes;
      r.actual_bytes = e.actual_bytes;
      r.is_write = e.kind == EventKind::RemoteWrite;
      out->remotes.push_back(r);
      if (r.peer != thread) {
        ++open.nonself_remotes;
        open.nonself_declared_bytes += r.declared_bytes;
        open.nonself_actual_bytes += r.actual_bytes;
      }
      break;
    }
    case EventKind::BarrierEntry: {
      op = OpKind::Barrier;
      // Every closed segment so far ended at one of this thread's barriers.
      const std::size_t k = out->segments.size();
      if (k == barrier_ids->size())
        barrier_ids->push_back(e.barrier_id);
      else if ((*barrier_ids)[k] != e.barrier_id)
        throw util::TraceError(
            "thread " + std::to_string(thread) + " passes barrier " +
            std::to_string(e.barrier_id) + " where another thread passes " +
            std::to_string((*barrier_ids)[k]) +
            " (the data-parallel model requires identical barrier "
            "sequences)");
      break;
    }
    case EventKind::BarrierExit:
      XP_CHECK(false, "unpaired BarrierExit reached replay");
      break;
  }
  out->ops.push_back(op);
  out->pre_delta.push_back(delta);
  out->proto.push_back(e);
  out->proto.back().time = at;
  open.presum += delta;
  if (op == OpKind::Barrier || op == OpKind::End) {
    // Close the barrier-delimited slice this step terminates.
    const auto i = static_cast<std::uint32_t>(out->ops.size() - 1);
    const auto r = static_cast<std::uint32_t>(out->remotes.size());
    open.op_end = i;
    open.remote_end = r;
    out->segments.push_back(open);
    open = Segment{};
    open.op_begin = i + 1;
    open.remote_begin = r;
  }
}

CompiledTrace CompiledTrace::compile(
    const std::vector<trace::Trace>& translated) {
  CompiledTrace ct;
  ct.n_threads = static_cast<int>(translated.size());
  ct.threads.resize(translated.size());

  for (std::size_t t = 0; t < translated.size(); ++t) {
    const std::vector<Event>& events = translated[t].events();
    CompiledThread& out = ct.threads[t];
    const auto fail = [t](const std::string& what) {
      throw util::TraceError("thread " + std::to_string(t) + ": " + what);
    };
    if (events.empty()) fail("thread trace is empty");
    for (const Event& e : events)
      if (e.thread != static_cast<std::int32_t>(t))
        fail("translated trace contains foreign events");
    out.ops.reserve(events.size());
    out.pre_delta.reserve(events.size());
    out.proto.reserve(events.size());

    ThreadLowering low{&out, &ct.barrier_ids, static_cast<std::int32_t>(t),
                       {}};
    Time prev;
    bool first = true;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      Time delta = Time::zero();
      if (first) {
        first = false;
      } else {
        delta = e.time - prev;
        if (delta.is_negative()) fail("translated trace not time-ordered");
      }
      prev = e.time;
      if (e.kind == EventKind::BarrierExit)
        fail("BarrierExit without BarrierEntry");
      if (e.kind == EventKind::BarrierEntry) {
        // Fold the paired BarrierExit into this step; the interval after
        // the barrier is measured from the exit timestamp (the simulator
        // generates the real exit time itself).
        if (i + 1 == events.size() ||
            events[i + 1].kind != EventKind::BarrierExit)
          fail("BarrierEntry without paired BarrierExit");
        prev = events[++i].time;
      }
      low.push(e, delta, e.time);
      if (e.kind == EventKind::ThreadEnd) break;  // trailing events never run
    }
    if (out.ops.back() != OpKind::End) fail("no ThreadEnd");
  }
  // A thread that stops short of the others' barriers never extended the
  // shared run past its own count.
  for (std::size_t t = 0; t < ct.threads.size(); ++t)
    if (ct.threads[t].segments.size() != ct.barrier_ids.size() + 1)
      throw util::TraceError(
          "thread " + std::to_string(t) + " passes only " +
          std::to_string(ct.threads[t].segments.size() - 1) + " of the " +
          std::to_string(ct.barrier_ids.size()) +
          " barriers (the data-parallel model requires identical barrier "
          "sequences)");
  ct.finish();
  return ct;
}

void CompiledTrace::finish() {
  // Representative-epoch class table (core/translate.hpp): grouped here,
  // once per lowering, so sampling shares it across every simulation of a
  // sweep — the same amortization contract as the segment table.
  epoch_classes = build_epoch_classes(*this);
  ideal_time = Time::zero();
  for (const CompiledThread& th : threads)
    ideal_time = util::max(ideal_time, th.proto.back().time);
}

}  // namespace xp::core
