#include "trace/trace.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace xp::trace {

void Trace::set_meta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

std::string Trace::meta(const std::string& key, const std::string& def) const {
  auto it = meta_.find(key);
  return it != meta_.end() ? it->second : def;
}

void Trace::sort_by_time() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) { return a.time < b.time; });
}

std::vector<Trace> Trace::split_by_thread() const {
  XP_REQUIRE(n_threads_ > 0, "split_by_thread: thread count unset");
  // Count first so each per-thread vector reserves exactly once.
  std::vector<std::size_t> counts(static_cast<std::size_t>(n_threads_), 0);
  for (const Event& e : events_) {
    XP_REQUIRE(e.thread >= 0 && e.thread < n_threads_,
               "split_by_thread: event thread out of range: " + e.str());
    ++counts[static_cast<std::size_t>(e.thread)];
  }
  std::vector<Trace> out;
  out.reserve(static_cast<std::size_t>(n_threads_));
  for (int t = 0; t < n_threads_; ++t) {
    Trace part(n_threads_);
    part.meta_ = meta_;
    part.set_meta("thread", std::to_string(t));
    part.events_.reserve(counts[static_cast<std::size_t>(t)]);
    out.push_back(std::move(part));
  }
  for (const Event& e : events_)
    out[static_cast<std::size_t>(e.thread)].append(e);
  return out;
}

Trace Trace::merge(const std::vector<Trace>& parts) {
  XP_REQUIRE(!parts.empty(), "merge: no parts");
  Trace out(parts.front().n_threads());
  out.meta_ = parts.front().meta_;
  out.meta_.erase("thread");
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.events_.reserve(total);
  for (const auto& p : parts)
    out.events_.insert(out.events_.end(), p.events_.begin(), p.events_.end());
  out.sort_by_time();
  return out;
}

Time Trace::end_time() const {
  Time t = Time::zero();
  for (const Event& e : events_) t = util::max(t, e.time);
  return t;
}

void Trace::validate() const {
  using util::TraceError;
  if (n_threads_ <= 0) throw TraceError("trace has no thread count");

  struct PerThread {
    bool begun = false, ended = false;
    bool in_barrier = false;          // saw entry, awaiting exit
    int last_barrier_id = -1;
    std::vector<std::int32_t> barrier_seq;
    std::vector<std::int64_t> region_stack;  // open pattern regions
    std::vector<std::int64_t> region_seq;    // PatternBegin order
  };
  std::vector<PerThread> st(static_cast<std::size_t>(n_threads_));

  Time prev;
  for (const Event& e : events_) {
    if (e.thread < 0 || e.thread >= n_threads_)
      throw TraceError("event thread out of range: " + e.str());
    if (e.time.is_negative() || e.time.count_ns() > kMaxTraceTimeNs)
      throw TraceError("timestamp outside [0, 2^53] ns: " + e.str());
    if (e.time < prev)
      throw TraceError("timestamp decreases in recording order: " + e.str());
    prev = e.time;
    PerThread& s = st[static_cast<std::size_t>(e.thread)];
    if (s.ended) throw TraceError("event after ThreadEnd: " + e.str());
    if (s.in_barrier && e.kind != EventKind::BarrierExit)
      throw TraceError("event between BarrierEntry and BarrierExit: " +
                       e.str());

    switch (e.kind) {
      case EventKind::ThreadBegin:
        if (s.begun) throw TraceError("duplicate ThreadBegin: " + e.str());
        s.begun = true;
        break;
      case EventKind::ThreadEnd:
        if (!s.begun) throw TraceError("ThreadEnd before Begin: " + e.str());
        if (!s.region_stack.empty())
          throw TraceError("ThreadEnd inside an open pattern region: " +
                           e.str());
        s.ended = true;
        break;
      case EventKind::BarrierEntry:
        if (!s.begun) throw TraceError("event before ThreadBegin: " + e.str());
        if (e.barrier_id <= s.last_barrier_id)
          throw TraceError("barrier ids not strictly increasing: " + e.str());
        s.in_barrier = true;
        s.last_barrier_id = e.barrier_id;
        s.barrier_seq.push_back(e.barrier_id);
        break;
      case EventKind::BarrierExit:
        if (!s.in_barrier)
          throw TraceError("BarrierExit without entry: " + e.str());
        if (e.barrier_id != s.last_barrier_id)
          throw TraceError("BarrierExit id mismatch: " + e.str());
        s.in_barrier = false;
        break;
      case EventKind::RemoteRead:
      case EventKind::RemoteWrite:
        if (!s.begun) throw TraceError("event before ThreadBegin: " + e.str());
        if (e.peer < 0 || e.peer >= n_threads_)
          throw TraceError("remote peer out of range: " + e.str());
        if (e.actual_bytes < 0 || e.declared_bytes < e.actual_bytes)
          throw TraceError("inconsistent transfer sizes: " + e.str());
        break;
      case EventKind::PhaseBegin:
      case EventKind::PhaseEnd:
        if (!s.begun) throw TraceError("event before ThreadBegin: " + e.str());
        break;
      case EventKind::PatternBegin:
        if (!s.begun) throw TraceError("event before ThreadBegin: " + e.str());
        if (e.object < 1)
          throw TraceError("pattern region id must be >= 1: " + e.str());
        if (e.barrier_id < 0)
          throw TraceError("pattern event missing pattern kind: " + e.str());
        s.region_stack.push_back(e.object);
        s.region_seq.push_back(e.object);
        break;
      case EventKind::PatternEnd:
        if (!s.begun) throw TraceError("event before ThreadBegin: " + e.str());
        if (s.region_stack.empty())
          throw TraceError("PatternEnd without open region: " + e.str());
        if (s.region_stack.back() != e.object)
          throw TraceError("PatternEnd region id does not match innermost "
                           "open region: " + e.str());
        s.region_stack.pop_back();
        break;
    }
  }

  for (int t = 0; t < n_threads_; ++t) {
    const PerThread& s = st[static_cast<std::size_t>(t)];
    if (!s.begun)
      throw TraceError("thread " + std::to_string(t) + " has no events");
    if (!s.ended)
      throw TraceError("thread " + std::to_string(t) + " missing ThreadEnd");
    if (s.barrier_seq != st[0].barrier_seq)
      throw TraceError("thread " + std::to_string(t) +
                       " passes different barriers than thread 0 (data-"
                       "parallel model requires identical barrier sequences)");
    if (s.region_seq != st[0].region_seq)
      throw TraceError("thread " + std::to_string(t) +
                       " passes different pattern regions than thread 0 "
                       "(pattern nodes execute collectively)");
  }
}

}  // namespace xp::trace
