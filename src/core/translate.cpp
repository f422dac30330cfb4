#include "core/translate.hpp"

#include <numeric>
#include <string>
#include <unordered_map>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xp::core {

using trace::Event;
using trace::EventKind;

namespace {

/// The tracer's recorded perturbation, removed from every translated
/// delta (§3.2): a fixed per-event overhead, plus a flush charge every
/// `flush_every` recorded events.  Flushes triggered by event k inflate the
/// gap to event k+1 in *recording order*, so removal needs each event's
/// global index — its position in the merged trace (the tracer emits events
/// in recording order and ties stay in that order).
struct Perturbation {
  Time overhead;
  std::int64_t flush_every = 0;
  Time flush_cost;

  Perturbation(const trace::Trace& t, const TranslateOptions& opt) {
    if (!opt.remove_event_overhead) return;
    const std::string s = t.meta("event_overhead_ns", "0");
    try {
      overhead = Time::ns(std::stoll(s));
    } catch (const std::logic_error&) {
      throw util::TraceError("bad event_overhead_ns metadata: " + s);
    }
    try {
      flush_every = std::stoll(t.meta("flush_every", "0"));
      flush_cost = Time::ns(std::stoll(t.meta("flush_cost_ns", "0")));
    } catch (const std::logic_error&) {
      throw util::TraceError("bad flush metadata");
    }
  }

  /// Flushes triggered by events 0..i inclusive.
  std::int64_t flushes_through(std::int64_t i) const {
    if (flush_every <= 0 || i < 0) return 0;
    return (i + 1) / flush_every;
  }

  /// The translated interval before the event at global index `g` and
  /// measured time `at`, after this thread's previous event (`prev_g`,
  /// `prev_at`).
  Time delta(Time at, std::int64_t g, Time prev_at,
             std::int64_t prev_g) const {
    Time d = at - prev_at - overhead;
    if (flush_every > 0)
      d -= flush_cost * static_cast<double>(flushes_through(g - 1) -
                                            flushes_through(prev_g - 1));
    return d.is_negative() ? Time::zero() : d;
  }
};

/// Barrier k's translated release: every thread leaves when the last one
/// arrives, and each thread's segment k starts at release k-1, so
/// release_k = release_{k-1} + max_t presum(t, k).  Exact for any validated
/// trace, whatever its interleaving.
std::vector<Time> barrier_releases(const CompiledTrace& ct) {
  std::vector<Time> release(ct.barrier_ids.size());
  Time prev;
  for (std::size_t k = 0; k < release.size(); ++k) {
    Time longest;
    for (const CompiledThread& th : ct.threads)
      longest = util::max(longest, th.segments[k].presum);
    prev += longest;
    release[k] = prev;
  }
  return release;
}

/// Size every thread's arrays exactly, in one pass on the calling thread:
/// every event but a BarrierExit is one step.  The lowering's ranges then
/// only fill memory this thread allocated, so a large trace's arrays do
/// not land in the allocator arenas of short-lived range threads, where
/// freed memory stayed resident (util/parallel.hpp).
void reserve_steps(const std::vector<Event>& events, CompiledTrace& ct) {
  struct Count {
    std::size_t ops = 0, remotes = 0, barriers = 0;
  };
  std::vector<Count> count(ct.threads.size());
  for (const Event& e : events) {
    Count& c = count[static_cast<std::size_t>(e.thread)];
    if (e.kind == EventKind::BarrierExit) {
      ++c.barriers;
      continue;
    }
    ++c.ops;
    c.remotes += trace::is_remote(e.kind);
  }
  for (std::size_t t = 0; t < ct.threads.size(); ++t) {
    CompiledThread& th = ct.threads[t];
    th.ops.reserve(count[t].ops);
    th.pre_delta.reserve(count[t].ops);
    th.proto.reserve(count[t].ops);
    th.remotes.reserve(count[t].remotes);
    th.segments.reserve(count[t].barriers + 1);
  }
  // validate() holds every thread to thread 0's barriers.
  if (!count.empty()) ct.barrier_ids.reserve(count[0].barriers);
}

/// Lower the events of threads [t0, t1) into `ct` (sized by
/// reserve_steps), in one pass over the whole merged trace (the merged
/// position is the global recording index the flush arithmetic needs),
/// extending the barrier-id run `run`.  Protos get their time since their
/// segment's start here.
void lower_threads(const std::vector<Event>& events,
                   const Perturbation& perturbation, CompiledTrace& ct,
                   std::int32_t t0, std::int32_t t1,
                   std::vector<std::int32_t>& run) {
  if (t0 == t1) return;
  const auto mine = [t0, t1](const Event& e) {
    return e.thread >= t0 && e.thread < t1;
  };
  struct Cursor {
    ThreadLowering low;
    Time prev_at;                 // measured time of the previous event
    std::int64_t prev_g = -1;     // global index of the previous event
    bool in_barrier = false;      // entry lowered, exit not yet seen
  };
  std::vector<Cursor> cur(static_cast<std::size_t>(t1 - t0));
  for (std::int32_t t = t0; t < t1; ++t)
    cur[static_cast<std::size_t>(t - t0)].low = {
        &ct.threads[static_cast<std::size_t>(t)], &run, t, {}};
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (!mine(e)) continue;
    const auto g = static_cast<std::int64_t>(i);
    Cursor& c = cur[static_cast<std::size_t>(e.thread - t0)];
    if (e.kind == EventKind::BarrierExit) {
      // Folded into the Barrier step; the next interval runs from here.
      c.prev_at = e.time;
      c.prev_g = g;
      c.in_barrier = false;
      continue;
    }
    XP_CHECK(!c.in_barrier,
             "BarrierEntry not followed by BarrierExit in thread stream");
    const Time delta = c.prev_g < 0 ? Time::zero()
                                    : perturbation.delta(e.time, g, c.prev_at,
                                                         c.prev_g);
    c.prev_at = e.time;
    c.prev_g = g;
    c.in_barrier = e.kind == EventKind::BarrierEntry;
    c.low.push(e, delta, c.low.open.presum + delta);
  }
}

/// Threads of one lowering step at `n` trace threads, and how many
/// contiguous thread ranges it splits into: one per thread
/// util::parallel_workers grants.
int lowering_workers(int n) {
  return util::parallel_workers(n, kParallelMinThreads);
}

/// lower_measured() up to CompiledTrace::finish(): every per-thread array
/// with its final proto times, but no epoch classes, which translate()
/// does not need.  The threads split into ranges lowered at the same time
/// (util/parallel.hpp), each range scanning the merged trace for its own
/// threads' events into arrays sized on the calling thread.
CompiledTrace lower_steps(const trace::Trace& measured,
                          const TranslateOptions& opt) {
  measured.validate();
  const int n = measured.n_threads();
  const Perturbation perturbation(measured, opt);

  CompiledTrace ct;
  ct.n_threads = n;
  ct.threads.resize(static_cast<std::size_t>(n));
  const int workers = lowering_workers(n);
  const auto ranges = static_cast<std::size_t>(workers);
  const auto range = [n, ranges](std::size_t r) {
    return static_cast<std::int32_t>(
        util::range_begin(static_cast<std::size_t>(n), ranges, r));
  };
  reserve_steps(measured.events(), ct);
  std::vector<std::vector<std::int32_t>> runs(ranges);
  runs[0] = std::move(ct.barrier_ids);  // reserved
  util::parallel_for(ranges, workers, [&](std::size_t r) {
    lower_threads(measured.events(), perturbation, ct, range(r),
                  range(r + 1), runs[r]);
  });
  // validate() held every thread to one barrier sequence.
  for (const std::vector<std::int32_t>& run : runs)
    XP_CHECK(run == runs[0], "thread ranges lowered different barrier runs");
  ct.barrier_ids = std::move(runs[0]);

  // The barrier releases once every segment is summed.
  const std::vector<Time> release = barrier_releases(ct);
  util::parallel_for(ranges, workers, [&](std::size_t r) {
    for (std::int32_t t = range(r); t < range(r + 1); ++t) {
      CompiledThread& th = ct.threads[static_cast<std::size_t>(t)];
      for (std::size_t k = 1; k < th.segments.size(); ++k) {
        const Segment& seg = th.segments[k];
        for (std::uint32_t i = seg.op_begin; i <= seg.op_end; ++i)
          th.proto[i].time += release[k - 1];
      }
    }
  });
  return ct;
}

}  // namespace

CompiledTrace lower_measured(const trace::Trace& measured,
                             const TranslateOptions& opt) {
  CompiledTrace ct = lower_steps(measured, opt);
  ct.finish();
  return ct;
}

std::vector<trace::Trace> translate(const trace::Trace& measured,
                                    const TranslateOptions& opt) {
  const CompiledTrace ct = lower_steps(measured, opt);
  const std::vector<Time> release = barrier_releases(ct);
  std::vector<trace::Trace> parts;
  parts.reserve(ct.threads.size());
  for (int t = 0; t < ct.n_threads; ++t) {
    const CompiledThread& th = ct.threads[static_cast<std::size_t>(t)];
    trace::Trace part(ct.n_threads);
    for (const auto& [k, v] : measured.all_meta()) part.set_meta(k, v);
    part.set_meta("thread", std::to_string(t));
    part.set_meta("translated", "1");
    std::vector<Event>& out = part.mutable_events();
    out.reserve(th.ops.size() + ct.barrier_ids.size());
    std::size_t b = 0;
    for (std::size_t i = 0; i < th.ops.size(); ++i) {
      out.push_back(th.proto[i]);
      if (th.ops[i] != OpKind::Barrier) continue;
      Event exit;
      exit.time = release[b];
      exit.thread = t;
      exit.kind = EventKind::BarrierExit;
      exit.barrier_id = ct.barrier_ids[b++];
      out.push_back(exit);
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

Time ideal_parallel_time(const std::vector<trace::Trace>& translated) {
  XP_REQUIRE(!translated.empty(), "no translated traces");
  Time t = Time::zero();
  for (const auto& p : translated) t = util::max(t, p.end_time());
  return t;
}

// --- representative-epoch fingerprints (DESIGN.md §15) ----------------------

namespace {

/// 64-bit structural hash, one xor-multiply-xorshift step per 8-byte
/// word.  Mixing whole words (not a substring of the value's bytes) keeps
/// the fingerprint sensitive to field order — thread index, op kinds,
/// intervals, and remote fields each land in their own word, so permuting
/// fields across threads or records changes the hash.  Each step is a
/// bijection of the state for a fixed word; collisions only cost a
/// structural comparison (build_epoch_classes verifies before merging).
struct EpochHash {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h = (h ^ v) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  void mix_i64(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

const Segment& epoch_segment(const CompiledTrace& ct, std::size_t t,
                             std::int64_t epoch) {
  return ct.threads[t].segments[static_cast<std::size_t>(epoch)];
}

/// Thread `t`'s share of an epoch fingerprint: mixed into the epoch's hash
/// once per thread, in thread order.
void mix_thread_segment(EpochHash& f, const CompiledThread& th, std::size_t t,
                        const Segment& seg) {
  // The thread index anchors each per-thread signature: the same work
  // moved to a different thread is a different epoch shape (barrier
  // arrival pattern and owner targeting both change).
  f.mix(static_cast<std::uint64_t>(t));
  for (std::uint32_t i = seg.op_begin; i <= seg.op_end; ++i) {
    f.mix(static_cast<std::uint64_t>(th.ops[i]));
    f.mix_i64(th.pre_delta[i].count_ns());
  }
  for (std::uint32_t r = seg.remote_begin; r < seg.remote_end; ++r) {
    const RemoteRec& rec = th.remotes[r];
    f.mix_i64(rec.peer);
    f.mix_i64(rec.declared_bytes);
    f.mix_i64(rec.actual_bytes);
    f.mix(rec.is_write ? 1u : 0u);
  }
}

}  // namespace

std::uint64_t epoch_fingerprint(const CompiledTrace& ct, std::int64_t epoch) {
  XP_REQUIRE(!ct.threads.empty() && epoch >= 0 &&
                 epoch < static_cast<std::int64_t>(ct.threads[0].segments.size()),
             "epoch index out of range");
  EpochHash f;
  for (std::size_t t = 0; t < ct.threads.size(); ++t)
    mix_thread_segment(f, ct.threads[t], t, epoch_segment(ct, t, epoch));
  return f.h;
}

bool epochs_identical(const CompiledTrace& ct, std::int64_t a,
                      std::int64_t b) {
  if (a == b) return true;
  for (std::size_t t = 0; t < ct.threads.size(); ++t) {
    const CompiledThread& th = ct.threads[t];
    const Segment& sa = epoch_segment(ct, t, a);
    const Segment& sb = epoch_segment(ct, t, b);
    const std::uint32_t n_ops_a = sa.op_end - sa.op_begin;
    if (n_ops_a != sb.op_end - sb.op_begin) return false;
    if (sa.remote_end - sa.remote_begin != sb.remote_end - sb.remote_begin)
      return false;
    for (std::uint32_t i = 0; i <= n_ops_a; ++i) {
      if (th.ops[sa.op_begin + i] != th.ops[sb.op_begin + i]) return false;
      if (th.pre_delta[sa.op_begin + i] != th.pre_delta[sb.op_begin + i])
        return false;
    }
    for (std::uint32_t r = 0; r < sa.remote_end - sa.remote_begin; ++r) {
      const RemoteRec& ra = th.remotes[sa.remote_begin + r];
      const RemoteRec& rb = th.remotes[sb.remote_begin + r];
      if (ra.peer != rb.peer || ra.declared_bytes != rb.declared_bytes ||
          ra.actual_bytes != rb.actual_bytes || ra.is_write != rb.is_write)
        return false;
    }
  }
  return true;
}

EpochClassTable build_epoch_classes(const CompiledTrace& ct) {
  EpochClassTable tab;
  if (ct.threads.empty()) return tab;
  const auto epochs =
      static_cast<std::int64_t>(ct.threads[0].segments.size());
  tab.fingerprint.reserve(static_cast<std::size_t>(epochs));
  tab.class_of.reserve(static_cast<std::size_t>(epochs));
  // Fingerprint every epoch in one pass over the threads, each thread's
  // segments in order: the same mix calls as epoch_fingerprint(ct, e) per
  // epoch, without an epoch-by-epoch walk that touches every thread's
  // arrays once per epoch.
  std::vector<EpochHash> fps(static_cast<std::size_t>(epochs));
  for (std::size_t t = 0; t < ct.threads.size(); ++t) {
    const CompiledThread& th = ct.threads[t];
    for (std::size_t e = 0; e < fps.size(); ++e)
      mix_thread_segment(fps[e], th, t, th.segments[e]);
  }
  // fingerprint -> class indices sharing it (collision candidates).
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> by_hash;
  for (std::int64_t e = 0; e < epochs; ++e) {
    const std::uint64_t fp = fps[static_cast<std::size_t>(e)].h;
    tab.fingerprint.push_back(fp);
    std::int32_t cls = -1;
    auto& candidates = by_hash[fp];
    for (const std::int32_t c : candidates) {
      // Verify structurally before merging: a hash collision must never
      // conflate distinct epochs (exactness tier 1 depends on it).
      if (epochs_identical(ct, tab.exemplar[static_cast<std::size_t>(c)],
                           e)) {
        cls = c;
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<std::int32_t>(tab.exemplar.size());
      tab.exemplar.push_back(e);
      tab.count.push_back(0);
      candidates.push_back(cls);
    }
    tab.class_of.push_back(cls);
    ++tab.count[static_cast<std::size_t>(cls)];
  }
  return tab;
}

EpochClassTable singleton_epoch_classes(const CompiledTrace& ct) {
  EpochClassTable tab;
  tab.fingerprint = ct.epoch_classes.fingerprint;
  tab.class_of.resize(tab.fingerprint.size());
  std::iota(tab.class_of.begin(), tab.class_of.end(), 0);
  tab.exemplar.assign(tab.class_of.begin(), tab.class_of.end());
  tab.count.assign(tab.class_of.size(), 1);
  return tab;
}

}  // namespace xp::core
