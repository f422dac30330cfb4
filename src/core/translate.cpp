#include "core/translate.hpp"

#include <numeric>
#include <string>
#include <unordered_map>

#include "util/error.hpp"

namespace xp::core {

namespace {
Time overhead_from(const trace::Trace& t, const TranslateOptions& opt) {
  if (!opt.remove_event_overhead) return Time::zero();
  if (!opt.event_overhead_override.is_negative())
    return opt.event_overhead_override;
  const std::string s = t.meta("event_overhead_ns", "0");
  try {
    return Time::ns(std::stoll(s));
  } catch (const std::logic_error&) {
    throw util::TraceError("bad event_overhead_ns metadata: " + s);
  }
}
}  // namespace

std::vector<trace::Trace> translate(const trace::Trace& measured,
                                    const TranslateOptions& opt) {
  measured.validate();
  const int n = measured.n_threads();
  const Time overhead = overhead_from(measured, opt);

  // Trace-buffer flush charges (§3.2): the tracer records how often it
  // flushed and what one flush cost.  Flushes triggered by event k inflate
  // the gap to event k+1 in *recording order*, so removal needs each
  // event's global index.
  std::int64_t flush_every = 0;
  Time flush_cost;
  if (opt.remove_event_overhead) {
    try {
      flush_every = std::stoll(measured.meta("flush_every", "0"));
      flush_cost = Time::ns(std::stoll(measured.meta("flush_cost_ns", "0")));
    } catch (const std::logic_error&) {
      throw util::TraceError("bad flush metadata");
    }
  }
  // Flushes triggered by events 0..i inclusive.
  auto flushes_through = [flush_every](std::int64_t i) -> std::int64_t {
    if (flush_every <= 0 || i < 0) return 0;
    return (i + 1) / flush_every;
  };

  // Zero-copy per-thread views of the measured trace; the merged-order
  // position of each event doubles as its global recording index (the
  // tracer emits events in recording order and ties stay in that order),
  // which the flush-removal arithmetic needs.
  const std::vector<trace::ThreadView> views = measured.split_views();

  std::vector<trace::Trace> parts;
  parts.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    trace::Trace part(n);
    for (const auto& [k, v] : measured.all_meta()) part.set_meta(k, v);
    part.set_meta("thread", std::to_string(t));
    part.set_meta("translated", "1");
    part.reserve(views[static_cast<std::size_t>(t)].size());
    parts.push_back(std::move(part));
  }

  // Per-thread cursors.
  struct Cursor {
    std::size_t idx = 0;       // next event to translate
    Time prev_measured;        // measured timestamp of previous event
    std::int64_t prev_gidx = -1;  // global index of previous event
    Time clock;                // translated timestamp of previous event
    bool first = true;
  };
  std::vector<Cursor> cur(static_cast<std::size_t>(n));

  // Translate one thread's events up to (and including) the next
  // BarrierEntry, appending translated copies to the output part.  Returns
  // false if the thread's stream is exhausted without another entry.
  auto advance_to_entry = [&](int t) -> bool {
    Cursor& c = cur[static_cast<std::size_t>(t)];
    const trace::ThreadView& view = views[static_cast<std::size_t>(t)];
    auto& out = parts[static_cast<std::size_t>(t)].mutable_events();
    while (c.idx < view.size()) {
      trace::Event e = view[c.idx];
      const auto g = static_cast<std::int64_t>(view.merged_index(c.idx));
      if (c.first) {
        c.first = false;
        c.prev_measured = e.time;
        c.clock = Time::zero();
      } else {
        Time delta = e.time - c.prev_measured - overhead;
        if (flush_every > 0)
          delta -= flush_cost * static_cast<double>(
                                    flushes_through(g - 1) -
                                    flushes_through(c.prev_gidx - 1));
        if (delta.is_negative()) delta = Time::zero();
        c.prev_measured = e.time;
        c.clock += delta;
      }
      c.prev_gidx = g;
      e.time = c.clock;
      const bool is_entry = e.kind == trace::EventKind::BarrierEntry;
      out.push_back(e);
      ++c.idx;
      if (is_entry) return true;
    }
    return false;
  };

  // validate() guarantees every thread passes the same barrier sequence, so
  // we can process barrier instances in lockstep.
  for (;;) {
    int entries_found = 0;
    Time release = Time::zero();
    for (int t = 0; t < n; ++t) {
      if (advance_to_entry(t)) {
        ++entries_found;
        release = util::max(release, cur[static_cast<std::size_t>(t)].clock);
      }
    }
    if (entries_found == 0) break;
    XP_CHECK(entries_found == n,
             "barrier sequences diverged despite validation");

    // The matching BarrierExit is the next event of each thread; align it
    // to the latest entry (threads leave as soon as the last one arrives).
    for (int t = 0; t < n; ++t) {
      Cursor& c = cur[static_cast<std::size_t>(t)];
      const trace::ThreadView& view = views[static_cast<std::size_t>(t)];
      auto& out = parts[static_cast<std::size_t>(t)].mutable_events();
      XP_CHECK(c.idx < view.size(), "BarrierEntry without following event");
      trace::Event exit = view[c.idx];
      XP_CHECK(exit.kind == trace::EventKind::BarrierExit,
               "BarrierEntry not followed by BarrierExit in thread stream");
      c.prev_measured = exit.time;
      c.prev_gidx = static_cast<std::int64_t>(view.merged_index(c.idx));
      c.clock = release;
      exit.time = release;
      out.push_back(exit);
      ++c.idx;
    }
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

/// 64-bit FNV-1a over 8-byte words.  Mixing whole words (not a substring
/// of the value's bytes) keeps the fingerprint sensitive to field order —
/// thread index, op kinds, intervals, and remote fields each land in their
/// own word, so permuting fields across threads or records changes the
/// hash.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  void mix_i64(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

const Segment& epoch_segment(const CompiledTrace& ct, std::size_t t,
                             std::int64_t epoch) {
  return ct.threads[t].segments[static_cast<std::size_t>(epoch)];
}

/// Thread `t`'s share of an epoch fingerprint: mixed into the epoch's hash
/// once per thread, in thread order.
void mix_thread_segment(Fnv64& f, const CompiledThread& th, std::size_t t,
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
  XP_REQUIRE(ct.uniform_barriers,
             "epoch fingerprints need lockstep (uniform-barrier) traces");
  XP_REQUIRE(!ct.threads.empty() && epoch >= 0 &&
                 epoch < static_cast<std::int64_t>(ct.threads[0].segments.size()),
             "epoch index out of range");
  Fnv64 f;
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
  XP_REQUIRE(ct.uniform_barriers,
             "epoch classes need lockstep (uniform-barrier) traces");
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
  std::vector<Fnv64> fps(static_cast<std::size_t>(epochs));
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
  XP_REQUIRE(ct.epoch_classes.built(), "no epoch-class table to split");
  EpochClassTable tab;
  tab.fingerprint = ct.epoch_classes.fingerprint;
  tab.class_of.resize(tab.fingerprint.size());
  std::iota(tab.class_of.begin(), tab.class_of.end(), 0);
  tab.exemplar.assign(tab.class_of.begin(), tab.class_of.end());
  tab.count.assign(tab.class_of.size(), 1);
  return tab;
}

}  // namespace xp::core
