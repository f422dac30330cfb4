// Deterministic discrete-event simulation engine.
//
// The single shared substrate under both the trace-driven extrapolation
// simulator (core/) and the direct-execution machine simulator (machine/).
// Events are ordered by (time, insertion sequence); equal-time events fire
// in scheduling order, so runs are bit-for-bit reproducible.
//
// Hot-path design: a monotone radix calendar queue.  Simulated time never
// goes backwards (schedule_at requires t >= now()), which admits a radix
// bucket structure instead of a comparison heap: events are binned by the
// highest base-16 digit in which their time differs from the engine's
// current radix base.  Scheduling is O(1) (one digit computation + one
// append), and firing is amortized O(1): when the front bucket drains, the
// lowest nonempty bucket is redistributed, and every redistribution moves
// an event to a strictly lower bucket, so each event is touched at most
// once per digit level.  There is no per-event allocation: callbacks live
// inline (util::InplaceFunction) in a block-stable slab, bucket vectors
// recycle their capacity, and firing an event never does a hash lookup.
//
// Determinism argument: all pending times t satisfy t >= base, and a
// bucket index is a pure function of t (given the base), so equal-time
// events always share a bucket.  Appends happen in sequence order and
// redistribution is a stable partition, therefore equal-time events stay
// in insertion order in every bucket forever — FIFO among ties without
// ever comparing sequence numbers.  The front bucket holds exactly the
// events with t == base, popped left to right.
//
// Cancellation is O(1): the event's slot is invalidated (its callback is
// destroyed immediately) and its queue entry becomes a tombstone that is
// skipped at the front and purged wholesale once tombstones outnumber
// live events — pending() shrinks on cancel and memory stays bounded by
// O(live), fixing the old lazy-cancellation leak where cancelled entries
// lingered until their deadline was popped.
//
// Virtual events.  A client may replace a run of events that only schedule
// each other by arithmetic (the simulator's held poll intervals, DESIGN.md
// §8) and build one of them later, out of insertion order.  Equal-time
// order is scheduling order, which is decided by ancestry: of two events
// due at one instant, the one scheduled at the earlier instant comes
// first; scheduled at one instant, the one whose scheduling event fired
// first comes first; and so on up the ancestry until both sides have real
// sequence numbers.  With record_origins() on, the engine keeps each
// event's origin (schedule instant and scheduling event) so the client can
// walk that ancestry, and schedule_ordered() inserts an event at the place
// the client's walk gives it.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace xp::sim {

using util::Time;

/// Where an event came from: the instant it was scheduled, the sequence
/// number of the event whose callback scheduled it (0 outside any
/// callback), and a client tag (-1 unless set with tag()).
struct Origin {
  Time sched;
  std::uint64_t parent = 0;
  std::int64_t tag = -1;
};

/// Handle for cancelling a scheduled event.  `seq` is the globally unique
/// insertion sequence (0 = invalid); `slot` indexes the engine's slot table
/// and is validated against `seq` on use, so stale handles are harmless.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  bool valid() const { return seq != 0; }
};

class Engine {
 public:
  /// Inline storage per event callback; captures beyond this are a compile
  /// error (see util/inplace_function.hpp).
  static constexpr std::size_t kInlineCallbackBytes = 64;
  using Callback = util::InplaceFunction<void(), kInlineCallbackBytes>;

  /// Schedule a callable at absolute time `t` (must be >= now()).  The
  /// callable is constructed directly in the engine's slab — passing a
  /// lambda never materializes a temporary type-erased wrapper.
  template <class F>
  EventId schedule_at(Time t, F&& f) {
    const Key k = emplace(t, std::forward<F>(f));
    push_key(k);
    return EventId{k.seq, k.slot};
  }

  /// Schedule at `t` right after the last pending event due at `t` for
  /// which `precedes(seq)` holds (before every event due at `t` if none
  /// does): the place of an event built out of insertion order.
  template <class Pred, class F>
  EventId schedule_ordered(Time t, Pred&& precedes, F&& f) {
    const Key k = emplace(t, std::forward<F>(f));
    const int b = bucket_of(k.t);  // base_ <= now_ <= k.t, as in push_key
    KeyVec& v = b < 0 ? front_ : buckets_[static_cast<std::size_t>(b)];
    // Only equal-time order matters inside a bucket (redistribution is a
    // stable partition), so the front of the bucket is as good as the
    // first equal-time entry.
    std::size_t at = b < 0 ? cur_ : 0;
    for (std::size_t i = at; i < v.size(); ++i) {
      const Key& o = v[i];
      if (o.t == k.t && meta_[o.slot].seq == o.seq && precedes(o.seq))
        at = i + 1;
    }
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(at), k);
    if (b >= 0)
      mask_[static_cast<std::size_t>(b) >> 6] |= std::uint64_t{1}
                                                 << (b & 63);
    return EventId{k.seq, k.slot};
  }

  /// Whether `pred(seq)` holds for a pending event due now.
  template <class Pred>
  bool any_due_now(Pred&& pred) const {
    if (static_cast<std::int64_t>(base_) != now_.count_ns()) return false;
    for (std::size_t i = cur_; i < front_.size(); ++i) {
      const Key& o = front_[i];
      if (meta_[o.slot].seq == o.seq && pred(o.seq)) return true;
    }
    return false;
  }

  /// Keep every event's Origin from now on; only before the first event.
  void record_origins() {
    XP_REQUIRE(next_seq_ == 1, "origins are recorded from the first event");
    recording_ = true;
  }
  /// The Origin of event `seq` (record_origins() must be on, and `seq` not
  /// forgotten).
  const Origin& origin(std::uint64_t seq) const {
    XP_CHECK(seq >= first_origin_ && seq < next_seq_,
             "origin of an unknown or forgotten event");
    return origins_[seq - first_origin_];
  }
  void tag(std::uint64_t seq, std::int64_t tag) {
    origins_[seq - first_origin_].tag = tag;
  }
  /// Drop the Origins of events before `seq`; the client will not ask for
  /// them again.  Keeps the recorded history to the span it still walks.
  void forget_origins_before(std::uint64_t seq) {
    XP_REQUIRE(seq >= first_origin_ && seq <= next_seq_,
               "forgetting origins out of range");
    origins_.erase(origins_.begin(),
                   origins_.begin() +
                       static_cast<std::ptrdiff_t>(seq - first_origin_));
    first_origin_ = seq;
  }
  /// Sequence number of the event whose callback is running (of the last
  /// one to run, between callbacks; 0 before the first).
  std::uint64_t firing_seq() const { return firing_; }

  /// Schedule a callable after a delay from now (delay must be >= 0).
  template <class F>
  EventId schedule_after(Time delay, F&& f) {
    XP_REQUIRE(!delay.is_negative(), "negative delay");
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Cancel a pending event in O(1): its callback is destroyed immediately
  /// and its queue entry tombstoned (purged in bulk, amortized O(1)).
  /// Returns false — a checked no-op — if `id` is invalid (default-
  /// constructed) or the event already fired or was cancelled.
  bool cancel(EventId id);

  Time now() const { return now_; }

  /// Run until the event queue drains.  Returns the number of events fired.
  std::uint64_t run();
  /// Fire exactly the next event; false if the queue is empty.  Used by the
  /// machine simulator to interleave event processing with fiber execution.
  bool step_one() { return step(); }

  bool empty() const { return live_ == 0; }
  /// Live (schedulable) events only; cancellation shrinks this immediately.
  std::size_t pending() const { return live_; }
  std::uint64_t fired() const { return fired_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // Hybrid radix: a byte-wide level 0 (bits 0-7, 255 nonzero digits) under
  // base-16 upper levels (bits 8-63, 14 levels x 15 nonzero digits each).
  // Bucket index order == priority order.  The wide bottom level keeps the
  // redistribution cascade short for fine-grained timestamps, and a level-0
  // bucket holds exactly ONE timestamp (all higher digits match base_, the
  // low byte is the digit), so refilling from level 0 is a vector swap —
  // no min scan, no per-event redistribution.
  static constexpr int kL0Bits = 8;
  static constexpr int kL0Buckets = (1 << kL0Bits) - 1;  // 255
  static constexpr int kDigitBits = 4;
  static constexpr int kDigitMask = 15;
  static constexpr int kDigitsPerLevel = 15;
  static constexpr int kLevels = (64 - kL0Bits) / kDigitBits;  // 14
  static constexpr int kBuckets =
      kL0Buckets + kLevels * kDigitsPerLevel;  // excl. front
  static constexpr int kMaskWords = (kBuckets + 63) / 64;

  // Queue entry: trivially copyable, moved wholesale during redistribution.
  struct Key {
    std::uint64_t t = 0;    // event time (ns; >= 0 by the schedule contract)
    std::uint64_t seq = 0;  // insertion sequence; tombstone check vs slot
    std::uint32_t slot = 0;
  };

  /// Per-slot bookkeeping.  `seq` doubles as a generation/liveness check
  /// (0 = free or cancelled); freed slots chain through `next_free`.
  struct SlotMeta {
    std::uint64_t seq = 0;
    std::uint32_t next_free = kNoSlot;
  };

  // Callback slab: fixed-size blocks so entries never move on growth (a
  // vector<Callback> would move-construct every element through its manage
  // pointer on each reallocation).  Addressed as [slot >> kBlockShift]
  // [slot & kBlockMask]; blocks are recycled through the slot free list.
  static constexpr std::size_t kBlockShift = 8;  // 256 callbacks per block
  static constexpr std::size_t kBlockMask = (1u << kBlockShift) - 1;

  Callback& cb_at(std::uint32_t slot) {
    return cb_blocks_[slot >> kBlockShift][slot & kBlockMask];
  }

  // Bucket index for time t relative to base_; -1 means the front bucket
  // (t == base_).  For t != base_ the highest differing digit of t is
  // necessarily greater than base_'s digit there (t > base_ and all higher
  // digits agree), so d >= 1 always.
  int bucket_of(std::uint64_t t) const {
    const std::uint64_t x = t ^ base_;
    if (x == 0) return -1;
    const int h = 63 - __builtin_clzll(x);
    if (h < kL0Bits)  // differs only in the low byte: level-0 digit
      return static_cast<int>(t & 0xff) - 1;
    const int level = (h - kL0Bits) >> 2;
    const int d = static_cast<int>(
        (t >> (kL0Bits + level * kDigitBits)) & kDigitMask);
    return kL0Buckets + level * kDigitsPerLevel + d - 1;
  }

  // Validate, then construct the callback in a fresh slot and return its
  // key for the caller to queue.  Validation comes before acquire_slot() so
  // a failed precondition never leaks a slot marked in-use.
  template <class F>
  Key emplace(Time t, F&& f) {
    XP_REQUIRE(t >= now_, "cannot schedule into the past");
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
      XP_REQUIRE(static_cast<bool>(f), "null event callback");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = acquire_slot();
    meta_[slot].seq = seq;
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
      cb_at(slot) = std::forward<F>(f);
    else
      cb_at(slot).emplace(std::forward<F>(f));
    if (recording_) origins_.push_back(Origin{now_, firing_});
    ++live_;
    Key k;
    k.t = static_cast<std::uint64_t>(t.count_ns());
    k.seq = seq;
    k.slot = slot;
    return k;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ == kNoSlot) grow_slots();
    const std::uint32_t s = free_head_;
    free_head_ = meta_[s].next_free;
    return s;
  }

  using KeyVec = std::vector<Key>;

  // Bin `k` relative to base_ (front bucket for t == base_).  Invariant:
  // base_ <= now_ <= k.t.  emplace() checks now_ <= t; base_ only passes
  // now_ inside advance_to_live(), and the event it finds there fires
  // (now_ = base_) before any callback can schedule.
  void push_key(const Key& k) {
    const int b = bucket_of(k.t);
    KeyVec& v = b < 0 ? front_ : buckets_[static_cast<std::size_t>(b)];
    // Skip the tiny-capacity doubling steps: dozens of buckets each
    // growing 1->2->4->... is hundreds of small reallocations per run.
    if (v.size() == v.capacity() && v.capacity() < 64) v.reserve(64);
    v.push_back(k);
    if (b >= 0)
      mask_[static_cast<std::size_t>(b) >> 6] |= std::uint64_t{1}
                                                 << (b & 63);
  }

  void grow_slots();                // add a callback block + free slots
  void release_slot(std::uint32_t slot);
  void refill_front();              // redistribute lowest nonempty bucket
  bool advance_to_live();           // make front_[cur_] a live event
  void fire_front();                // fire front_[cur_] (must be live)
  void compact();                   // purge all tombstones
  bool step();                      // fire one event; false if queue empty

  Time now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;   // schedulable events
  std::size_t dead_ = 0;   // tombstones still buffered
  std::uint64_t base_ = 0; // radix base: time of the current front bucket
  std::uint64_t firing_ = 0;  // seq of the event whose callback is running
  bool recording_ = false;
  std::vector<Origin> origins_;  // by seq - first_origin_, while recording_
  std::uint64_t first_origin_ = 1;

  KeyVec front_;                     // events with t == base_
  std::size_t cur_ = 0;              // front_ read cursor
  std::array<KeyVec, kBuckets> buckets_;
  std::array<std::uint64_t, kMaskWords> mask_{};  // nonempty-bucket bits

  std::vector<SlotMeta> meta_;  // indexed by slot
  std::vector<std::unique_ptr<Callback[]>> cb_blocks_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace xp::sim
