#include "sim/engine.hpp"

#include <utility>

#include "util/error.hpp"

namespace xp::sim {

void Engine::grow_slots() {
  // Grow a whole block at once: 256 callbacks plus 256 meta entries
  // chained into the free list, so the per-event path is always a free-
  // list pop instead of a vector push.
  const std::size_t n = meta_.size();
  cb_blocks_.emplace_back(new Callback[kBlockMask + 1]);
  // Real simulations host thousands of in-flight events; skip the first
  // few doubling copies of the meta table.
  if (meta_.capacity() == 0) meta_.reserve(4 * (kBlockMask + 1));
  meta_.resize(n + kBlockMask + 1);
  for (std::size_t i = n; i < n + kBlockMask; ++i)
    meta_[i].next_free = static_cast<std::uint32_t>(i + 1);
  meta_[n + kBlockMask].next_free = kNoSlot;
  free_head_ = static_cast<std::uint32_t>(n);
}

void Engine::release_slot(std::uint32_t slot) {
  cb_at(slot).reset();  // no-op when the callback was already consumed
  SlotMeta& m = meta_[slot];
  m.seq = 0;            // generation bump: stale EventIds no longer match
  m.next_free = free_head_;
  free_head_ = slot;
}

void Engine::refill_front() {
  front_.clear();
  cur_ = 0;
  // Lowest nonempty bucket; bucket index order is priority order.
  int w = 0;
  while (w < kMaskWords && mask_[static_cast<std::size_t>(w)] == 0) ++w;
  XP_CHECK(w < kMaskWords, "event queue accounting broken (no next bucket)");
  const int b =
      w * 64 + __builtin_ctzll(mask_[static_cast<std::size_t>(w)]);
  KeyVec& v = buckets_[static_cast<std::size_t>(b)];
  if (b < kL0Buckets) {
    // A level-0 bucket holds exactly one timestamp (low byte == digit,
    // higher digits == base_), already in insertion order: it IS the next
    // front bucket.  Swap it in wholesale — no scan, no redistribution —
    // and the old front capacity recycles into the bucket.
    base_ = (base_ & ~std::uint64_t{0xff}) |
            static_cast<std::uint64_t>(b + 1);
    front_.swap(v);
  } else {
    std::uint64_t mn = v.front().t;
    for (const Key& k : v)
      if (k.t < mn) mn = k.t;
    base_ = mn;
    // Stable partition into strictly lower buckets (equal-time -> front_),
    // preserving insertion order so equal-time events stay FIFO.
    for (const Key& k : v) push_key(k);
    v.clear();
  }
  mask_[static_cast<std::size_t>(b) >> 6] &=
      ~(std::uint64_t{1} << (b & 63));
}

bool Engine::advance_to_live() {
  if (live_ == 0) return false;
  if (dead_ == 0) {
    // No tombstones anywhere: every queue entry is live, so skip the
    // per-event liveness check (a dependent random load) entirely.
    while (cur_ >= front_.size()) refill_front();
    return true;
  }
  for (;;) {
    if (cur_ < front_.size()) {
      const Key& k = front_[cur_];
      if (meta_[k.slot].seq == k.seq) return true;
      --dead_;  // consumed a tombstone
      ++cur_;
      continue;
    }
    refill_front();
  }
}

void Engine::fire_front() {
  // Front invariant: every front entry has t == base_, so only the slot
  // needs loading and the fire time is base_ itself.
  const std::uint32_t slot = front_[cur_].slot;
  firing_ = front_[cur_++].seq;
  // Invalidate before firing so cancel() of the firing event (from inside
  // its own callback) is a checked no-op.
  meta_[slot].seq = 0;
  now_ = Time::ns(static_cast<std::int64_t>(base_));
  ++fired_;
  --live_;
  // Fire in place — no move of the callback bytes.  The callable stays
  // live (and its slot unclaimable) while it runs, because callbacks
  // routinely schedule new events.
  Callback& cb = cb_at(slot);
  cb();
  cb.reset();
  SlotMeta& m = meta_[slot];
  m.next_free = free_head_;
  free_head_ = slot;
}

void Engine::compact() {
  // Stable-erase every tombstone; order within each bucket is preserved,
  // so determinism is unaffected.  Amortized O(1) per cancel: a sweep
  // costs O(live + dead) and only runs once dead_ dominates.
  const auto is_dead = [this](const Key& k) {
    return meta_[k.slot].seq != k.seq;
  };
  if (cur_ > 0) front_.erase(front_.begin(), front_.begin() + cur_);
  cur_ = 0;
  std::erase_if(front_, is_dead);
  for (int b = 0; b < kBuckets; ++b) {
    KeyVec& v = buckets_[static_cast<std::size_t>(b)];
    if (v.empty()) continue;
    std::erase_if(v, is_dead);
    if (v.empty())
      mask_[static_cast<std::size_t>(b) >> 6] &=
          ~(std::uint64_t{1} << (b & 63));
  }
  dead_ = 0;
}

bool Engine::cancel(EventId id) {
  if (!id.valid()) return false;           // checked no-op for EventId{}
  if (id.slot >= meta_.size()) return false;
  if (meta_[id.slot].seq != id.seq) return false;  // fired or cancelled
  release_slot(id.slot);  // destroys the callback immediately
  --live_;
  ++dead_;
  // Purge tombstones once they dominate; keeps memory O(live).
  if (dead_ > live_ + 1024) compact();
  return true;
}

bool Engine::step() {
  if (!advance_to_live()) return false;
  fire_front();
  return true;
}

std::uint64_t Engine::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace xp::sim
