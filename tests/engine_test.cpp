// Edge-case tests for the radix-calendar event queue and the inline
// callback storage (util::InplaceFunction) underneath it.  These pin the
// properties the hot-path overhaul must not lose: FIFO among equal-time
// events at any scale, slot recycling that never resurrects stale handles,
// and callback destruction timing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "util/inplace_function.hpp"

namespace xp::sim {
namespace {

using util::Time;

TEST(EngineOrdering, EqualTimeFifoAcrossThousandEvents) {
  // 1000 events at one timestamp, interleaved at schedule time with events
  // at other timestamps so the shared bucket is built up across refills.
  Engine e;
  std::vector<int> order;
  order.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    e.schedule_at(Time::ns(500000), [&order, i] { order.push_back(i); });
    e.schedule_at(Time::ns(1 + 7 * i), [] {});  // filler at earlier times
  }
  e.run();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineOrdering, EqualTimeFifoSurvivesInterleavedCancels) {
  // Cancelling every third event must not disturb the firing order of the
  // survivors (tombstone skip + compaction are stability-preserving).
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i)
    ids.push_back(
        e.schedule_at(Time::us(3), [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 300; i += 3) e.cancel(ids[static_cast<std::size_t>(i)]);
  e.run();
  ASSERT_EQ(order.size(), 200u);
  for (std::size_t j = 1; j < order.size(); ++j)
    EXPECT_LT(order[j - 1], order[j]);
}

TEST(EngineCancel, CancelThenRescheduleReusesSlotSafely) {
  Engine e;
  bool old_fired = false;
  bool new_fired = false;
  const EventId dead = e.schedule_at(Time::us(10), [&] { old_fired = true; });
  EXPECT_TRUE(e.cancel(dead));
  // The freed slot is recycled by the next schedule; the stale handle must
  // not be able to cancel the new occupant.
  const EventId live = e.schedule_at(Time::us(20), [&] { new_fired = true; });
  EXPECT_FALSE(e.cancel(dead));
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
  EXPECT_FALSE(e.cancel(live));  // already fired
}

TEST(EngineCancel, SelfCancelFromOwnCallbackIsNoOp) {
  Engine e;
  EventId self{};
  bool returned_false = false;
  self = e.schedule_at(Time::us(1), [&] { returned_false = !e.cancel(self); });
  e.run();
  EXPECT_TRUE(returned_false);
  EXPECT_EQ(e.fired(), 1u);
}

TEST(EngineCancel, MassCancelTriggersCompaction) {
  // Push far past the tombstone threshold so the bulk purge runs while
  // live events remain, then check survivors still fire in order.
  Engine e;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 5000; ++i)
    ids.push_back(
        e.schedule_at(Time::ns(100 + i), [&fired, i] { fired.push_back(i); }));
  for (int i = 0; i < 5000; ++i)
    if (i % 10 != 0) e.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(e.pending(), 500u);
  EXPECT_EQ(e.run(), 500u);
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t j = 0; j < fired.size(); ++j)
    EXPECT_EQ(fired[j], static_cast<int>(j) * 10);
}

TEST(EngineStress, WideTimeRangeCascades) {
  // Timestamps spanning many radix levels (1ns .. ~70s) so events cascade
  // through several redistributions before firing; order must hold.
  Engine e;
  std::vector<std::int64_t> seen;
  const std::int64_t times[] = {1,      255,        256,        4095,
                                65536,  1 << 20,    1 << 24,    1 << 28,
                                1l << 32, 1l << 36, 68719476735l};
  for (std::int64_t t : times)
    e.schedule_at(Time::ns(t), [&seen, t] { seen.push_back(t); });
  e.run();
  ASSERT_EQ(seen.size(), std::size(times));
  for (std::size_t j = 1; j < seen.size(); ++j)
    EXPECT_LT(seen[j - 1], seen[j]);
}

// --- InplaceFunction semantics the engine relies on --------------------

using Fn = util::InplaceFunction<void(), 64>;

TEST(InplaceFunction, CallingEmptyThrowsCheckedError) {
  // std::function threw bad_function_call; the replacement must fail
  // loudly too, not call through a null pointer.
  Fn f;
  EXPECT_THROW(f(), util::Error);
  f = nullptr;
  EXPECT_THROW(f(), util::Error);
}

TEST(InplaceFunction, DestroysCapturedStateOnReset) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  Fn f{[token] { (void)*token; }};
  token.reset();
  EXPECT_FALSE(watch.expired());  // alive inside the callable
  f.reset();
  EXPECT_TRUE(watch.expired());  // destroyed with the callable
}

TEST(InplaceFunction, MoveTransfersOwnershipAndEmptiesSource) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  Fn a{[token] {}};
  token.reset();
  Fn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_FALSE(watch.expired());  // exactly one live copy, now in b
  b = nullptr;
  EXPECT_TRUE(watch.expired());
}

TEST(InplaceFunction, TrivialCallableMovesByCopy) {
  // Trivially copyable callables carry no manage function; moves must
  // still transport the capture bytes.
  int out = 0;
  int* p = &out;
  Fn a{[p] { *p = 42; }};
  Fn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(out, 42);
}

TEST(InplaceFunction, EmplaceReplacesExistingCallable) {
  auto token = std::make_shared<int>(3);
  std::weak_ptr<int> watch = token;
  Fn f{[token] {}};
  token.reset();
  int out = 0;
  f.emplace([&out] { out = 9; });  // must destroy the shared_ptr capture
  EXPECT_TRUE(watch.expired());
  f();
  EXPECT_EQ(out, 9);
}

TEST(InplaceFunction, EngineDestroysPendingCallbacksOnTeardown) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  {
    Engine e;
    e.schedule_at(Time::us(1), [token] {});
    token.reset();
    EXPECT_FALSE(watch.expired());
  }  // engine destroyed with the event still pending
  EXPECT_TRUE(watch.expired());
}

TEST(InplaceFunction, CancelDestroysCallbackImmediately) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  Engine e;
  const EventId id = e.schedule_at(Time::us(1), [token] {});
  token.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(e.cancel(id));
  // Cancellation must release captured resources now, not at pop time.
  EXPECT_TRUE(watch.expired());
}

// --- out-of-order events (virtual-event support) -----------------------------

TEST(EngineOrdered, InsertsAfterTheLastEventThatPrecedes) {
  // Events 0..3 due at one instant; an ordered event that follows exactly
  // events 0 and 2 fires after 2 (the last one that precedes), before 3,
  // and one that follows nothing fires first.  Other instants are
  // untouched, wherever their bucket entries sit.
  Engine e;
  std::vector<int> order;
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 4; ++i) {
    seqs.push_back(
        e.schedule_at(Time::us(5), [&order, i] { order.push_back(i); }).seq);
    e.schedule_at(Time::us(4), [] {});
  }
  e.schedule_ordered(
      Time::us(5),
      [&](std::uint64_t s) { return s == seqs[0] || s == seqs[2]; },
      [&order] { order.push_back(10); });
  e.schedule_ordered(
      Time::us(5), [](std::uint64_t) { return false; },
      [&order] { order.push_back(11); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{11, 0, 1, 2, 10, 3}));
}

TEST(EngineOrdered, OrdersAmongEventsDueNowFromACallback) {
  // From inside a callback at t, an ordered event at t lands among the
  // events still due at t; any_due_now sees exactly those.
  Engine e;
  std::vector<int> order;
  std::uint64_t second = 0;
  e.schedule_at(Time::us(2), [&] {
    order.push_back(0);
    EXPECT_TRUE(e.any_due_now([&](std::uint64_t s) { return s == second; }));
    e.schedule_ordered(
        Time::us(2), [&](std::uint64_t s) { return s == second; },
        [&order] { order.push_back(2); });
  });
  second = e.schedule_at(Time::us(2), [&order] { order.push_back(1); }).seq;
  e.schedule_at(Time::us(2), [&order] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EngineOrdered, OriginsNameScheduleInstantAndScheduler) {
  Engine e;
  e.record_origins();
  std::uint64_t child = 0;
  const std::uint64_t root =
      e.schedule_at(Time::us(3), [&] {
         child = e.schedule_after(Time::us(1), [] {}).seq;
         e.tag(child, 7);
       }).seq;
  e.run();
  EXPECT_EQ(e.origin(root).sched, Time::zero());
  EXPECT_EQ(e.origin(root).parent, 0u);
  EXPECT_EQ(e.origin(root).tag, -1);
  EXPECT_EQ(e.origin(child).sched, Time::us(3));
  EXPECT_EQ(e.origin(child).parent, root);
  EXPECT_EQ(e.origin(child).tag, 7);
  EXPECT_EQ(e.firing_seq(), child);
  e.forget_origins_before(child);
  EXPECT_EQ(e.origin(child).parent, root);
  EXPECT_THROW(e.origin(root), std::exception);
}

}  // namespace
}  // namespace xp::sim
