// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace xp::sim {
namespace {

using util::Time;

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(Time::us(30), [&] { order.push_back(3); });
  e.schedule_at(Time::us(10), [&] { order.push_back(1); });
  e.schedule_at(Time::us(20), [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), Time::us(30));
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    e.schedule_at(Time::us(7), [&, i] { order.push_back(i); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleAfterUsesNow) {
  Engine e;
  Time when;
  e.schedule_at(Time::us(10), [&] {
    e.schedule_after(Time::us(5), [&] { when = e.now(); });
  });
  e.run();
  EXPECT_EQ(when, Time::us(15));
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(Time::us(10), [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // already cancelled
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(Time::us(1), [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, RejectsPastAndNegative) {
  Engine e;
  e.schedule_at(Time::us(10), [&] {
    EXPECT_THROW(e.schedule_at(Time::us(5), [] {}), util::Error);
    EXPECT_THROW(e.schedule_after(Time::us(-1), [] {}), util::Error);
  });
  e.run();
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) e.schedule_after(Time::us(1), chain);
  };
  e.schedule_at(Time::zero(), chain);
  e.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(e.now(), Time::us(9));
}

TEST(Engine, StepOne) {
  Engine e;
  int count = 0;
  e.schedule_at(Time::us(1), [&] { ++count; });
  e.schedule_at(Time::us(2), [&] { ++count; });
  EXPECT_TRUE(e.step_one());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step_one());
  EXPECT_FALSE(e.step_one());
  EXPECT_EQ(count, 2);
}

TEST(Engine, CountersTrackActivity) {
  Engine e;
  e.schedule_at(Time::us(1), [] {});
  e.schedule_at(Time::us(2), [] {});
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_FALSE(e.empty());
  e.run();
  EXPECT_EQ(e.fired(), 2u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, CancelShrinksPendingImmediately) {
  // Regression: the old lazy-cancellation scheme left cancelled entries in
  // the queue (and their callbacks alive) until their deadline was popped;
  // pending() must now shrink at cancel time.
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(e.schedule_at(Time::us(1000 + i), [] {}));
  EXPECT_EQ(e.pending(), 100u);
  for (int i = 0; i < 100; i += 2) e.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(e.pending(), 50u);
  EXPECT_EQ(e.run(), 50u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, CancelInvalidIdIsCheckedNoOp) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventId{}));  // default-constructed handle
  EXPECT_FALSE(e.cancel(EventId{.seq = 12345, .slot = 7}));  // never issued
  e.schedule_at(Time::us(1), [] {});
  EXPECT_FALSE(e.cancel(EventId{.seq = 999, .slot = 100000}));  // bad slot
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
}

TEST(Engine, RejectsNullCallback) {
  Engine e;
  EXPECT_THROW(e.schedule_at(Time::us(1), Engine::Callback{}), util::Error);
}

TEST(Engine, LargeVolume) {
  Engine e;
  std::int64_t sum = 0;
  for (int i = 0; i < 100000; ++i)
    e.schedule_at(Time::ns(i % 997), [&] { ++sum; });
  EXPECT_EQ(e.run(), 100000u);
  EXPECT_EQ(sum, 100000);
}

}  // namespace
}  // namespace xp::sim
