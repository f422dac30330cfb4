// Unit tests for the non-preemptive fiber package.
//
// Every scheduler-behavior test runs against BOTH context-switch backends
// (the fcontext assembly switch and the ucontext fallback) via the value-
// parameterized fixture below: the backend must be invisible to fibers.
// The fcontext-only sections cover what the ucontext path cannot: pooled
// guard-page stacks (overflow dies loudly, churn reuses mappings) and the
// backend-vs-oracle differential over the full benchmark suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fiber/scheduler.hpp"
#include "fiber/stack_pool.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

namespace xp::fiber {
namespace {

std::vector<Backend> tested_backends() {
  std::vector<Backend> b{Backend::Ucontext};
  if (fcontext_supported()) b.push_back(Backend::Fcontext);
  return b;
}

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::Fcontext ? "fcontext" : "ucontext";
}

class FiberTest : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, FiberTest,
                         ::testing::ValuesIn(tested_backends()),
                         backend_name);

TEST_P(FiberTest, RunsSingleFiberToCompletion) {
  Scheduler s(GetParam());
  bool ran = false;
  s.spawn([&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.live_count(), 0u);
}

TEST_P(FiberTest, FifoOrderWithoutYields) {
  Scheduler s(GetParam());
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    s.spawn([&, i] { order.push_back(i); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(FiberTest, YieldInterleaves) {
  Scheduler s(GetParam());
  std::vector<std::string> log;
  s.spawn([&] {
    log.push_back("a1");
    s.yield();
    log.push_back("a2");
  });
  s.spawn([&] {
    log.push_back("b1");
    s.yield();
    log.push_back("b2");
  });
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST_P(FiberTest, CurrentReportsRunningFiber) {
  Scheduler s(GetParam());
  std::vector<int> seen;
  for (int i = 0; i < 3; ++i)
    s.spawn([&] { seen.push_back(s.current()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.current(), -1);
}

TEST_P(FiberTest, BlockAndUnblock) {
  Scheduler s(GetParam());
  std::vector<std::string> log;
  const int a = s.spawn([&] {
    log.push_back("a-block");
    s.block();
    log.push_back("a-resumed");
  });
  s.spawn([&, a] {
    log.push_back("b-unblocks-a");
    s.unblock(a);
  });
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a-block", "b-unblocks-a",
                                           "a-resumed"}));
}

TEST_P(FiberTest, DeadlockDetected) {
  Scheduler s(GetParam());
  s.spawn([&] { s.block(); });
  EXPECT_THROW(s.run(), util::Error);
}

TEST_P(FiberTest, ExceptionPropagatesToRun) {
  Scheduler s(GetParam());
  s.spawn([] { throw std::runtime_error("inside fiber"); });
  try {
    s.run();
    FAIL() << "exception should propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inside fiber");
  }
}

TEST_P(FiberTest, ManyFibersWithDeepStacks) {
  Scheduler s(GetParam());
  int total = 0;
  for (int i = 0; i < 64; ++i) {
    s.spawn([&s, &total] {
      // Recurse to exercise the fiber stack, yielding along the way.
      std::function<int(int)> rec = [&](int d) -> int {
        if (d == 0) return 1;
        if (d == 8) s.yield();
        volatile char pad[512];
        pad[0] = static_cast<char>(d);
        return pad[0] == static_cast<char>(d) ? rec(d - 1) + 1 : 0;
      };
      total += rec(32);
    });
  }
  s.run();
  EXPECT_EQ(total, 64 * 33);
}

TEST_P(FiberTest, SpawnFromWithinFiber) {
  Scheduler s(GetParam());
  std::vector<int> order;
  s.spawn([&] {
    order.push_back(0);
    s.spawn([&] { order.push_back(1); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// A switched-out fiber's saved stack pointer and run state live in the
// scheduler's arrays indexed by fiber id, which spawning grows.  Fibers
// blocked while a running fiber spawns thousands more (so those arrays
// reallocate) must resume on intact stacks, in the order they were
// unblocked.
TEST_P(FiberTest, BlockedFibersSurviveSwitchStateGrowth) {
  Scheduler s(GetParam());
  constexpr int kBlocked = 64;
  constexpr int kSpawned = 10000;
  constexpr std::uint64_t kCanary = 0xC0FFEE0000000000ull;
  std::vector<int> ids, resumed;
  int intact = 0;
  int finished = 0;
  for (int i = 0; i < kBlocked; ++i) {
    ids.push_back(s.spawn([&, i] {
      volatile std::uint64_t canary[4];
      for (auto& c : canary) c = kCanary + static_cast<std::uint64_t>(i);
      s.block();
      bool ok = true;
      for (const auto& c : canary)
        ok = ok && c == kCanary + static_cast<std::uint64_t>(i);
      intact += ok ? 1 : 0;
      EXPECT_EQ(finished, kSpawned);  // resumed after every spawned fiber
      resumed.push_back(i);
    }));
  }
  s.spawn([&] {
    for (int k = 0; k < kSpawned; ++k)
      s.spawn([&] { ++finished; }, 16 * 1024);
    for (int i = kBlocked - 1; i >= 0; --i) s.unblock(ids[i]);
  });
  s.run();
  std::vector<int> expected;
  for (int i = kBlocked - 1; i >= 0; --i) expected.push_back(i);
  EXPECT_EQ(intact, kBlocked);
  EXPECT_EQ(resumed, expected);
  EXPECT_EQ(finished, kSpawned);
  EXPECT_EQ(s.live_count(), 0u);
}

TEST_P(FiberTest, StateQueries) {
  Scheduler s(GetParam());
  const int id = s.spawn([&] { s.block(); });
  EXPECT_EQ(s.state_of(id), FiberState::Ready);
  s.spawn([&, id] {
    EXPECT_EQ(s.state_of(id), FiberState::Blocked);
    s.unblock(id);
    EXPECT_EQ(s.state_of(id), FiberState::Ready);
  });
  s.run();
  EXPECT_EQ(s.state_of(id), FiberState::Finished);
  EXPECT_THROW(s.state_of(99), util::Error);
}

TEST_P(FiberTest, UnblockNonBlockedRejected) {
  Scheduler s(GetParam());
  const int id = s.spawn([] {});
  EXPECT_THROW(s.unblock(id), util::Error);  // it is Ready, not Blocked
}

TEST_P(FiberTest, IdleHookDrivesProgress) {
  Scheduler s(GetParam());
  int blocked_id = -1;
  bool resumed = false;
  blocked_id = s.spawn([&] {
    s.block();
    resumed = true;
  });
  int hook_calls = 0;
  s.set_idle_hook([&] {
    ++hook_calls;
    if (hook_calls == 3) {
      s.unblock(blocked_id);
      return true;
    }
    return hook_calls < 5;
  });
  s.run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(hook_calls, 3);
}

TEST_P(FiberTest, IdleHookExhaustedMeansDeadlock) {
  Scheduler s(GetParam());
  s.spawn([&] { s.block(); });
  s.set_idle_hook([] { return false; });
  EXPECT_THROW(s.run(), util::Error);
}

TEST_P(FiberTest, RejectsTinyStack) {
  Scheduler s(GetParam());
  EXPECT_THROW(s.spawn([] {}, 1024), util::Error);
}

TEST_P(FiberTest, YieldOutsideFiberRejected) {
  Scheduler s(GetParam());
  EXPECT_THROW(s.yield(), util::Error);
  EXPECT_THROW(s.block(), util::Error);
}

TEST_P(FiberTest, BackendAccessorReportsResolvedBackend) {
  Scheduler s(GetParam());
  EXPECT_EQ(s.backend(), GetParam());
  EXPECT_NE(s.backend(), Backend::Auto);  // always resolved
}

TEST(Fiber, StateToString) {
  EXPECT_STREQ(to_string(FiberState::Ready), "ready");
  EXPECT_STREQ(to_string(FiberState::Running), "running");
  EXPECT_STREQ(to_string(FiberState::Blocked), "blocked");
  EXPECT_STREQ(to_string(FiberState::Finished), "finished");
}

TEST(Fiber, AutoResolvesToProcessDefault) {
  Scheduler s;
  EXPECT_EQ(s.backend(), default_backend());

  set_default_backend(Backend::Ucontext);
  EXPECT_EQ(Scheduler().backend(), Backend::Ucontext);
  set_default_backend(Backend::Auto);  // restore the build default
  EXPECT_EQ(Scheduler().backend(), default_backend());
}

TEST(Fiber, RequestingUnportedBackendThrows) {
  if (fcontext_supported()) {
    EXPECT_EQ(resolve_backend(Backend::Fcontext), Backend::Fcontext);
  } else {
    EXPECT_THROW(resolve_backend(Backend::Fcontext), util::Error);
  }
  EXPECT_EQ(resolve_backend(Backend::Ucontext), Backend::Ucontext);
}

// --- fcontext-only: pooled guard-page stacks ------------------------------

TEST(FiberStackPool, ChurnReusesStacksAcrossFiberLifetimes) {
  if (!fcontext_supported()) GTEST_SKIP() << "no fcontext port";
  const StackPoolStats before = stack_pool_stats();
  constexpr int kFibers = 10000;
  Scheduler s(Backend::Fcontext);
  long total = 0;
  for (int i = 0; i < kFibers; ++i)
    s.spawn([&total, i] { total += i; });
  s.run();
  const StackPoolStats after = stack_pool_stats();
  EXPECT_EQ(total, static_cast<long>(kFibers) * (kFibers - 1) / 2);
  const auto mapped = after.mapped - before.mapped;
  const auto reused = after.reused - before.reused;
  // FIFO + no yields: at most one fiber is in flight at a time, so the 10k
  // lifetimes are served by (at most) one fresh mapping — the scheduler
  // returns a stack to the pool the moment its fiber finishes.
  EXPECT_EQ(mapped + reused, static_cast<std::uint64_t>(kFibers));
  EXPECT_LE(mapped, 1u);
  EXPECT_GE(reused, static_cast<std::uint64_t>(kFibers - 1));
  EXPECT_EQ(after.active, before.active);  // nothing leaked
}

TEST(FiberStackPool, InterleavedFibersGetDistinctStacks) {
  if (!fcontext_supported()) GTEST_SKIP() << "no fcontext port";
  const StackPoolStats before = stack_pool_stats();
  constexpr int kWave = 8;
  Scheduler s(Backend::Fcontext);
  for (int i = 0; i < kWave; ++i)
    s.spawn([&s] {
      s.yield();  // all kWave fibers alive (started) at once
      s.yield();
    });
  s.run();
  const StackPoolStats after = stack_pool_stats();
  EXPECT_EQ((after.mapped - before.mapped) + (after.reused - before.reused),
            static_cast<std::uint64_t>(kWave));
  EXPECT_EQ(after.active, before.active);
}

/// Stacks in the free list: every mapped stack is active, pooled or
/// unmapped.
std::uint64_t pooled(const StackPoolStats& s) {
  return s.mapped - s.unmapped - s.active;
}

TEST(FiberStackPool, ReleasePastCapUnmapsExactlyTheExcess) {
  stack_pool_trim();
  // Past kGuardedStackLimit live stacks the rest come from a slab; all of
  // them are released into a pool that keeps kGuardedStackLimit.
  constexpr std::size_t kStacks = kGuardedStackLimit + 64;
  std::vector<StackSpan> spans;
  spans.reserve(kStacks);
  for (std::size_t i = 0; i < kStacks; ++i)
    spans.push_back(stack_acquire(16 * 1024));
  const StackPoolStats before = stack_pool_stats();
  ASSERT_LE(pooled(before), kGuardedStackLimit);
  for (const StackSpan& s : spans) stack_release(s);
  const StackPoolStats after = stack_pool_stats();
  EXPECT_EQ(after.unmapped - before.unmapped,
            kStacks - (kGuardedStackLimit - pooled(before)));
  EXPECT_EQ(pooled(after), kGuardedStackLimit);
  EXPECT_EQ(after.active, before.active - kStacks);
  stack_pool_trim();
  EXPECT_EQ(pooled(stack_pool_stats()), 0u);
}

TEST(FiberStackPool, TrimEmptiesThePool) {
  std::vector<StackSpan> spans;
  for (int i = 0; i < 8; ++i) spans.push_back(stack_acquire(64 * 1024));
  for (int i = 0; i < 4; ++i) spans.push_back(stack_acquire(128 * 1024));
  for (const StackSpan& s : spans) stack_release(s);
  const StackPoolStats before = stack_pool_stats();
  EXPECT_GE(pooled(before), 12u);
  stack_pool_trim();
  const StackPoolStats after = stack_pool_stats();
  EXPECT_EQ(pooled(after), 0u);
  EXPECT_EQ(after.unmapped - before.unmapped, pooled(before));
  // A later acquisition maps afresh.
  const StackSpan s = stack_acquire(64 * 1024);
  EXPECT_EQ(stack_pool_stats().mapped, after.mapped + 1);
  stack_release(s);
}

TEST(FiberStackPoolDeathTest, GuardPageCatchesStackOverflow) {
  if (!fcontext_supported()) GTEST_SKIP() << "no fcontext port";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Recursing past the end of a pooled stack must hit the PROT_NONE guard
  // page and die (SIGSEGV), not silently corrupt neighboring memory.
  EXPECT_DEATH(
      {
        Scheduler s(Backend::Fcontext);
        s.spawn(
            [] {
              std::function<long(long)> rec = [&](long d) -> long {
                volatile char frame[1024];
                frame[0] = static_cast<char>(d);
                return d + frame[0] + rec(d + 1);
              };
              rec(0);
            },
            16 * 1024);  // minimum stack: overflow fast
        s.run();
      },
      "");
}

// --- differential: fcontext vs ucontext on the full suite -----------------

// Both backends must yield bitwise-identical traces: the virtual clock
// drives every timestamp, and scheduling order is backend-independent.
// Serializing through trace_io makes the comparison total (events, order,
// metadata).
TEST(FiberDifferential, BackendsProduceIdenticalTracesOnFullSuite) {
  if (!fcontext_supported()) GTEST_SKIP() << "no fcontext port";
  suite::SuiteConfig cfg;  // defaults: small but exercises every bench
  for (const std::string& name : suite::benchmark_names()) {
    std::string out[2];
    const Backend backends[2] = {Backend::Ucontext, Backend::Fcontext};
    for (int b = 0; b < 2; ++b) {
      set_default_backend(backends[b]);
      auto prog = suite::make_by_name(name, cfg);
      rt::MeasureOptions mo;
      mo.n_threads = 8;
      const trace::Trace t = rt::measure(*prog, mo);
      std::ostringstream os;
      trace::write_text(t, os);
      out[b] = os.str();
    }
    set_default_backend(Backend::Auto);
    EXPECT_EQ(out[0], out[1]) << "trace mismatch between backends on '"
                              << name << "'";
  }
}

}  // namespace
}  // namespace xp::fiber
