// The differential oracle every exact simulation mode is held to: a run is
// bitwise-equal to the EventDriven replay of the same trace and machine.
// Shared by the fast-path suites (segment collapse, epoch sampling, the
// barrier-epoch memo, held poll intervals).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/simulator.hpp"

namespace xp::test {

/// Expect the numbers of `got` to equal those of `want` bit for bit:
/// makespan, every ThreadStats field, messages, bytes and avg_inflight.
/// They do not depend on SimOptions::emit_trace.
inline void expect_same_numbers(const core::SimResult& want,
                                const core::SimResult& got,
                                const std::string& what) {
  static_assert(sizeof(core::ThreadStats) == 12 * sizeof(std::int64_t),
                "compare every ThreadStats field below");
  SCOPED_TRACE(what);
  EXPECT_EQ(want.makespan.count_ns(), got.makespan.count_ns());
  ASSERT_EQ(want.threads.size(), got.threads.size());
  for (std::size_t t = 0; t < want.threads.size(); ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    const core::ThreadStats& a = want.threads[t];
    const core::ThreadStats& b = got.threads[t];
    EXPECT_EQ(a.compute.count_ns(), b.compute.count_ns());
    EXPECT_EQ(a.comm_wait.count_ns(), b.comm_wait.count_ns());
    EXPECT_EQ(a.barrier_wait.count_ns(), b.barrier_wait.count_ns());
    EXPECT_EQ(a.send_overhead.count_ns(), b.send_overhead.count_ns());
    EXPECT_EQ(a.service_time.count_ns(), b.service_time.count_ns());
    EXPECT_EQ(a.poll_time.count_ns(), b.poll_time.count_ns());
    EXPECT_EQ(a.finish.count_ns(), b.finish.count_ns());
    EXPECT_EQ(a.remote_accesses, b.remote_accesses);
    EXPECT_EQ(a.intra_cluster_accesses, b.intra_cluster_accesses);
    EXPECT_EQ(a.requests_served, b.requests_served);
    EXPECT_EQ(a.interrupts_taken, b.interrupts_taken);
    EXPECT_EQ(a.polls, b.polls);
  }
  EXPECT_EQ(want.messages, got.messages);
  EXPECT_EQ(want.bytes, got.bytes);
  EXPECT_EQ(want.avg_inflight, got.avg_inflight);
}

/// Expect `got` to equal `want` bit for bit: expect_same_numbers and the
/// extrapolated events in order (both empty when neither run emitted a
/// trace).  Reports the first differing event rather than printing whole
/// traces.
inline void expect_same_result(const core::SimResult& want,
                               const core::SimResult& got,
                               const std::string& what) {
  expect_same_numbers(want, got, what);
  SCOPED_TRACE(what);
  const auto& a = want.extrapolated().events();
  const auto& b = got.extrapolated().events();
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    if (!(a[i] == b[i])) {
      ADD_FAILURE() << "event " << i << " is " << b[i].str()
                    << ", oracle has " << a[i].str();
      return;
    }
}

}  // namespace xp::test
