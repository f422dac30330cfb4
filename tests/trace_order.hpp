// Test-side check that a trace's events are non-decreasing in time.  The
// library holds this rule inside Trace::validate(); tests that build or
// transform traces assert it directly, naming the first event out of order.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "trace/trace.hpp"

namespace xp::test {

inline ::testing::AssertionResult time_ordered(const trace::Trace& t) {
  for (std::size_t i = 1; i < t.size(); ++i)
    if (t[i].time < t[i - 1].time)
      return ::testing::AssertionFailure()
             << "event " << i << " (" << t[i].str() << ") precedes event "
             << i - 1 << " (" << t[i - 1].str() << ")";
  return ::testing::AssertionSuccess();
}

}  // namespace xp::test
