// Network contention model.
//
// Per §3.3.2, contention is not simulated at the link level (too slow for
// rapid extrapolation).  Instead an analytical expression stretches each
// message's transfer using "the intensity of concurrent use of shared
// system resources ... calculated from the simulation state": the tracker
// counts messages currently in flight, and a new injection sees a
// multiplier
//
//   mult = 1 + factor * max(0, inflight_others) / capacity(topology)
//
// where capacity is the topology's concurrency proxy (bus 1, fat tree P/2,
// crossbar P, ...).  A bus therefore degrades quickly under load while a
// fat tree barely notices modest traffic — the qualitative behaviour the
// paper's contention factors capture.
#pragma once

#include <cstdint>

#include "net/topology.hpp"

namespace xp::net {

struct ContentionParams {
  bool enabled = true;
  /// Strength of the analytic delay expression.
  double factor = 1.0;

  /// Optional hard cap on the multiplier (0 = uncapped).
  double max_multiplier = 0.0;
};

class ContentionTracker {
 public:
  ContentionTracker(const ContentionParams& p, const Topology& topo);

  /// Multiplier a message injected right now would experience.
  double multiplier() const;

  /// Bookkeeping: a message entered / left the network.
  void inject();
  void deliver();

  int inflight() const { return inflight_; }
  /// Messages injected, and the sum over them of the in-flight count each
  /// saw: the load statistic for reports, kept in integers so that traffic
  /// replayed in bulk (replay) adds exactly what its injections would.
  std::int64_t injections() const { return injections_; }
  std::int64_t load_sum() const { return load_sum_; }
  /// Mean in-flight count at injection (0 before the first), correctly
  /// rounded.
  double mean_load() const;

  /// Account for `messages` injections whose in-flight counts sum to
  /// `load_sum`, without simulating them.
  void replay(std::int64_t messages, std::int64_t load_sum) {
    injections_ += messages;
    load_sum_ += load_sum;
  }

 private:
  ContentionParams p_;
  double capacity_;
  int inflight_ = 0;
  std::int64_t injections_ = 0;
  std::int64_t load_sum_ = 0;
};

}  // namespace xp::net
