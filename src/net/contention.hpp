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
#include <vector>

#include "net/topology.hpp"
#include "util/stats.hpp"

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
  /// Load statistics sampled at each injection (for reports).
  const util::RunningStat& load_samples() const { return samples_; }

  /// While `log` is non-null, also append each injection's load sample
  /// (the in-flight count it saw) to it, in injection order.
  void log_samples(std::vector<std::int32_t>* log) { log_ = log; }
  /// Add logged samples to the load statistics in order: the same
  /// RunningStat, bit for bit, as injecting their messages again.
  void replay_samples(const std::vector<std::int32_t>& samples);

 private:
  ContentionParams p_;
  double capacity_;
  int inflight_ = 0;
  util::RunningStat samples_;
  std::vector<std::int32_t>* log_ = nullptr;
};

}  // namespace xp::net
