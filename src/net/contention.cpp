#include "net/contention.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace xp::net {

ContentionTracker::ContentionTracker(const ContentionParams& p,
                                     const Topology& topo)
    : p_(p), capacity_(topo.capacity()) {
  XP_REQUIRE(p_.factor >= 0.0, "contention factor must be >= 0");
  XP_REQUIRE(capacity_ > 0.0, "topology capacity must be positive");
}

double ContentionTracker::multiplier() const {
  if (!p_.enabled) return 1.0;
  const double others = std::max(0, inflight_);
  double m = 1.0 + p_.factor * others / capacity_;
  if (p_.max_multiplier > 1.0) m = std::min(m, p_.max_multiplier);
  return m;
}

void ContentionTracker::inject() {
  ++injections_;
  load_sum_ += inflight_;
  ++inflight_;
}

double ContentionTracker::mean_load() const {
  // Both counts stay far below 2^53, so each converts exactly and the
  // quotient is the correctly rounded mean.
  return injections_ == 0 ? 0.0
                          : static_cast<double>(load_sum_) /
                                static_cast<double>(injections_);
}

void ContentionTracker::deliver() {
  XP_CHECK(inflight_ > 0, "deliver without matching inject");
  --inflight_;
}

}  // namespace xp::net
