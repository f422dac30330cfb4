#include "model/barrier_model.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace xp::model {

BarrierPlan make_plan(BarrierAlg alg, int n_threads) {
  XP_REQUIRE(n_threads > 0, "barrier plan needs threads");
  BarrierPlan plan;
  plan.notify.assign(static_cast<std::size_t>(n_threads), -1);
  plan.children.assign(static_cast<std::size_t>(n_threads), {});
  plan.root = 0;

  switch (alg) {
    case BarrierAlg::Linear:
      for (int t = 1; t < n_threads; ++t) {
        plan.notify[static_cast<std::size_t>(t)] = 0;
        plan.children[0].push_back(t);
      }
      break;
    case BarrierAlg::LogTree:
      // Binary combining tree rooted at 0: children of t are 2t+1, 2t+2.
      for (int t = 1; t < n_threads; ++t) {
        const int parent = (t - 1) / 2;
        plan.notify[static_cast<std::size_t>(t)] = parent;
        plan.children[static_cast<std::size_t>(parent)].push_back(t);
      }
      break;
    case BarrierAlg::Hardware:
      // No messages; analytic release only.
      break;
  }
  return plan;
}

Time analytic_release(const BarrierParams& p,
                      const std::vector<Time>& arrivals) {
  XP_REQUIRE(!arrivals.empty(), "no arrivals");
  const int n = static_cast<int>(arrivals.size());
  const Time last = *std::max_element(arrivals.begin(), arrivals.end());
  // The master checks once per arrival it has to observe.
  const Time lowered = last + p.check_time * static_cast<double>(n - 1) +
                       p.model_time;
  return lowered + p.exit_check_time + p.exit_time;
}

}  // namespace xp::model
