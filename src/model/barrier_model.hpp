// Barrier model (§3.3.3).
//
// The paper's model is a linear master–slave barrier: thread 0 is the
// master; every slave entering the barrier sends it a message and waits for
// a release message.  Substitutable algorithms are represented as a
// *synchronization plan* — for each thread, whom it notifies on arrival and
// who releases it — so the simulator drives any algorithm with the same
// message machinery:
//
//   Linear   — all slaves notify thread 0; thread 0 releases all.
//   LogTree  — binary combining tree: arrivals flow up, releases flow down.
//   Hardware — no messages; release = max(arrival) + ModelTime (a dedicated
//              barrier network, e.g. the CM-5 control network).
//
// For BarrierByMsgs == 0 (or Hardware), release times are computed
// analytically from the Table 1 parameters without message traffic.
#pragma once

#include <vector>

#include "model/params.hpp"
#include "util/time.hpp"

namespace xp::model {

/// Message pattern of one barrier algorithm for n threads.
struct BarrierPlan {
  /// notify[t] = thread to message when t's subtree (incl. t) has arrived;
  /// -1 for the root.
  std::vector<int> notify;
  /// children[t] = threads whose arrival t must collect before notifying
  /// upward / releasing downward.
  std::vector<std::vector<int>> children;
  /// release_order[t] = threads t sends release messages to (its children).
  int root = 0;
};

/// Build the plan for `alg` over n threads.  Hardware yields an empty
/// message pattern (use analytic release).
BarrierPlan make_plan(BarrierAlg alg, int n_threads);

/// Analytic release: given per-thread barrier arrival times (already
/// including EntryTime), the one instant every thread exits a non-message
/// barrier.  Per Table 1 semantics: the master observes the last arrival
/// (plus one CheckTime per arrival it checks), waits ModelTime, lowers the
/// barrier; each thread leaves after ExitCheckTime + ExitTime.  The result
/// is the last arrival plus constants.
Time analytic_release(const BarrierParams& p,
                      const std::vector<Time>& arrivals);

}  // namespace xp::model
