// Runtime-system tuning by extrapolation (§4.1's closing point).
//
// "If a polling policy must be used, a port of pC++ requires the choice of
// polling interval.  An optimal choice of the polling interval is
// certainly system and likely problem specific.  All of these questions
// can be explored with extrapolation."
//
// These helpers run the exploration: given one compiled trace set (a
// TranslatedTrace's `compiled`), they re-simulate it under candidate
// configurations and report the winner.  Measurement, translation and
// compilation are never repeated — only simulations, each one bitwise
// what core::predict gives for the same parameters (no extrapolated
// trace is logged: only the makespans are read).  The command-line
// front end is examples/policy_explorer.cpp.
#pragma once

#include <memory>
#include <vector>

#include "core/simulator.hpp"

namespace xp::core {

struct PollTuneResult {
  Time best_interval;
  Time best_time;
  /// (interval, predicted time) for every candidate, in input order.
  std::vector<std::pair<Time, Time>> tried;
};

/// Default candidate intervals: 10 us .. 5 ms, roughly logarithmic.
const std::vector<Time>& default_poll_intervals();

/// Find the polling interval minimizing predicted execution time (the
/// first candidate wins a tie).  `params.proc.policy` is forced to Poll
/// for each trial.
PollTuneResult tune_poll_interval(
    const std::shared_ptr<const CompiledTrace>& compiled, SimParams params,
    const std::vector<Time>& candidates = default_poll_intervals());

struct PolicyChoice {
  model::ServicePolicy policy;
  Time predicted;
  /// Predicted time under each non-polling policy.
  Time no_interrupt_time, interrupt_time;
  /// Every poll interval tried; poll.best_interval is meaningful as the
  /// chosen configuration only when policy == Poll.
  PollTuneResult poll;
};

/// Compare all three service policies (polling at its tuned interval) and
/// return the best configuration for this program/environment.  Ties go
/// to the earlier of NoInterrupt, Interrupt, Poll.
PolicyChoice choose_service_policy(
    const std::shared_ptr<const CompiledTrace>& compiled, SimParams params,
    const std::vector<Time>& poll_candidates = default_poll_intervals());

}  // namespace xp::core
