// Processor model helpers (§3.3.1).
//
// Computation times measured on the host are scaled by MipsRatio for the
// target processor.  Under the Poll service policy, a scaled computation
// interval runs as poll-interval chunks with a poll check at each boundary
// between two chunks; these helpers give the chunking in closed form, so
// every simulator path (eager chunks, held intervals, collapsed segments)
// and the unit tests agree exactly.
#pragma once

#include <cstdint>

#include "model/params.hpp"

namespace xp::model {

/// measured * MipsRatio.
Time scale_compute(const ProcessorParams& p, Time measured);

/// Poll boundaries inside one *scaled* computation interval:
/// (scaled − 1) / poll_interval under the Poll policy, so the interval runs
/// as boundaries + 1 chunks; 0 for other policies and empty intervals.
/// Inline: the simulator asks once or twice per replayed op.
inline std::int64_t poll_boundaries(const ProcessorParams& p, Time scaled) {
  if (p.policy != ServicePolicy::Poll || scaled <= Time::zero()) return 0;
  return (scaled.count_ns() - 1) / p.poll_interval.count_ns();
}

/// Length of chunk j of a non-empty scaled interval:
/// min(poll_interval, scaled − j·poll_interval) under Poll, every chunk
/// but the last a full interval; the whole interval for other policies.
inline Time poll_chunk(const ProcessorParams& p, Time scaled,
                       std::int64_t j) {
  if (p.policy != ServicePolicy::Poll) return scaled;
  const std::int64_t interval = p.poll_interval.count_ns();
  const std::int64_t rest = scaled.count_ns() - j * interval;
  return Time::ns(rest < interval ? rest : interval);
}

/// Thread -> processor assignment for the multithreading extension:
/// round-robin over the effective processor count.
int proc_of_thread(const ProcessorParams& p, int thread, int n_threads);
/// Effective processor count (n_procs, or n_threads when n_procs == 0).
int effective_procs(const ProcessorParams& p, int n_threads);

}  // namespace xp::model
