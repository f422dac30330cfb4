// Processor model helpers (§3.3.1).
//
// Computation times measured on the host are scaled by MipsRatio for the
// target processor.  Under the Poll service policy, a scaled computation
// interval is split into poll-interval chunks with a poll overhead at each
// boundary; these helpers compute the chunking deterministically so the
// simulator's replay and the unit tests agree exactly.
#pragma once

#include <vector>

#include "model/params.hpp"

namespace xp::model {

/// measured * MipsRatio.
Time scale_compute(const ProcessorParams& p, Time measured);

/// Chunk boundaries for one *scaled* computation interval under the Poll
/// policy: fills `out` (cleared first) with chunk lengths, each <=
/// poll_interval and summing to `scaled`.  Non-Poll policies yield the
/// whole interval as one chunk; zero-length intervals yield none.  The
/// buffer is caller-owned so the simulator's per-event hot path reuses one
/// allocation per thread.
void poll_chunks_into(const ProcessorParams& p, Time scaled,
                      std::vector<Time>& out);

/// Thread -> processor assignment for the multithreading extension:
/// round-robin over the effective processor count.
int proc_of_thread(const ProcessorParams& p, int thread, int n_threads);
/// Effective processor count (n_procs, or n_threads when n_procs == 0).
int effective_procs(const ProcessorParams& p, int n_threads);

}  // namespace xp::model
