// Trace translation (§3.2) — first half of the paper's contribution.
//
// Input: the merged trace of an n-thread program measured on ONE processor
// (threads interleaved on a single clock, switching only at barriers).
// Output: the *ideal* parallel execution of the same threads on n
// processors:
//
//   * non-synchronization events keep their per-thread inter-event deltas
//     (t2' = t2 - t1 + t1'),
//   * every BarrierExit is aligned to the latest translated BarrierEntry of
//     that barrier instance (instant barriers),
//   * each thread's first event moves to time zero,
//   * per-event instrumentation overhead and trace-buffer flush charges
//     recorded by the tracer are removed from the deltas.
//
// The result assumes instant remote accesses, instant barriers, and
// unperturbed computation; the simulator (core/simulator.hpp) then adds the
// target environment's costs back in.
//
// lower_measured() produces it in the simulator's compiled form, in one
// pass over the measured trace; translate() expands that form back into
// one trace::Trace per thread for the callers that keep or write one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/compiled_trace.hpp"
#include "trace/trace.hpp"
#include "util/time.hpp"

namespace xp::core {

using util::Time;

struct TranslateOptions {
  /// Remove the per-event instrumentation overhead ("event_overhead_ns")
  /// and the trace-buffer flush charges ("flush_every", "flush_cost_ns")
  /// stored in the trace metadata from every inter-event delta.
  bool remove_event_overhead = true;
};

/// Translate a measured 1-processor trace straight into compiled form,
/// field for field what CompiledTrace::compile(translate(measured, opt))
/// gives.  The input is validated; throws util::TraceError on structural
/// problems.
CompiledTrace lower_measured(const trace::Trace& measured,
                             const TranslateOptions& opt = {});

/// Translate a measured 1-processor trace into n idealized per-thread
/// traces: lower_measured()'s steps expanded (its epoch classes are not
/// built), each Barrier step back into its BarrierEntry and a BarrierExit
/// at the barrier's release.  Metadata is the measured trace's plus
/// "thread" and "translated".
std::vector<trace::Trace> translate(const trace::Trace& measured,
                                    const TranslateOptions& opt = {});

/// Makespan of a translated trace set: the ideal n-processor execution time
/// under zero communication/synchronization cost.
Time ideal_parallel_time(const std::vector<trace::Trace>& translated);

// --- representative-epoch fingerprints (DESIGN.md §15) ----------------------
//
// Computed at translation/compile time so the (expensive, parameter-
// independent) epoch grouping is paid once per TranslateCache entry and
// shared read-only by every simulation of a sweep, exactly like the
// segment table itself.

/// 64-bit structural fingerprint of epoch `epoch` (segment index): per
/// thread, the thread index, every op kind and unscaled compute interval of
/// the segment, and every remote record's (peer, declared_bytes,
/// actual_bytes, is_write).  Excludes barrier ids (instance names, not
/// costs) and object ids (never enter a cost).
std::uint64_t epoch_fingerprint(const CompiledTrace& ct, std::int64_t epoch);

/// Exact content equality of two epochs: same per-thread op-kind sequences,
/// identical pre_delta intervals, identical remote records.  This is the
/// collision-proofing check behind EpochClassTable — classes merge only
/// when this holds, so two epochs in one class replay identically under
/// EVERY parameter set.
bool epochs_identical(const CompiledTrace& ct, std::int64_t a, std::int64_t b);

/// Group all epochs into classes of bit-identical content (fingerprint
/// match + epochs_identical verification).  Class indices are in
/// first-occurrence order, so exemplar[] is strictly increasing and the
/// final (End-terminated) epoch is always a singleton.
EpochClassTable build_epoch_classes(const CompiledTrace& ct);

/// `ct`'s class table with every epoch made its own class (count 1).  The
/// sampled path over it walks every epoch in order: the full analytic walk
/// the benches and tests measure epoch sampling against.
EpochClassTable singleton_epoch_classes(const CompiledTrace& ct);

}  // namespace xp::core
