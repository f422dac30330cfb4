// Compiled (structure-of-arrays) replay form of a translated trace set.
//
// The simulator used to re-walk 40+-byte AoS trace::Event records on every
// replay step of every simulation; under a sweep the same translated traces
// are replayed once per grid cell, so the walk cost multiplies by the grid
// size.  The trace set is lowered ONCE into flat per-thread arrays the
// replay loop consumes with index cursors:
//
//   ops[i]        what replay step i does (begin/end/remote/barrier/phase),
//   pre_delta[i]  the unscaled compute interval preceding step i (the
//                 paper's per-thread computation time, already corrected
//                 for the barrier-exit rule: the interval after a barrier
//                 is measured from the BarrierExit timestamp),
//   remotes[]     packed remote-access records, consumed in order by
//                 OpKind::Remote steps,
//   proto[i]      the translated event, kept for full-fidelity re-emission
//                 into the extrapolated output trace (replay decisions
//                 never read it),
//
// plus one barrier-id run for the whole set, consumed in order by every
// thread's OpKind::Barrier steps (each Barrier step covers the trace's
// paired BarrierEntry + BarrierExit; the simulator generates the real exit
// time itself).  The data-parallel model has every thread pass the same
// barriers (§3.2), so lockstep is part of the layout: a set whose threads
// disagree on an id or on the barrier count does not lower.
//
// Two lowerings build it, through one per-event step (ThreadLowering):
// core::lower_measured (core/translate.hpp) straight from a measured trace
// in one pass — the pipeline's path — and CompiledTrace::compile from
// per-thread translated traces (files, hand-built sets).  Structural
// validation happens there, once per TranslateCache entry instead of once
// per simulation.  A CompiledTrace is immutable after lowering and is
// shared read-only (std::shared_ptr) across all concurrent simulations of
// a sweep and by every SimResult whose extrapolated trace reads its protos.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/time.hpp"

namespace xp::core {

using util::Time;

/// What one replay step does.  Payloads live in the per-kind arrays and are
/// consumed in order, so the hot loop never touches a full trace::Event.
enum class OpKind : std::uint8_t {
  Begin,    ///< ThreadBegin marker
  End,      ///< ThreadEnd marker; the thread is done after this step
  Remote,   ///< remote element access; consumes one RemoteRec
  Barrier,  ///< barrier entry (paired exit folded in); consumes one id
  Phase,    ///< user phase marker (begin or end)
};

/// Packed remote-access record: the protocol-relevant fields of a
/// RemoteRead/RemoteWrite event in 16 bytes.  The element index is left to
/// the proto: no cost depends on it.
struct RemoteRec {
  std::int32_t peer = -1;            ///< owner thread
  std::int32_t declared_bytes = 0;   ///< compiler-declared transfer size
  std::int32_t actual_bytes = 0;     ///< bytes actually moved
  bool is_write = false;
};
static_assert(sizeof(RemoteRec) == 16, "the remote record stays 16 bytes");

/// One barrier-delimited slice of a thread's op stream (a "segment" in the
/// hybrid-simulation sense): ops[op_begin..op_end] where ops[op_end] is the
/// terminating Barrier (or End for the final segment).  Segment e of every
/// thread lies between global barrier e-1's release and barrier e's release,
/// so when no cross-cluster remote access touches a thread during an epoch
/// the whole slice has a closed-form cost and the simulator can skip the
/// event engine for it (core/simulator.hpp, segment collapse).  `presum` is
/// the compile-time pre-summed record: the unscaled compute total of the
/// slice, exact to use whole when MipsRatio == 1 and the service policy is
/// not Poll (Time scaling is llround per interval, so a scaled sum is not a
/// sum of scaled intervals in general).
struct Segment {
  std::uint32_t op_begin = 0;
  std::uint32_t op_end = 0;      ///< index of the terminating Barrier/End op
  std::uint32_t remote_begin = 0;
  std::uint32_t remote_end = 0;  ///< remotes consumed inside the segment
  Time presum;                   ///< sum of pre_delta[op_begin..op_end]

  /// Pre-summed remote records over the slice's accesses whose owner is
  /// another thread (self-accesses cost nothing).  Because Time is integer
  /// nanoseconds, the per-access intra-cluster cost
  /// `intra_latency + intra_byte_time * bytes` is an exact integer product,
  /// so llround distributes over these sums and the simulator can charge a
  /// whole slice's communication in O(1) — it falls back to the per-record
  /// walk when the products could exceed double's 2^53 exact-integer range.
  std::int64_t nonself_remotes = 0;
  std::int64_t nonself_declared_bytes = 0;
  std::int64_t nonself_actual_bytes = 0;
};

struct CompiledThread {
  std::vector<OpKind> ops;
  std::vector<Time> pre_delta;
  std::vector<RemoteRec> remotes;
  std::vector<trace::Event> proto;  ///< emit templates, aligned with ops
  /// CompiledTrace::barrier_ids.size() + 1 entries
  std::vector<Segment> segments;
};

/// One thread's lowering cursor, the per-event step both lowerings share:
/// push() appends the replay step for one event and closes a Segment at
/// every Barrier and End step, so the segment table is built as the ops
/// are.  The thread's k-th Barrier step appends its id to the shared
/// barrier-id run when this thread is the first to reach barrier k, and
/// must match entry k otherwise (util::TraceError if not).
struct ThreadLowering {
  CompiledThread* out = nullptr;
  std::vector<std::int32_t>* barrier_ids = nullptr;  ///< the shared run
  std::int32_t thread = 0;
  /// The segment being built; open.presum is the compute time since it
  /// began (since the last barrier release, in translated time).
  Segment open;

  /// Append the step for `e` after a compute interval `delta`; its proto
  /// is `e` at time `at`.  `e` is any kind but BarrierExit, which folds
  /// into the preceding Barrier step (the caller skips it).
  void push(const trace::Event& e, Time delta, Time at);
};

/// Representative-epoch class table (DESIGN.md §15).  Iterative codes
/// replay near-identical barrier-delimited epochs thousands of times; this
/// table groups a trace set's epochs into classes of BIT-IDENTICAL content
/// so the simulator's fast paths (SimMode::Auto) can simulate one epoch per
/// class and replay its recorded effect for the rest.
///
/// Epoch e's content is the cross-thread tuple of segment e's op kinds,
/// unscaled compute intervals (pre_delta), remote records (peer / declared
/// / actual / is_write — NOT the object id, which never enters a cost),
/// and terminator kind.  Barrier ids are deliberately EXCLUDED: they name
/// barrier instances, not costs, so iteration k and iteration k+1 of the
/// same loop body land in the same class.  `fingerprint` is a 64-bit hash
/// of that content; classes are only merged after a full structural
/// comparison of the exemplars, so hash collisions can never merge
/// distinct epochs (they only cost a comparison).  The final epoch
/// terminates with End instead of Barrier and therefore always forms its
/// own class.
///
/// Built once per CompiledTrace, whose epochs are lockstep by construction,
/// and shared read-only by every simulation.
struct EpochClassTable {
  std::vector<std::uint64_t> fingerprint;  ///< per epoch
  std::vector<std::int32_t> class_of;      ///< per epoch -> class index
  std::vector<std::int64_t> exemplar;      ///< per class -> first epoch
  std::vector<std::int64_t> count;         ///< per class -> member epochs

  std::int64_t epochs() const {
    return static_cast<std::int64_t>(class_of.size());
  }
  std::int64_t n_classes() const {
    return static_cast<std::int64_t>(exemplar.size());
  }
};

/// Thread count from which one prediction uses several host threads
/// (util::parallel_workers): the lowerings split their per-thread work over
/// thread ranges (DESIGN.md §9), and the event path simulates its distinct
/// barrier-epoch windows at the same time (DESIGN.md §16).  Smaller traces
/// lower and simulate in a few milliseconds, where starting threads would
/// cost a real share, so they stay on the caller's thread.
inline constexpr int kParallelMinThreads = 1024;

struct CompiledTrace {
  int n_threads = 0;
  std::vector<CompiledThread> threads;

  /// The barrier ids every thread passes, in order: barrier k ends epoch k
  /// on every thread, so epochs advance in lockstep.
  std::vector<std::int32_t> barrier_ids;

  /// Epoch -> class grouping for representative-epoch sampling; built by
  /// finish().
  EpochClassTable epoch_classes;

  /// The ideal n-processor makespan (zero communication and
  /// synchronization cost): the latest translated ThreadEnd.
  Time ideal_time;

  /// Lower a translated trace set (one trace per thread, as produced by
  /// core::translate) into compiled form.  Throws util::TraceError on a
  /// set replay cannot run: an empty thread, a foreign event, time going
  /// backwards, an unpaired BarrierEntry or BarrierExit, no ThreadEnd, or
  /// threads that do not pass the same barriers in the same order.
  static CompiledTrace compile(const std::vector<trace::Trace>& translated);

  /// The lowering's last step, once every thread's steps are pushed with
  /// their final proto times: epoch_classes and ideal_time.
  void finish();
};

}  // namespace xp::core
