// Trace-driven extrapolation simulator (§3.3) — second half of the paper's
// contribution.
//
// Replays n translated per-thread traces against a model of the target
// execution environment: computation intervals scaled by MipsRatio and
// split per the service policy, remote element accesses expanded into
// request/service/reply message exchanges over the interconnect model, and
// barriers resolved by the (linear master-slave, logarithmic, or hardware)
// barrier model.  Produces the extrapolated trace and a full per-thread
// cost breakdown.
//
// Processor CPUs are explicit resources: every CPU-consuming activity
// (compute chunk, message build/start-up, request service, barrier
// bookkeeping) is serialized through its processor's queue, and only
// compute chunks are preemptible (by the Interrupt service policy).  The
// multithreading extension (§6) assigns several threads to one processor
// and they share that CPU non-preemptively.
#pragma once

#include <cstdint>
#include <vector>

#include "core/compiled_trace.hpp"
#include "model/params.hpp"
#include "trace/trace.hpp"
#include "util/time.hpp"

namespace xp::core {

using model::SimParams;
using util::Time;

/// Per-thread cost breakdown of one extrapolated execution.
struct ThreadStats {
  Time compute;        ///< scaled computation replayed from the trace
  Time comm_wait;      ///< blocked waiting for remote-access replies
  Time barrier_wait;   ///< from barrier arrival to barrier exit
  Time send_overhead;  ///< CPU spent building/starting own messages
  Time service_time;   ///< CPU spent servicing other threads' requests
  Time poll_time;      ///< CPU spent on poll checks
  Time finish;         ///< time of the thread's last trace event
  std::int64_t remote_accesses = 0;
  std::int64_t intra_cluster_accesses = 0;  ///< served by shared memory
  std::int64_t requests_served = 0;
  std::int64_t interrupts_taken = 0;
  std::int64_t polls = 0;

  bool operator==(const ThreadStats&) const = default;
};

/// Simulation mode (the hybrid analytic/discrete-event fast path).
///
///  * EventDriven — replay every op through the radix-calendar engine.
///    The differential oracle: always available, always exact.
///  * Hybrid — collapse barrier-delimited segments whose cost has a closed
///    form (compute intervals + same-processor / intra-cluster remote
///    accesses, with no cross-cluster traffic touching the thread that
///    epoch) into analytic cost records and drop into the engine only for
///    the remaining event segments.  The classifier is conservative: a
///    segment is collapsed only when the closed form is provably exact, so
///    Hybrid produces bitwise-identical makespans and per-thread stats to
///    EventDriven on every input — demotion, not divergence, is the
///    fallback.  When EVERY segment collapses the engine is skipped
///    entirely (HybridStats::Path::PureAnalytic), which is what makes
///    n = 10^4..10^6 simulated processors feasible.
///    Under message barriers (where nothing collapses) Hybrid and Auto
///    instead memoize barrier epochs on the event path when no trace is
///    emitted: a window between two quiescent barrier points is simulated
///    once per epoch class and replayed from its recorded deltas after
///    that (DESIGN.md §16) — again bitwise-identical to EventDriven.
///  * Auto — let the library pick: Hybrid, plus representative-epoch
///    SAMPLING on top of the pure-analytic path (DESIGN.md §15).  When the
///    whole run is engine-free and no extrapolated trace is requested, Auto
///    simulates ONE exemplar per epoch class (bit-identical epochs grouped
///    at compile time, core::EpochClassTable) and composes the prediction
///    as Σ class_count × exemplar advance — exact, because analytic
///    barriers release every thread at one uniform instant and segment
///    walks are start-translation-invariant, so integer per-class deltas
///    multiply without error.  Identical-epoch dedup is therefore ALSO
///    bitwise-equal to EventDriven; with SimOptions::epoch_tolerance > 0
///    it additionally substitutes near-identical classes and reports a
///    certified error bound (SamplingStats::error_bound).
enum class SimMode : std::uint8_t { EventDriven, Hybrid, Auto };
const char* to_string(SimMode m);

struct SimOptions {
  SimMode mode = SimMode::EventDriven;
  /// Build the re-timestamped extrapolated trace.  Costs O(events) memory +
  /// a sort; numeric outputs (makespan, stats, messages) are unaffected, so
  /// huge-n scaling runs turn it off.  Also disables Auto's epoch sampling
  /// (every epoch must be walked to emit its events).
  bool emit_trace = true;
  /// Representative-epoch sampling tolerance (Auto mode only).  0 = exact
  /// dedup: only bit-identical epochs share an exemplar, predictions stay
  /// bitwise-equal to full simulation.  > 0 = additionally cluster
  /// same-shape classes whose per-thread compute totals differ by at most
  /// this RELATIVE fraction; the substitution error is certified in
  /// SamplingStats::error_bound.  Ignored (treated as 0) under the Poll
  /// service policy, whose cost is not Lipschitz in the compute intervals
  /// (an interval crossing a poll boundary jumps by a full poll overhead).
  double epoch_tolerance = 0.0;
};

/// How the fast paths fared on one run.  segments are per-(epoch, thread)
/// barrier-delimited slices; segments_total is filled in every mode, the
/// other counters stay zero in EventDriven mode.  A demoted segment is one
/// the classifier sent to the event engine because cross-cluster traffic
/// touched its thread that epoch (contended owner or message-latency
/// dependence), or because the run uses message barriers or shared CPUs.
///
/// memo_hits / memo_misses count barrier-epoch memoization on the event
/// path (DESIGN.md §16): windows between two quiescent barrier points that
/// were replayed from a recorded window of the same epoch class (hits), or
/// had to run through the engine (misses).  Both stay zero unless the run
/// uses message barriers, emits no trace and is not EventDriven.
struct HybridStats {
  enum class Path : std::uint8_t {
    Event,         ///< whole run replayed through the engine
    Mixed,         ///< collapsed segments + event segments coexist
    PureAnalytic,  ///< every segment collapsed; engine never ran
  };
  Path path = Path::Event;
  std::int64_t epochs = 0;
  std::int64_t segments_total = 0;
  std::int64_t segments_collapsed = 0;
  std::int64_t segments_demoted = 0;
  std::int64_t ops_collapsed = 0;  ///< replay steps that skipped the engine
  std::int64_t memo_hits = 0;
  std::int64_t memo_misses = 0;
};

/// How representative-epoch sampling fared on one run (SimMode::Auto over
/// a fully-analytic trace; all zeros otherwise).  Exactness tiers:
///
///   * tier 1 (dedup, epoch_tolerance == 0): every epoch's costs come from
///     a bit-identical exemplar, so the prediction is bitwise-equal to full
///     simulation and error_bound is zero by construction.
///   * tier 2 (tolerance clustering): epochs_approximated epochs took their
///     costs from a same-shape exemplar whose compute intervals differ;
///     |sampled − exact| <= error_bound on the makespan, certified from the
///     per-interval differences (DESIGN.md §15 derives the bound).
struct SamplingStats {
  bool active = false;             ///< the sampled path actually ran
  std::int64_t epochs = 0;         ///< barrier-delimited epochs in the trace
  std::int64_t classes = 0;        ///< bit-identical epoch classes
  std::int64_t clusters = 0;       ///< after tolerance clustering (== classes
                                   ///  when epoch_tolerance == 0)
  std::int64_t epochs_simulated = 0;    ///< exemplar walks performed
  std::int64_t epochs_replayed = 0;     ///< non-recurring (count-1) epochs
                                        ///  replayed exactly, warmup/teardown
  std::int64_t epochs_approximated = 0; ///< epochs costed from a tolerance-
                                        ///  substituted exemplar
  Time error_bound;                ///< certified |sampled − exact| makespan
                                   ///  bound (zero in dedup mode)
};

struct SimResult {
  Time makespan;                   ///< predicted n-processor execution time
  std::vector<ThreadStats> threads;
  trace::Trace extrapolated;       ///< re-timestamped event stream
  std::int64_t messages = 0;       ///< network messages (incl. barrier msgs)
  std::int64_t bytes = 0;          ///< network bytes
  double avg_inflight = 0.0;       ///< mean in-flight messages at injection
  /// Engine events that actually fired.  Work the fast paths did without
  /// the engine (collapsed segments, memoized windows) is not counted.
  std::uint64_t engine_events = 0;
  HybridStats hybrid;
  SamplingStats sampling;

  Time total_compute() const;
  Time total_comm_wait() const;
  Time total_barrier_wait() const;
};

/// Run the extrapolation.  `translated` must hold one trace per thread (as
/// produced by translate()); `params` describes the target environment.
/// Compiles the traces (core/compiled_trace.hpp) and replays the compiled
/// form; callers replaying the same traces repeatedly should compile once
/// and use the overload below.
SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params);
SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params, const SimOptions& opts);

/// Replay an already-compiled trace set.  This is the sweep hot path: one
/// CompiledTrace is shared read-only by every simulation of a grid.
SimResult simulate_compiled(const CompiledTrace& compiled,
                            const SimParams& params);
SimResult simulate_compiled(const CompiledTrace& compiled,
                            const SimParams& params, const SimOptions& opts);

}  // namespace xp::core
