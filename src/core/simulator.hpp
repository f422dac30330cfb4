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
#include <iterator>
#include <memory>
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

/// Simulation mode.  Both modes give bitwise-identical makespans,
/// per-thread stats, traffic counts and extrapolated traces; they differ
/// only in how much of the replay the event engine runs.
///
///  * EventDriven — replay every op through the radix-calendar engine.
///    The differential oracle: always available, always exact.  Tests ask
///    for it explicitly; everything else takes the Auto default.
///  * Auto (the default) — the one fast mode.  Three exact shortcuts, each
///    taken only where it applies (HybridStats / SamplingStats report
///    which ones ran):
///      - segment collapse (DESIGN.md §13): when every barrier-delimited
///        segment of the run has a closed-form cost (each thread on its
///        own processor, analytic barriers, compute + same-processor /
///        intra-cluster accesses only, no cross-cluster access anywhere),
///        every segment is charged analytically and the engine never
///        starts; any other run replays every segment through the engine;
///      - representative-epoch sampling (DESIGN.md §15): on that
///        engine-free path the epochs run in order, the first epoch of each
///        class of bit-identical epochs (the compile-time epoch-class
///        table) is walked, and every later epoch of the class replays the
///        walk's recorded window;
///      - barrier-epoch memoization (DESIGN.md §16): under message
///        barriers, where nothing collapses, each window between two
///        quiescent barrier points is simulated once per epoch class and
///        later windows of the class replay it.
///      Both replay through one mechanism: a recorded window's stat
///      deltas, traffic and (when a trace is requested) its slice of
///      emitted events, time-shifted.
///
/// Every path emits through one log of 16-byte {time, thread, op} records,
/// one per op plus one per barrier exit.  SimResult keeps the log and
/// expands it into the extrapolated trace on first read.
enum class SimMode : std::uint8_t { EventDriven, Auto };
const char* to_string(SimMode m);

struct SimOptions {
  SimMode mode = SimMode::Auto;
  /// Log the events of the extrapolated trace (SimResult::extrapolated()).
  /// Costs 16 bytes per event; the sort and the expansion into a
  /// trace::Trace wait for the first read.  Numeric outputs (makespan,
  /// stats, messages) are unaffected, and every fast path stays on either
  /// way, but off also lets a collapsed segment charge its pre-summed
  /// compute in O(1) instead of walking its ops, so huge-n scaling runs
  /// and the policy tuner turn it off.
  bool emit_trace = true;
};

/// How the fast paths fared on one run.  segments are per-(epoch, thread)
/// barrier-delimited slices; segments_total is filled in every mode.
/// Collapse is all-or-nothing: segments_collapsed is segments_total on the
/// engine-free path (SamplingStats::active) and zero on every other run.
///
/// memo_hits / memo_misses count barrier-epoch memoization on the event
/// path (DESIGN.md §16): windows between two quiescent barrier points that
/// were replayed from a recorded window of the same epoch class (hits), or
/// had to run through the engine (misses).  Both stay zero unless the run
/// uses message barriers and is not EventDriven.
struct HybridStats {
  std::int64_t segments_total = 0;
  std::int64_t segments_collapsed = 0;
  std::int64_t ops_collapsed = 0;  ///< replay steps that skipped the engine
  std::int64_t memo_hits = 0;
  std::int64_t memo_misses = 0;
};

/// How representative-epoch sampling fared on one run (SimMode::Auto over
/// a fully-analytic trace; all zeros otherwise).  The first epoch of each
/// class of bit-identical epochs is walked; every later one replays that
/// walk's recorded effect, so the prediction is bitwise-equal to full
/// simulation.
struct SamplingStats {
  bool active = false;      ///< the sampled path actually ran
  std::int64_t epochs = 0;  ///< barrier-delimited epochs in the trace
  std::int64_t epochs_simulated = 0;  ///< epochs walked: one per class
};

struct SimResult;

/// HybridStats and SamplingStats summed over many runs (cells): how a
/// sweep's or a daemon's replay work split between the event engine, the
/// barrier-epoch memo and the engine-free sampled path.  Every cell counts
/// in exactly one of cells_event / cells_memo / cells_sampled; the epoch
/// totals count sampled cells only.
/// kSimCounterFields lists the fields once for every sum, wire form,
/// report and bench row.
struct SimCounters {
  std::int64_t cells_event = 0;   ///< cells no fast path engaged on
  std::int64_t cells_memo = 0;    ///< cells that replayed memoized windows
  std::int64_t events_fired = 0;  ///< engine events
  std::int64_t segments_collapsed = 0;
  std::int64_t segments_total = 0;
  std::int64_t ops_collapsed = 0;  ///< replay steps that skipped the engine
  std::int64_t memo_hits = 0;
  std::int64_t memo_misses = 0;
  std::int64_t cells_sampled = 0;  ///< cells on the engine-free path
  std::int64_t epochs_total = 0;
  std::int64_t epochs_simulated = 0;

  SimCounters& operator+=(const SimCounters& o);
  /// Count one run as one cell.
  void add(const SimResult& r);
  bool operator==(const SimCounters&) const = default;
};

/// Every SimCounters field with its report and bench-row key, in wire
/// order.
struct SimCounterField {
  const char* key;
  std::int64_t SimCounters::*member;
};
inline constexpr SimCounterField kSimCounterFields[] = {
    {"cells_event", &SimCounters::cells_event},
    {"cells_memo", &SimCounters::cells_memo},
    {"sim_events_fired", &SimCounters::events_fired},
    {"sim_segments_collapsed", &SimCounters::segments_collapsed},
    {"sim_segments_total", &SimCounters::segments_total},
    {"sim_ops_collapsed", &SimCounters::ops_collapsed},
    {"sim_memo_hits", &SimCounters::memo_hits},
    {"sim_memo_misses", &SimCounters::memo_misses},
    {"cells_sampled", &SimCounters::cells_sampled},
    {"sim_epochs_total", &SimCounters::epochs_total},
    {"sim_epochs_simulated", &SimCounters::epochs_simulated},
};
static_assert(sizeof(SimCounters) ==
                  std::size(kSimCounterFields) * sizeof(std::int64_t),
              "list every SimCounters field in kSimCounterFields");

inline SimCounters& SimCounters::operator+=(const SimCounters& o) {
  for (const SimCounterField& f : kSimCounterFields)
    this->*f.member += o.*f.member;
  return *this;
}

/// Replay an already-compiled trace set.  This is the sweep hot path: one
/// CompiledTrace is shared read-only by every simulation of a grid, and by
/// every traced result, whose extrapolated trace is expanded from its
/// protos.
SimResult simulate_compiled(std::shared_ptr<const CompiledTrace> compiled,
                            const SimParams& params,
                            const SimOptions& opts = {});

struct SimResult {
  Time makespan;                   ///< predicted n-processor execution time
  std::vector<ThreadStats> threads;
  std::int64_t messages = 0;       ///< network messages (incl. barrier msgs)
  std::int64_t bytes = 0;          ///< network bytes
  /// Mean number of messages in flight when a message was injected: the
  /// integer sum of those counts over `messages`, correctly rounded (0
  /// without messages).  A report, not a prediction input.
  double avg_inflight = 0.0;
  /// Engine events that actually fired.  Work the fast paths did without
  /// the engine (collapsed segments, memoized windows) is not counted.
  std::uint64_t engine_events = 0;
  HybridStats hybrid;
  SamplingStats sampling;

  Time total_compute() const;
  Time total_comm_wait() const;
  Time total_barrier_wait() const;

  /// The re-timestamped event stream: the emission log stable-sorted by
  /// (time, thread), each record expanded from its compiled proto.  Built
  /// on the first call, by one caller while concurrent ones wait; copies
  /// of a result share that one expansion.  Empty (no events) when the
  /// run had SimOptions::emit_trace off.
  const trace::Trace& extrapolated() const;

 private:
  friend SimResult simulate_compiled(std::shared_ptr<const CompiledTrace>,
                                     const SimParams&, const SimOptions&);
  struct Extrapolation;  ///< the log, the protos, the expansion once built
  std::shared_ptr<Extrapolation> extrapolation_;
};

/// Run the extrapolation.  `translated` must hold one trace per thread (as
/// produced by translate()); `params` describes the target environment.
/// Compiles the traces (core/compiled_trace.hpp) and replays the compiled
/// form; callers replaying the same traces repeatedly should compile once
/// and use simulate_compiled().
SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params, const SimOptions& opts = {});

}  // namespace xp::core
