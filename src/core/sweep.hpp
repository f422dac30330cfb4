// Batch "what if" extrapolation (the workload of §4).
//
// Every real use of ExtraP asks the paper's question — "what would this
// program do on n processors?" — for a whole grid of configurations: thread
// counts x target-machine parameter sets (grid_whatif, machine_shootout,
// scalability_report, the bench/ figures).  The pipeline splits cleanly:
//
//   measure + translate   expensive, depends only on n_threads
//   simulate              cheap-ish, depends on the full (trace, SimParams)
//
// TranslateCache is the one measure -> translate -> compile pipeline: it is
// built with its measurement source, keyed on the thread count alone, and
// splits each miss's thread-CPU time into measure and translate counters.
// SweepRunner, the xp::serve daemon and the bench/ harnesses all resolve
// their traces through it.  SweepRunner measures each distinct thread
// count ONCE and runs BOTH halves as one pipelined phase on one
// util::ThreadPool: each distinct thread count gets one
// measure->translate->compile job (largest n first, so the longest
// measurement starts earliest), and that job submits its cells' simulations
// to the same pool as soon as its trace is ready.  Pending measurements
// run before any cell, and cells fill the workers that would otherwise
// idle behind the last measurement.  Schedulers are strictly
// per-OS-thread (fiber/scheduler.hpp), so one measurement per worker is
// safe.
//
// Determinism guarantee: results land in SweepResult::predictions by GRID
// INDEX, never by completion order, and the simulator itself is a
// deterministic discrete-event engine on an integer-nanosecond virtual
// clock.  A sweep therefore produces bitwise-identical Predictions
// regardless of worker count, task submission order, or OS scheduling —
// tests/sweep_test.cpp holds this against sequential Extrapolator runs.
//
// Cache-key contract: two lookups hit the same entry iff their thread
// counts are equal (every entry is translated with default
// TranslateOptions); entries are immutable after insert and shared by
// reference, so concurrent simulations never copy or mutate trace data.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/extrapolator.hpp"

namespace xp::core {

/// Factory for a fresh Program per measurement (Programs are stateful, so
/// each measurement needs its own instance).
using ProgramFactory = std::function<std::unique_ptr<rt::Program>()>;

/// Memoized measure+translate results, shared across the threads of a
/// sweep.  Insertion is synchronized; each entry is computed exactly once
/// (concurrent requesters of the same thread count block until it is
/// ready) and is immutable afterwards.  A computation that throws leaves no
/// entry behind, so a failing thread count costs nothing once it fails.
///
/// The key map is SHARDED by a mixed hash of the thread count: concurrent
/// lookups of distinct keys take independent mutexes, so a pool's
/// simulation fan-out (every cell resolves its trace through here) never
/// serializes on one cache-wide lock.  Each shard's lock only covers the
/// entry lookup — measurement and translation run outside it under the
/// entry's own OnceCell, so a slow miss never blocks hits on other keys of
/// the same shard either.
///
/// Long-lived holders (the xp::serve daemon keeps one cache per source hot
/// for the process lifetime) can cap the resident footprint with
/// set_byte_budget(): when the estimated bytes of completed entries exceed
/// the budget, the least-recently-used completed entries are evicted until
/// the cache fits again (the most recently used entry is always retained,
/// so a single oversized translation cannot evict itself into a thrash
/// loop).  Eviction only drops the cache's reference — holders of the
/// shared_ptr keep their immutable translation alive.
class TranslateCache {
 public:
  /// The measurement source: produces the measured trace for a thread
  /// count (runs at most once per cached key; called outside every cache
  /// lock, possibly from several threads for distinct keys).
  using Measure = std::function<trace::Trace(int n_threads)>;

  explicit TranslateCache(Measure measure);

  /// The prepared trace for `n_threads`, measuring + translating on first
  /// use.
  std::shared_ptr<const TranslatedTrace> get_or_prepare(int n_threads);

  /// Seed an entry from an already-measured trace (keyed by the trace's
  /// own thread count).  No-op if the key is already present.
  void put(const trace::Trace& measured);

  /// The entry for `n_threads`, or nullptr if absent.
  std::shared_ptr<const TranslatedTrace> get(int n_threads) const;

  std::size_t size() const;
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  /// Thread-CPU seconds spent in the measurement source (misses only).
  double measure_cpu_s() const { return measure_cpu_s_.load(); }
  /// Thread-CPU seconds spent translating + compiling (misses and put()).
  double translate_cpu_s() const { return translate_cpu_s_.load(); }

  /// Cap the estimated resident bytes of completed entries; 0 (the
  /// default) means unbounded.  May evict immediately if already over.
  void set_byte_budget(std::size_t budget);
  std::size_t byte_budget() const { return budget_.load(); }
  /// Estimated bytes held by completed entries still in the map.
  std::size_t bytes() const { return bytes_.load(); }
  std::uint64_t evictions() const { return evictions_.load(); }

  /// The footprint estimate eviction accounts with: translated events plus
  /// the compiled SoA arrays (the two allocations that dominate an entry).
  static std::size_t footprint_bytes(const TranslatedTrace& tt);

 private:
  struct Entry;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<int, std::shared_ptr<Entry>> map;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_for(int n_threads) const;
  std::shared_ptr<Entry> entry_for(int n_threads,
                                   std::shared_ptr<Entry> e = nullptr);
  void erase(int n_threads, const std::shared_ptr<Entry>& e);
  std::shared_ptr<const TranslatedTrace> prepare(int n_threads,
                                                 const trace::Trace* seed,
                                                 bool& computed);
  void touch(Entry& e) const;
  void account_insert(Entry& e, const TranslatedTrace& tt);
  void evict_to_budget();

  Measure measure_;
  mutable std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<double> measure_cpu_s_{0};
  std::atomic<double> translate_cpu_s_{0};
  mutable std::atomic<std::uint64_t> tick_{0};  ///< LRU clock
  std::atomic<std::size_t> budget_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// The measurement source of a program-backed cache: each call builds a
/// fresh Program with `factory` and measures it with n threads on the
/// default host.  A null factory yields a source that throws, for caches
/// that are fed only through put().
TranslateCache::Measure measure_fresh(ProgramFactory factory);

/// One grid cell: extrapolate to `n_threads` processors under `params`.
struct SweepPoint {
  int n_threads = 0;
  model::SimParams params;
  std::string label;  ///< free-form series tag (machine name, hypothesis, …)
};

/// Per-stage timing of one sweep, for the scaling benchmarks.  The
/// *_cpu_s fields sum per-job thread-CPU seconds (CLOCK_THREAD_CPUTIME_ID —
/// actual work done, immune to oversubscription and time-slicing).
/// Measurement and simulation overlap in one pipelined phase, so the two
/// *_wall_s fields split the sweep's wall clock at one instant, the moment
/// the last trace is prepared: they sum to the sweep's wall, and
/// CPU sum / (workers x wall) is the pool's busy fraction.  Parallelism
/// pays when wall shrinks while the CPU sum stays flat; a CPU sum that
/// inflates with the worker count is real contention.
struct SweepStages {
  double measure_cpu_s = 0;    ///< summed program-measurement CPU seconds
  double translate_cpu_s = 0;  ///< summed translate + compile CPU seconds
  double simulate_cpu_s = 0;   ///< summed per-cell simulation CPU seconds
  double prewarm_wall_s = 0;   ///< sweep start until the last trace is ready
  double simulate_wall_s = 0;  ///< the rest of the sweep's wall

  // Fast-path breakdown: how the grid's replay work split between the
  // event engine, the segment-collapse analytic path and the barrier-epoch
  // memo, so scaling rows can attribute wins (events fired vs segments
  // skipped vs windows replayed).  Every cell counts in exactly one of
  // cells_event / cells_hybrid / cells_memo.
  std::int64_t cells_event = 0;     ///< cells no fast path engaged on
  std::int64_t cells_hybrid = 0;    ///< cells where segments collapsed
  std::int64_t cells_memo = 0;      ///< cells that replayed memoized windows
  std::int64_t sim_events_fired = 0;       ///< engine events, whole grid
  std::int64_t sim_segments_collapsed = 0; ///< analytic segments, whole grid
  std::int64_t sim_segments_total = 0;     ///< all segments, whole grid
  std::int64_t sim_ops_collapsed = 0;      ///< replay steps skipped
  std::int64_t sim_memo_hits = 0;    ///< memoized windows replayed
  std::int64_t sim_memo_misses = 0;  ///< memo windows run through the engine

  // Representative-epoch sampling attribution (cells that took the
  // sampled path, core::SamplingStats): how much trace LENGTH the
  // grid's replays skipped by walking one exemplar per epoch class.
  std::int64_t cells_sampled = 0;        ///< cells on the sampled path
  std::int64_t sim_epochs_total = 0;     ///< epochs across sampled cells
  std::int64_t sim_epoch_classes = 0;    ///< distinct classes, sampled cells
  std::int64_t sim_epochs_simulated = 0; ///< exemplar walks performed
  std::int64_t sim_epochs_replayed = 0;  ///< non-recurring epochs replayed
};

struct SweepResult {
  std::vector<SweepPoint> grid;         ///< the request, verbatim
  std::vector<Prediction> predictions;  ///< by grid index
  std::uint64_t cache_hits = 0;    ///< sweep-wide translate-cache hits
  std::uint64_t cache_misses = 0;  ///< = distinct uncached thread counts
  SweepStages stages;              ///< where this sweep's time went
};

struct SweepOptions {
  /// Simulation workers; 0 = ThreadPool::default_workers().
  int n_workers = 0;
  /// Task submission order as grid indices (empty = natural order).  A
  /// permutation; exposed so the determinism tests can prove submission
  /// order does not leak into results.
  std::vector<std::size_t> submit_order;
  /// Keep each prediction's extrapolated trace (SimOptions::emit_trace).
  /// phase_fit and pattern composition read them, so they stay on by
  /// default.  Turning them off saves the trace's memory and sort; on
  /// pure-analytic cells it also lets Auto walk one exemplar per epoch
  /// class instead of every epoch.
  bool emit_traces = true;
};

class SweepRunner {
 public:
  /// `factory` is invoked once per distinct thread count (measure_fresh).
  SweepRunner(ProgramFactory factory, SweepOptions opt = {});

  /// Trace-seeded runner: no factory; every thread count in a grid must be
  /// covered by seed_trace() beforehand (util::Error otherwise).
  explicit SweepRunner(SweepOptions opt = {});

  /// Pre-populate the cache from an existing measured trace (e.g. loaded
  /// via trace_io), keyed by the trace's thread count.
  void seed_trace(const trace::Trace& measured);

  /// Run the whole grid.  Measurements for distinct thread counts happen
  /// once each; each thread count's simulations run on the pool once its
  /// trace is ready; predictions return in grid order.  The first task
  /// exception (if any) is rethrown after the pool drains.
  SweepResult run(const std::vector<SweepPoint>& grid);

  /// Convenience: the full cross product procs x machines, row-major
  /// (machine-major: all procs of machines[0] first).  `labels` names each
  /// machine series; empty = "set<i>".
  SweepResult run_grid(const std::vector<int>& procs,
                       const std::vector<model::SimParams>& machines,
                       const std::vector<std::string>& labels = {});

  /// The runner's translate cache (its entries persist across run() calls).
  const TranslateCache& cache() const { return *cache_; }

 private:
  SweepOptions opt_;
  std::unique_ptr<TranslateCache> cache_;
};

}  // namespace xp::core
