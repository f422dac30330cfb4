#include "core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "rt/runtime.hpp"
#include "util/error.hpp"
#include "util/once_cell.hpp"
#include "util/thread_pool.hpp"

namespace xp::core {

struct TranslateCache::Entry {
  util::OnceCell<std::shared_ptr<const TranslatedTrace>> cell;
  std::atomic<std::uint64_t> last_use{0};  ///< LRU tick of the last access
  std::atomic<std::size_t> bytes{0};       ///< footprint once computed
};

TranslateCache::TranslateCache(Measure measure)
    : measure_(std::move(measure)) {}

TranslateCache::Measure measure_fresh(ProgramFactory factory) {
  return [factory = std::move(factory)](int n) {
    XP_REQUIRE(factory != nullptr,
               "sweep needs a ProgramFactory or a seed_trace() covering "
               "n_threads=" +
                   std::to_string(n));
    auto prog = factory();
    XP_REQUIRE(prog != nullptr, "ProgramFactory returned null");
    rt::MeasureOptions mo;
    mo.n_threads = n;
    return rt::measure(*prog, mo);
  };
}

double cell_cost_hint(const TranslatedTrace& tt) {
  const CompiledTrace& ct = *tt.compiled;
  double events = 0;
  for (const CompiledThread& th : ct.threads)
    events += static_cast<double>(th.ops.size() + ct.barrier_ids.size());
  return events;
}

void TranslateCache::touch(Entry& e) const {
  e.last_use.store(tick_.fetch_add(1) + 1, std::memory_order_relaxed);
}

std::size_t TranslateCache::footprint_bytes(const TranslatedTrace& tt) {
  std::size_t b = sizeof(TranslatedTrace);
  if (tt.compiled) {
    for (const CompiledThread& th : tt.compiled->threads) {
      b += th.ops.size() * (sizeof(OpKind) + sizeof(Time)) +
           th.proto.size() * sizeof(trace::Event) +
           th.remotes.size() * sizeof(RemoteRec) +
           th.segments.size() * sizeof(Segment);
    }
    b += tt.compiled->barrier_ids.size() * sizeof(std::int32_t);
    const EpochClassTable& ec = tt.compiled->epoch_classes;
    b += ec.fingerprint.size() * sizeof(std::uint64_t) +
         ec.class_of.size() * sizeof(std::int32_t) +
         (ec.exemplar.size() + ec.count.size()) * sizeof(std::int64_t);
  }
  return b;
}

// Charges a freshly computed entry to the byte budget.  The key is
// re-inserted if a failed requester's erase() dropped it meanwhile (see
// erase()); an entry that another insert replaced is not charged.
void TranslateCache::account_insert(int n_threads,
                                    const std::shared_ptr<Entry>& e,
                                    const TranslatedTrace& tt) {
  const std::size_t b = footprint_bytes(tt);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = map_[n_threads];
  if (!slot) slot = e;
  if (slot != e) return;
  e->bytes.store(b, std::memory_order_relaxed);
  bytes_.fetch_add(b, std::memory_order_relaxed);
  evict_to_budget();
}

void TranslateCache::set_byte_budget(std::size_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_.store(budget);
  evict_to_budget();
}

// Evict least-recently-used COMPLETED entries until the estimated bytes fit
// the budget again: one scan picks the victim, and it is erased under the
// same lock.  Entries still computing have unknown size and an imminent
// user; they are skipped (their own account_insert() re-runs eviction once
// they finish).  The most recently used completed entry is never evicted,
// so a single over-budget translation stays usable instead of thrashing
// miss-evict.
void TranslateCache::evict_to_budget() {
  const std::size_t budget = budget_.load();
  if (budget == 0) return;
  while (bytes_.load(std::memory_order_relaxed) > budget) {
    auto victim = map_.end();
    std::uint64_t victim_tick = 0;
    std::uint64_t newest_tick = 0;
    std::size_t completed = 0;
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      const Entry& entry = *it->second;
      if (entry.cell.peek() == nullptr) continue;  // still computing
      const std::uint64_t t = entry.last_use.load(std::memory_order_relaxed);
      newest_tick = std::max(newest_tick, t);
      ++completed;
      if (victim == map_.end() || t < victim_tick) {
        victim = it;
        victim_tick = t;
      }
    }
    // Nothing evictable, or the LRU entry is also the newest (it is the
    // only completed entry): keep it.
    if (completed <= 1 || victim_tick == newest_tick) return;
    bytes_.fetch_sub(victim->second->bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    map_.erase(victim);
  }
}

// Drops the key's entry if it is still `e`.  Runs while `e`'s computation
// is unwinding, so no requester can have completed it; requesters already
// waiting on `e` retry the computation on the orphan, and a retry that
// succeeds re-inserts it (account_insert()).
void TranslateCache::erase(int n_threads, const std::shared_ptr<Entry>& e) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(n_threads);
  if (it != map_.end() && it->second == e) map_.erase(it);
}

// The one miss path: measure (unless a seed trace is given), translate and
// compile, charging each step's thread-CPU time to its counter.
std::shared_ptr<const TranslatedTrace> TranslateCache::prepare(
    int n_threads, const trace::Trace* seed, bool& computed) {
  XP_REQUIRE(n_threads >= 1, "translate-cache key needs n_threads >= 1");
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = map_[n_threads];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }
  computed = false;
  const auto& value = entry->cell.get_or_init([&] {
    computed = true;
    try {
      const double cpu0 = util::thread_cpu_seconds();
      double cpu1 = cpu0;
      trace::Trace measured;
      if (!seed) {
        measured = measure_(n_threads);
        XP_REQUIRE(measured.n_threads() == n_threads,
                   "measured trace thread count does not match the cache key");
        cpu1 = util::thread_cpu_seconds();
        measure_cpu_s_.fetch_add(cpu1 - cpu0);
      }
      auto tt = std::make_shared<const TranslatedTrace>(
          prepare_trace(seed ? *seed : measured));
      translate_cpu_s_.fetch_add(util::thread_cpu_seconds() - cpu1);
      return tt;
    } catch (...) {
      erase(n_threads, entry);
      throw;
    }
  });
  touch(*entry);
  if (computed) account_insert(n_threads, entry, *value);
  return value;
}

std::shared_ptr<const TranslatedTrace> TranslateCache::get_or_prepare(
    int n_threads) {
  bool computed = false;
  auto value = prepare(n_threads, nullptr, computed);
  (computed ? misses_ : hits_).fetch_add(1);
  return value;
}

void TranslateCache::put(const trace::Trace& measured) {
  bool computed = false;
  (void)prepare(measured.n_threads(), &measured, computed);
}

std::shared_ptr<const TranslatedTrace> TranslateCache::get(
    int n_threads) const {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(n_threads);
    if (it == map_.end()) return nullptr;
    entry = it->second;
  }
  // peek() is nullptr while the entry is still computing, so a concurrent
  // get() observes either nothing or the complete immutable translation —
  // never a partially-constructed one.
  const auto* v = entry->cell.peek();
  if (v) touch(*entry);
  return v ? *v : nullptr;
}

std::size_t TranslateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

SweepRunner::SweepRunner(ProgramFactory factory, SweepOptions opt)
    : opt_(std::move(opt)),
      cache_(std::make_unique<TranslateCache>(
          measure_fresh(std::move(factory)))) {}

SweepRunner::SweepRunner(SweepOptions opt)
    : SweepRunner(ProgramFactory{}, std::move(opt)) {}

void SweepRunner::seed_trace(const trace::Trace& measured) {
  cache_->put(measured);
}

SweepResult SweepRunner::run(const std::vector<SweepPoint>& grid) {
  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  const auto sweep0 = Clock::now();

  SweepResult out;
  out.grid = grid;
  out.predictions.resize(grid.size());
  if (grid.empty()) return out;

  for (const SweepPoint& p : grid) {
    XP_REQUIRE(p.n_threads >= 1, "sweep point needs n_threads >= 1");
    p.params.validate(p.n_threads);
  }

  std::vector<std::size_t> order = opt_.submit_order;
  if (order.empty()) {
    order.resize(grid.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  } else {
    XP_REQUIRE(order.size() == grid.size(),
               "submit_order size does not match the grid");
    std::vector<bool> seen(grid.size(), false);
    for (std::size_t i : order) {
      XP_REQUIRE(i < grid.size() && !seen[i],
                 "submit_order is not a permutation of the grid indices");
      seen[i] = true;
    }
  }

  // The cells of each distinct thread count, in submission order.
  std::vector<std::vector<std::size_t>> cells_of;
  std::unordered_map<int, std::size_t> group_of;
  for (std::size_t i : order) {
    const auto [it, fresh] =
        group_of.emplace(grid[i].n_threads, cells_of.size());
    if (fresh) cells_of.emplace_back();
    cells_of[it->second].push_back(i);
  }

  const std::uint64_t hits0 = cache_->hits();
  const std::uint64_t misses0 = cache_->misses();
  const double measure_cpu0 = cache_->measure_cpu_s();
  const double translate_cpu0 = cache_->translate_cpu_s();

  std::mutex mu;  // guards first_error and last_prepared
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};
  auto last_prepared = sweep0;
  const auto keep_first_error = [&] {
    std::lock_guard<std::mutex> lock(mu);
    if (!first_error) first_error = std::current_exception();
    failed.store(true);
  };

  std::vector<std::shared_ptr<const TranslatedTrace>> prepared(grid.size());
  std::vector<double> sim_cpu(grid.size(), 0.0);
  const auto simulate = [&](std::size_t i) {
    if (failed.load()) return;
    const double cpu0 = util::thread_cpu_seconds();
    try {
      out.predictions[i] = predict(*prepared[i], grid[i].params);
    } catch (...) {
      keep_first_error();
    }
    sim_cpu[i] = util::thread_cpu_seconds() - cpu0;
  };

  // One pipelined phase.  Each distinct thread count gets one job that
  // measures, translates and compiles its trace (a cache miss, or a hit on
  // a seeded key), resolves its cells through the cache, and submits them
  // to the same pool.  Every task writes only its own grid slots, so
  // completion order never reaches the result; the first exception is kept
  // and rethrown once the pool has drained, and later tasks skip their
  // work.  Both kinds of job are LPT-ordered by the pool's one queue:
  // preparation jobs by n (measurement cost grows with n), cells by
  // cell_cost_hint (simulation cost is linear in replayed events),
  // ties in submission order.  A preparation job's hint is n * 2^64, above
  // any cell's event count, so every pending measurement starts before any
  // cell simulates: the longest measurement starts first and the cells of
  // early traces fill the workers that would otherwise idle behind it.
  // Each Scheduler is confined to the OS thread that runs it, so
  // concurrent measurements on pool workers are safe.
  {
    const int n_workers = opt_.n_workers > 0
                              ? opt_.n_workers
                              : util::ThreadPool::default_workers();
    util::ThreadPool pool(n_workers);
    for (const std::vector<std::size_t>& cells : cells_of) {
      const int n = grid[cells.front()].n_threads;
      pool.submit(
          [&, n] {
            if (failed.load()) return;
            try {
              // hits + misses over a sweep equals its grid size: the first
              // lookup is the key's miss (or a seeded hit), the rest hit.
              for (std::size_t i : cells)
                prepared[i] = cache_->get_or_prepare(n);
            } catch (...) {
              keep_first_error();
              return;
            }
            {
              std::lock_guard<std::mutex> lock(mu);
              last_prepared = std::max(last_prepared, Clock::now());
            }
            const double events = cell_cost_hint(*prepared[cells.front()]);
            for (std::size_t i : cells)
              pool.submit([&, i] { simulate(i); }, events);
          },
          std::ldexp(static_cast<double>(n), 64));
    }
    pool.wait();
  }
  // The sweep's wall splits at the instant the last trace was prepared.
  const auto sweep1 = Clock::now();
  out.stages.prewarm_wall_s = secs(last_prepared - sweep0);
  out.stages.simulate_wall_s = secs(sweep1 - last_prepared);
  out.stages.measure_cpu_s = cache_->measure_cpu_s() - measure_cpu0;
  out.stages.translate_cpu_s = cache_->translate_cpu_s() - translate_cpu0;
  for (double s : sim_cpu) out.stages.simulate_cpu_s += s;
  if (first_error) std::rethrow_exception(first_error);

  for (const Prediction& p : out.predictions) out.stages.sim.add(p.sim);
  out.cache_hits = cache_->hits() - hits0;
  out.cache_misses = cache_->misses() - misses0;
  return out;
}

SweepResult SweepRunner::run_grid(const std::vector<int>& procs,
                                  const std::vector<model::SimParams>& machines,
                                  const std::vector<std::string>& labels) {
  XP_REQUIRE(labels.empty() || labels.size() == machines.size(),
             "run_grid: one label per machine (or none)");
  std::vector<SweepPoint> grid;
  grid.reserve(procs.size() * machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (int n : procs) {
      SweepPoint p;
      p.n_threads = n;
      p.params = machines[m];
      p.label = labels.empty() ? "set" + std::to_string(m) : labels[m];
      grid.push_back(std::move(p));
    }
  }
  return run(grid);
}

}  // namespace xp::core
