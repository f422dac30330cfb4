// Worker pool for embarrassingly parallel batches, scheduled from one LPT
// queue.
//
// The sweep engine (core/sweep.hpp) and the serve daemon (serve/service.hpp)
// fan independent simulations out over this pool.  Tasks are plain
// std::function<void()>; callers own their result slots (the pool imposes
// no ordering on completion, so writers that need deterministic output must
// write by index, not by completion order).  wait() blocks until every task
// submitted so far has finished, so one pool can serve several batches back
// to back.
//
// Scheduling: one mutex guards one queue ordered by descending cost hint,
// ties in submission order, whether the submit comes from a pool task or
// from any other thread.  The longest tasks start earliest (LPT list
// scheduling); the caller supplies any monotone cost proxy (thread count,
// event count), and unhinted submits (hint 0) run FIFO behind hinted work.
// A submit takes the lock once, and a worker once per task (to retire the
// last task and claim the next).  Measured tasks run from ~20 µs (a served
// 4-processor query) to several ms (sweep cells and measurements, median
// ~0.5 ms); even at 20 µs tasks the lock does not show in serving
// throughput (DESIGN.md §10 has the figures).  None of this
// affects results: the pool executes each task exactly once on some worker,
// and callers that write by index get worker-count-independent output (see
// core/sweep.hpp's determinism guarantee).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xp::util {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawn `n_workers` threads (>= 1; throws util::Error otherwise).
  explicit ThreadPool(int n_workers);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task from any thread, pool tasks included.  The queue hands
  /// out tasks in descending `cost_hint` order (LPT), ties in submission
  /// order, so submit a batch with honest relative hints and the longest
  /// work starts first.  Tasks must not throw — wrap fallible work and
  /// stash the exception yourself (see core::SweepRunner for the pattern).
  void submit(Task task, double cost_hint = 0);

  /// Block until every task submitted so far (including tasks submitted by
  /// running tasks) has completed.  Must not be called from inside a pool
  /// task — that worker would wait for itself.
  void wait();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Whether the calling thread is a worker of some ThreadPool, i.e. runs
  /// one computation among the pool's many (util::parallel_workers keeps
  /// such a computation on its one thread).
  static bool on_worker();

  /// hardware_concurrency with a floor of 1 (the standard allows 0).
  static int default_workers();

 private:
  struct Item {
    double hint;
    Task task;
  };

  void worker_loop();
  void stop_and_join();

  std::mutex mu_;
  std::condition_variable work_ready_;  ///< queue non-empty or stopping
  std::condition_variable all_done_;    ///< in_flight_ reached 0
  std::deque<Item> queue_;              ///< descending hint, FIFO ties
  std::int64_t in_flight_ = 0;          ///< submitted, not yet finished
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Per-stage CPU sums are built from deltas of this clock taken on the
/// worker that ran the job, so they measure work done, not wall time spent
/// time-sliced against the other workers (see core::SweepStages).
double thread_cpu_seconds();

}  // namespace xp::util
