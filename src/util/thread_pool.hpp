// Work-stealing worker pool for embarrassingly parallel batches.
//
// The sweep engine (core/sweep.hpp) fans independent simulations out over
// this pool.  Tasks are plain std::function<void()>; callers own their
// result slots (the pool imposes no ordering on completion, so writers that
// need deterministic output must write by index, not by completion order).
// wait() blocks until every task submitted so far has finished, so one pool
// can serve several batches back to back.
//
// Scheduling (PR 6 rebuild — the single-mutex/single-deque pool serialized
// every submit and every claim through one lock):
//
//  * each worker owns a Chase–Lev deque: the owner pushes and pops at the
//    bottom without locks, idle workers steal from the top with a CAS —
//    submit() from inside a running task lands in the submitting worker's
//    own deque (LIFO for locality) and is visible to thieves;
//  * submit() from a non-worker thread appends to a shared injector queue
//    that workers drain before stealing from each other;
//  * submit(task, cost_hint) inserts into the injector ordered by
//    descending hint, so the longest tasks start earliest (LPT list
//    scheduling) — the caller supplies any monotone cost proxy (thread
//    count, event count); ties keep submission order.
//
// Workers that find no work (own deque, injector, then a steal sweep over
// the other workers) park on a condition variable; submitters only touch
// that lock when a sleeper exists.  None of this affects results: the pool
// executes each task exactly once on some worker, and callers that write by
// index get worker-count-independent output (see core/sweep.hpp's
// determinism guarantee and DESIGN.md §10).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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

  /// Enqueue a task.  From inside a pool task this pushes to the running
  /// worker's own deque (stealable by idle workers); from any other thread
  /// it appends to the shared injector.  Tasks must not throw — wrap
  /// fallible work and stash the exception yourself (see core::SweepRunner
  /// for the pattern).
  void submit(Task task);

  /// Enqueue with a size hint: the injector hands out tasks in descending
  /// `cost_hint` order (LPT), so submit a batch with honest relative hints
  /// and the longest work starts first.  Any monotone proxy works; ties
  /// keep submission order.
  void submit(Task task, double cost_hint);

  /// Block until every task submitted so far (including tasks submitted by
  /// running tasks) has completed.  Must not be called from inside a pool
  /// task — that worker would wait for itself.
  void wait();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Index of the calling thread within the pool currently running it
  /// ([0, size())), or -1 when called from a non-worker thread.
  static int current_worker();

  /// hardware_concurrency with a floor of 1 (the standard allows 0).
  static int default_workers();

 private:
  /// Chase–Lev work-stealing deque of heap-owned tasks.  The owning worker
  /// pushes/pops the bottom end lock-free; any other thread steals the top
  /// end with a CAS.  Buffers grow geometrically; retired buffers stay
  /// alive until destruction so an in-flight steal never reads freed
  /// memory.  Claim exclusivity comes from the CAS on top_ — a task
  /// pointer is returned to exactly one caller.
  class Deque {
   public:
    Deque();
    ~Deque();

    void push(Task* t);  ///< owner only
    Task* pop();         ///< owner only; nullptr when empty or lost a race
    Task* steal();       ///< any thread; nullptr when empty or contended

   private:
    struct Buffer {
      explicit Buffer(std::size_t n)
          : cap(n), mask(n - 1), slots(new std::atomic<Task*>[n]) {}
      std::size_t cap;
      std::size_t mask;
      std::unique_ptr<std::atomic<Task*>[]> slots;
    };

    Buffer* grow(Buffer* a, std::int64_t bottom, std::int64_t top);

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Buffer*> buffer_;
    std::vector<std::unique_ptr<Buffer>> retired_;  ///< owner-only
  };

  struct Worker {
    Deque deque;
    std::thread thread;
  };

  struct InjectorItem {
    double hint;
    Task* task;
  };

  void submit_impl(Task task, double cost_hint, bool hinted);
  void worker_loop(int index);
  Task* find_task(int index);
  void run_task(Task* t);

  std::vector<std::unique_ptr<Worker>> workers_;

  // Shared injector: external submits and all hinted submits, descending
  // hint order (unhinted entries carry hint 0 and keep FIFO order among
  // themselves at the tail).
  std::mutex inject_mu_;
  std::deque<InjectorItem> injector_;

  std::atomic<std::int64_t> unclaimed_{0};  ///< queued, not yet claimed
  std::atomic<std::int64_t> in_flight_{0};  ///< submitted, not yet finished
  std::atomic<bool> stopping_{false};

  std::mutex sleep_mu_;
  std::condition_variable work_ready_;
  std::atomic<int> sleepers_{0};

  std::mutex done_mu_;
  std::condition_variable all_done_;
};

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Per-stage CPU sums are built from deltas of this clock taken on the
/// worker that ran the job, so they measure work done, not wall time spent
/// time-sliced against the other workers (see core::SweepStages).
double thread_cpu_seconds();

}  // namespace xp::util
