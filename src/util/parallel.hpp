// Independent parts of ONE large computation run at the same time, on
// threads started for it, the caller's own thread included.
//
// util::ThreadPool spreads many computations (sweep cells, served queries)
// over long-lived workers, one computation per worker.  This helper is for
// the opposite case: a single huge-n prediction whose lowering splits over
// thread ranges and whose event path has independent barrier-epoch windows
// (DESIGN.md §9, §16).  It engages only where it cannot fight a pool for
// the cores (parallel_workers()), and every caller writes results by task
// index, so what it computes does not depend on how many threads ran it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace xp::util {

/// Threads one computation of `size` units may use:
/// ThreadPool::default_workers(), or 1 when `size` < `min_size` (small work
/// stays inline) or when the caller is a ThreadPool worker or a TaskGroup
/// thread (a sweep or the daemon already runs one computation per worker,
/// and groups do not nest).
int parallel_workers(std::int64_t size, std::int64_t min_size);

/// One batch of independent tasks body(0) .. body(n-1), taken in index
/// order by `workers` - 1 helper threads started by the constructor, and by
/// the caller once it calls join().  So the caller can do work of its own
/// between the two; with `workers` = 1 every task runs inside join(), on
/// the calling thread.  Tasks may throw: join() rethrows the exception of
/// the lowest-index task that threw, after every task has finished.
class TaskGroup {
 public:
  TaskGroup(std::size_t n, int workers,
            std::function<void(std::size_t)> body);

  /// Drops the tasks no thread has taken, waits for the running ones and
  /// discards their exceptions: a group left by an exception of the
  /// caller's own ends without running more work.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Run the tasks no thread has taken yet on the calling thread, wait for
  /// the rest, and rethrow the lowest-index task's exception, if any.
  /// Call at most once.
  void join();

 private:
  void drain();  ///< take and run tasks until none is left
  void stop();   ///< join the helper threads

  std::function<void(std::size_t)> body_;
  std::size_t n_;
  std::atomic<std::size_t> next_{0};  ///< next task to take
  std::vector<std::exception_ptr> errors_;  ///< by task index
  std::vector<std::thread> helpers_;
};

/// TaskGroup(n, workers, body).join(): run every task, the caller taking
/// its share, and return when all are done.
void parallel_for(std::size_t n, int workers,
                  const std::function<void(std::size_t)>& body);

/// [begin, end) of range `r` when `n` items split into `ranges` contiguous
/// ranges whose sizes differ by at most one.
inline std::size_t range_begin(std::size_t n, std::size_t ranges,
                               std::size_t r) {
  return n / ranges * r + std::min(r, n % ranges);
}

}  // namespace xp::util
