// Stress battery for util::ThreadPool, the one-queue LPT pool.
//
// The pool's contract (util/thread_pool.hpp): every submitted task runs
// exactly once on some worker; wait() covers everything submitted so far,
// including tasks submitted BY running tasks; one pool serves many batches
// back to back; every submit, from a pool task or from outside, joins one
// queue that drains in descending cost order (LPT) with ties in submission
// order; and none of it is allowed to lose, duplicate, or reorder-by-index
// any work.  The whole battery runs under TSan in CI, which holds the
// queue's single lock and its two condition variables honest.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace xp::util {
namespace {

TEST(ThreadPool, RequiresAtLeastOneWorker) {
  EXPECT_THROW(ThreadPool(0), util::Error);
  EXPECT_THROW(ThreadPool(-3), util::Error);
}

TEST(ThreadPool, WaitAcrossBatchesReusesTheSamePool) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    const int batch = 50 + round * 37;  // varying batch sizes
    for (int i = 0; i < batch; ++i) pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), batch) << "wait() returned before batch drained";
    count.store(0);
    // wait() on an idle pool returns immediately.
    pool.wait();
  }
}

TEST(ThreadPool, SubmitFromInsideATaskIsCoveredByWait) {
  ThreadPool pool(4);
  std::atomic<int> leaves{0};
  // A task tree: each root fans out children from inside the pool; wait()
  // must not return until the whole tree has run.
  constexpr int kRoots = 8;
  constexpr int kChildren = 16;
  constexpr int kGrandchildren = 4;
  for (int r = 0; r < kRoots; ++r) {
    pool.submit([&] {
      for (int c = 0; c < kChildren; ++c) {
        pool.submit([&] {
          for (int g = 0; g < kGrandchildren; ++g)
            pool.submit([&] { ++leaves; });
        });
      }
    });
  }
  pool.wait();
  EXPECT_EQ(leaves.load(), kRoots * kChildren * kGrandchildren);
}

// Nested fan-out: ONE task spawns the entire fan-out from inside the pool.
// Every spawned task must run exactly once, and wait() must cover them all.
TEST(ThreadPool, NestedFanOutRunsEveryTaskOnce) {
  constexpr int kWorkers = 4;
  constexpr int kTasks = 4096;
  ThreadPool pool(kWorkers);
  std::vector<std::atomic<int>> ran(kTasks);
  for (auto& r : ran) r.store(0);

  pool.submit([&] {
    for (int i = 0; i < kTasks; ++i)
      pool.submit([&, i] { ran[static_cast<std::size_t>(i)].fetch_add(1); });
  });
  pool.wait();

  for (int i = 0; i < kTasks; ++i)
    ASSERT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
        << "task " << i << " lost or duplicated";
}

// The exception-stashing pattern the pool's "tasks must not throw"
// contract prescribes (and core::SweepRunner uses): wrap fallible work,
// keep the first error, rethrow after the batch drains.
TEST(ThreadPool, ExceptionStashingPatternDeliversFirstError) {
  ThreadPool pool(4);
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::atomic<int> completed{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&, i] {
      try {
        if (i % 10 == 3) throw util::Error("task " + std::to_string(i));
        ++completed;
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait();
  EXPECT_EQ(completed.load(), 90);
  ASSERT_TRUE(first_error != nullptr);
  EXPECT_THROW(std::rethrow_exception(first_error), util::Error);
}

// 10k-task churn: many small batches with varying shapes — external
// submits, nested submits, and both mixed — must neither lose a task nor
// wedge a worker.
TEST(ThreadPool, TenThousandTaskChurn) {
  ThreadPool pool(8);
  std::atomic<std::int64_t> sum{0};
  std::int64_t expected = 0;
  int submitted = 0;
  int batch_no = 0;
  while (submitted < 10000) {
    const int batch = 1 + (batch_no * 7) % 23;
    ++batch_no;
    for (int i = 0; i < batch && submitted < 10000; ++i, ++submitted) {
      const std::int64_t v = submitted;
      expected += v;
      if (v % 3 == 0) {
        // Nested: an outer task submits the real work from a worker.
        expected += 1000000;
        pool.submit([&, v] {
          sum.fetch_add(v);
          pool.submit([&] { sum.fetch_add(1000000); });
        });
      } else {
        pool.submit([&, v] { sum.fetch_add(v); });
      }
    }
    if (batch_no % 5 == 0) pool.wait();  // interleave waits with submits
  }
  pool.wait();
  EXPECT_EQ(sum.load(), expected);
}

// Holds a one-worker pool's worker busy: occupy() submits a task that
// blocks until release() and returns only once the worker is running it,
// so later submits queue up instead of being claimed as they arrive.  The
// blocked task runs `then` after its release, still on the worker.
class WorkerGate {
 public:
  void occupy(ThreadPool& pool, std::function<void()> then = [] {}) {
    pool.submit([this, then = std::move(then)] {
      {
        std::unique_lock<std::mutex> lock(mu_);
        started_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
      then();
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return started_; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
};

// Records task ids in the order the pool runs them.
struct RunOrder {
  std::mutex mu;
  std::vector<int> ids;
  void record(int id) {
    std::lock_guard<std::mutex> lock(mu);
    ids.push_back(id);
  }
};

// LPT hints: with one worker and a blocked queue, hinted tasks must drain
// in descending cost order regardless of submission order, and unhinted
// tasks keep FIFO order among themselves behind the hinted ones.
TEST(ThreadPool, CostHintsDrainLargestFirst) {
  ThreadPool pool(1);
  WorkerGate gate;
  gate.occupy(pool);
  RunOrder order;
  // Submitted smallest-first on purpose; hints must invert the order.
  pool.submit([&] { order.record(1); }, 1.0);
  pool.submit([&] { order.record(2); }, 2.0);
  pool.submit([&] { order.record(3); }, 3.0);
  pool.submit([&] { order.record(4); }, 4.0);
  // Unhinted (hint 0) tasks trail the hinted ones, FIFO among themselves.
  pool.submit([&] { order.record(100); });
  pool.submit([&] { order.record(101); });

  gate.release();
  pool.wait();
  EXPECT_EQ(order.ids, (std::vector<int>{4, 3, 2, 1, 100, 101}));
}

// One queue for every submitter: a task submitted from inside a running
// task queues behind the work already waiting, in the same LPT order as an
// external submit (hinted work by descending hint, unhinted work FIFO after
// it), rather than jumping ahead of it on the submitting worker.
TEST(ThreadPool, NestedSubmitsQueueBehindWaitingWork) {
  ThreadPool pool(1);
  WorkerGate gate;
  RunOrder order;
  // Once released, the worker submits from inside the pool one unhinted
  // task and one hinted task.
  gate.occupy(pool, [&] {
    pool.submit([&] { order.record(99); });
    pool.submit([&] { order.record(15); }, 1.5);
  });
  // Queued from outside while the worker is busy.
  pool.submit([&] { order.record(1); }, 1.0);
  pool.submit([&] { order.record(2); }, 2.0);
  pool.submit([&] { order.record(100); });

  gate.release();
  pool.wait();
  EXPECT_EQ(order.ids, (std::vector<int>{2, 15, 1, 100, 99}));
}

// wait() from inside one of the pool's own tasks would wait for itself.
TEST(ThreadPool, WaitFromInsideATaskIsRefused) {
  ThreadPool pool(2);
  std::atomic<bool> refused{false};
  pool.submit([&] {
    try {
      pool.wait();
    } catch (const util::Error&) {
      refused.store(true);
    }
  });
  pool.wait();
  EXPECT_TRUE(refused.load());
}

// Destruction with queued work: "pending tasks are still executed first".
TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) pool.submit([&] { ++ran; });
    // No wait(): the destructor must drain.
  }
  EXPECT_EQ(ran.load(), 500);
}

// Heavy mixed contention: several external threads submitting concurrently
// while workers also spawn nested tasks — the counters must balance.
TEST(ThreadPool, ConcurrentExternalSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 250;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i)
        pool.submit([&, i] {
          count.fetch_add(1);
          // Every 50th task (by submit index, so the count is
          // deterministic) also spawns a nested task from the worker.
          if (i % 50 == 0) pool.submit([&] { count.fetch_add(1); });
        });
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait();
  const int direct = kSubmitters * kPerSubmitter;
  const int nested = kSubmitters * ((kPerSubmitter + 49) / 50);
  EXPECT_EQ(count.load(), direct + nested);
}

TEST(ThreadPool, OnWorkerHoldsOnlyInsidePoolTasks) {
  EXPECT_FALSE(ThreadPool::on_worker());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&] { inside += ThreadPool::on_worker() ? 1 : 0; });
  pool.wait();
  EXPECT_EQ(inside.load(), 8);
  std::thread plain([&] { inside += ThreadPool::on_worker() ? 1 : 0; });
  plain.join();
  EXPECT_EQ(inside.load(), 8) << "a thread outside any pool is no worker";
  EXPECT_FALSE(ThreadPool::on_worker());
}

// --- util::TaskGroup / parallel_for (util/parallel.hpp) ---------------------

TEST(ParallelFor, RunsEveryTaskOnceAtEveryWorkerCount) {
  for (const int workers : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> runs(100);
    parallel_for(runs.size(), workers, [&](std::size_t i) { ++runs[i]; });
    for (std::size_t i = 0; i < runs.size(); ++i)
      EXPECT_EQ(runs[i].load(), 1) << "task " << i << ", " << workers
                                   << " workers";
  }
  parallel_for(0, 4, [](std::size_t) { ADD_FAILURE() << "no task to run"; });
}

TEST(ParallelFor, OneWorkerRunsInIndexOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, RethrowsTheLowestIndexExceptionAfterEveryTask) {
  std::atomic<int> done{0};
  try {
    parallel_for(50, 4, [&](std::size_t i) {
      ++done;
      if (i == 7 || i == 31) throw std::runtime_error(std::to_string(i));
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(TaskGroup, HelpersStartBeforeJoinAndTheCallerTakesTheRest) {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  std::atomic<int> runs{0};
  TaskGroup group(3, 2, [&](std::size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      started = true;
    }
    cv.notify_all();
    ++runs;
  });
  {
    // The one helper takes a task while the caller has not joined yet.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  group.join();
  EXPECT_EQ(runs.load(), 3);
}

TEST(TaskGroup, DestructorDropsUntakenTasks) {
  std::atomic<int> runs{0};
  {
    TaskGroup group(5, 1, [&](std::size_t) { ++runs; });
  }
  EXPECT_EQ(runs.load(), 0) << "one worker: nothing runs before join()";
}

TEST(ParallelWorkers, OffForSmallWorkPoolWorkersAndGroupThreads) {
  EXPECT_EQ(parallel_workers(10, 100), 1);
  EXPECT_EQ(parallel_workers(100, 100), ThreadPool::default_workers());
  ThreadPool pool(1);
  std::atomic<int> on_pool{0};
  pool.submit([&] { on_pool = parallel_workers(100, 100); });
  pool.wait();
  EXPECT_EQ(on_pool.load(), 1) << "a pool worker runs one computation";
  std::atomic<int> in_group{-1};
  TaskGroup group(1, 2,
                  [&](std::size_t) { in_group = parallel_workers(100, 100); });
  while (in_group.load() < 0) std::this_thread::yield();  // the helper ran it
  group.join();
  EXPECT_EQ(in_group.load(), 1) << "groups do not nest";
}

}  // namespace
}  // namespace xp::util
