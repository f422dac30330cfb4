#include "util/thread_pool.hpp"

#include <time.h>

#include <iterator>

#include "util/error.hpp"

namespace xp::util {

namespace {

// The pool whose worker is the calling thread, so wait() can refuse to run
// inside one of its own tasks.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int n_workers) {
  XP_REQUIRE(n_workers >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(n_workers));
  try {
    for (int i = 0; i < n_workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    stop_and_join();  // a thread failed to start; join the ones that did
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();  // workers drain the queue first
}

void ThreadPool::submit(Task task, double cost_hint) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    XP_REQUIRE(!stopping_, "submit() on a stopping thread pool");
    // Descending hint, stable among ties (linear from the back: batches
    // are typically submitted roughly largest-first already).
    auto it = queue_.end();
    while (it != queue_.begin() && std::prev(it)->hint < cost_hint) --it;
    queue_.insert(it, Item{cost_hint, std::move(task)});
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return !queue_.empty() || stopping_; });
    if (queue_.empty()) return;  // stopping, and nothing left to drain
    Task task = std::move(queue_.front().task);
    queue_.pop_front();
    lock.unlock();
    task();  // contract: tasks do not throw (a throw terminates the process)
    task = nullptr;  // captures die before wait() can return
    lock.lock();
    if (--in_flight_ == 0) all_done_.notify_all();
  }
}

void ThreadPool::wait() {
  XP_REQUIRE(tls_pool != this,
             "wait() from inside a pool task would deadlock");
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::on_worker() { return tls_pool != nullptr; }

int ThreadPool::default_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double thread_cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace xp::util
