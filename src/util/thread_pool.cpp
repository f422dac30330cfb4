#include "util/thread_pool.hpp"

#include <time.h>

#include <algorithm>

#include "util/error.hpp"

namespace xp::util {

namespace {

// Which pool (and which worker slot in it) the calling thread belongs to.
// Lets submit() route to the caller's own deque and current_worker() answer
// without a registry lookup.
struct WorkerTls {
  const void* pool = nullptr;
  int index = -1;
};
thread_local WorkerTls tls_worker;

constexpr std::size_t kInitialDequeCap = 64;

}  // namespace

// ---- Chase–Lev deque -------------------------------------------------------
//
// The Lê/Pouchet/Zappa Nardelli/Cousot formulation ("Correct and Efficient
// Work-Stealing for Weak Memory Models"), strengthened to fence-free
// orderings TSan models natively: top_/bottom_ use seq_cst where the
// algorithm needs store-load ordering, and task slots are published with
// release stores / consumed with acquire loads so the claimer always
// observes the fully-constructed Task.

ThreadPool::Deque::Deque() : buffer_(new Buffer(kInitialDequeCap)) {}

ThreadPool::Deque::~Deque() {
  // The pool drains before destruction; this sweep only matters if a
  // future caller destroys a pool with unexecuted work.
  Buffer* a = buffer_.load(std::memory_order_relaxed);
  for (std::int64_t i = top_.load(std::memory_order_relaxed),
                    b = bottom_.load(std::memory_order_relaxed);
       i < b; ++i)
    delete a->slots[static_cast<std::size_t>(i) & a->mask].load(
        std::memory_order_relaxed);
  delete a;
}

ThreadPool::Deque::Buffer* ThreadPool::Deque::grow(Buffer* a,
                                                   std::int64_t bottom,
                                                   std::int64_t top) {
  auto* bigger = new Buffer(a->cap * 2);
  for (std::int64_t i = top; i < bottom; ++i)
    bigger->slots[static_cast<std::size_t>(i) & bigger->mask].store(
        a->slots[static_cast<std::size_t>(i) & a->mask].load(
            std::memory_order_relaxed),
        std::memory_order_relaxed);
  buffer_.store(bigger, std::memory_order_release);
  retired_.emplace_back(a);  // thieves may still hold `a`; free at dtor
  return bigger;
}

void ThreadPool::Deque::push(Task* t) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t top = top_.load(std::memory_order_acquire);
  Buffer* a = buffer_.load(std::memory_order_relaxed);
  if (b - top >= static_cast<std::int64_t>(a->cap)) a = grow(a, b, top);
  a->slots[static_cast<std::size_t>(b) & a->mask].store(
      t, std::memory_order_release);
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

ThreadPool::Task* ThreadPool::Deque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* a = buffer_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t top = top_.load(std::memory_order_seq_cst);
  Task* t = nullptr;
  if (top <= b) {
    t = a->slots[static_cast<std::size_t>(b) & a->mask].load(
        std::memory_order_acquire);
    if (top == b) {
      // Last element: race the thieves for it.
      if (!top_.compare_exchange_strong(top, top + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        t = nullptr;  // a thief won
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_seq_cst);  // was empty; restore
  }
  return t;
}

ThreadPool::Task* ThreadPool::Deque::steal() {
  std::int64_t top = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (top >= b) return nullptr;  // empty
  Buffer* a = buffer_.load(std::memory_order_acquire);
  Task* t = a->slots[static_cast<std::size_t>(top) & a->mask].load(
      std::memory_order_acquire);
  if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed))
    return nullptr;  // lost to the owner or another thief; caller retries
  return t;
}

// ---- pool ------------------------------------------------------------------

ThreadPool::ThreadPool(int n_workers) {
  XP_REQUIRE(n_workers >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (int i = 0; i < n_workers; ++i)
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w->thread.join();
  for (const InjectorItem& item : injector_) delete item.task;
}

void ThreadPool::submit(Task task) { submit_impl(std::move(task), 0.0, false); }

void ThreadPool::submit(Task task, double cost_hint) {
  submit_impl(std::move(task), cost_hint, true);
}

void ThreadPool::submit_impl(Task task, double cost_hint, bool hinted) {
  XP_REQUIRE(!stopping_.load(), "submit() on a stopping thread pool");
  auto* t = new Task(std::move(task));
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  unclaimed_.fetch_add(1, std::memory_order_seq_cst);
  if (!hinted && tls_worker.pool == this) {
    // Nested submit: the running worker keeps its spawned work local.
    workers_[static_cast<std::size_t>(tls_worker.index)]->deque.push(t);
  } else {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (hinted) {
      // Descending hint, stable among ties (linear from the back: batches
      // are typically submitted roughly largest-first already).
      auto it = injector_.end();
      while (it != injector_.begin() && std::prev(it)->hint < cost_hint) --it;
      injector_.insert(it, InjectorItem{cost_hint, t});
    } else {
      injector_.push_back(InjectorItem{0.0, t});
    }
  }
  // Store-buffering handshake with the park path: the submitter writes
  // unclaimed_ then reads sleepers_, the parking worker writes sleepers_
  // then reads unclaimed_ — seq_cst on all four forbids both reading the
  // old value, so a submit never slips past a worker that is about to
  // sleep.
  if (sleepers_.load() > 0) {
    {
      std::lock_guard<std::mutex> lock(sleep_mu_);
    }
    work_ready_.notify_one();
  }
}

ThreadPool::Task* ThreadPool::find_task(int index) {
  Worker& me = *workers_[static_cast<std::size_t>(index)];
  if (Task* t = me.deque.pop()) return t;
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (!injector_.empty()) {
      Task* t = injector_.front().task;
      injector_.pop_front();
      return t;
    }
  }
  // Steal sweep: two passes over the other workers, offset by our own
  // index so idle workers fan out over distinct victims.
  const int n = static_cast<int>(workers_.size());
  for (int attempt = 0; attempt < 2 * n; ++attempt) {
    const int victim = (index + 1 + attempt % n) % n;
    if (victim == index) continue;
    if (Task* t = workers_[static_cast<std::size_t>(victim)]->deque.steal())
      return t;
  }
  return nullptr;
}

void ThreadPool::run_task(Task* t) {
  Task fn = std::move(*t);
  delete t;
  fn();  // contract: tasks do not throw (a throw terminates the process)
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(done_mu_);
    all_done_.notify_all();
  }
}

void ThreadPool::worker_loop(int index) {
  tls_worker.pool = this;
  tls_worker.index = index;
  for (;;) {
    if (Task* t = find_task(index)) {
      unclaimed_.fetch_sub(1, std::memory_order_seq_cst);
      run_task(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (unclaimed_.load() > 0) continue;  // raced with a submit; rescan
    if (stopping_.load()) return;
    sleepers_.fetch_add(1);
    work_ready_.wait(
        lock, [this] { return unclaimed_.load() > 0 || stopping_.load(); });
    sleepers_.fetch_sub(1);
    if (unclaimed_.load() == 0 && stopping_.load()) return;
  }
}

void ThreadPool::wait() {
  XP_REQUIRE(tls_worker.pool != this,
             "wait() from inside a pool task would deadlock");
  std::unique_lock<std::mutex> lock(done_mu_);
  all_done_.wait(lock, [this] { return in_flight_.load() == 0; });
}

int ThreadPool::current_worker() { return tls_worker.index; }

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
