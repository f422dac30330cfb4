#include "util/parallel.hpp"

#include <system_error>

#include "util/thread_pool.hpp"

namespace xp::util {

namespace {

// Set on a TaskGroup's helper threads, so the tasks they run stay inline.
thread_local bool tls_group_helper = false;

}  // namespace

int parallel_workers(std::int64_t size, std::int64_t min_size) {
  if (size < min_size || ThreadPool::on_worker() || tls_group_helper) return 1;
  return ThreadPool::default_workers();
}

TaskGroup::TaskGroup(std::size_t n, int workers,
                     std::function<void(std::size_t)> body)
    : body_(std::move(body)), n_(n), errors_(n) {
  const std::size_t helpers =
      std::min(n, static_cast<std::size_t>(std::max(workers, 1) - 1));
  helpers_.reserve(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      helpers_.emplace_back([this] {
        tls_group_helper = true;
        drain();
      });
    } catch (const std::system_error&) {
      break;  // no thread to be had: the threads started, and join(), run it
    }
  }
}

TaskGroup::~TaskGroup() {
  next_.store(n_);
  stop();
}

void TaskGroup::drain() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1);
    if (i >= n_) return;
    try {
      body_(i);
    } catch (...) {
      errors_[i] = std::current_exception();
    }
  }
}

void TaskGroup::stop() {
  for (std::thread& h : helpers_) h.join();
  helpers_.clear();
}

void TaskGroup::join() {
  drain();
  stop();  // each task's writes happen-before the join that waits for it
  for (const std::exception_ptr& e : errors_)
    if (e) std::rethrow_exception(e);
}

void parallel_for(std::size_t n, int workers,
                  const std::function<void(std::size_t)>& body) {
  TaskGroup(n, workers, body).join();
}

}  // namespace xp::util
