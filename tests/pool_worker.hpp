// Run a call the way a sweep or the daemon runs it: inside a
// util::ThreadPool task, where util::parallel_workers keeps every parallel
// path of one computation on its one thread.  Tests compare it with the
// same call made from the test thread.
#pragma once

#include <exception>
#include <optional>
#include <utility>

#include "util/thread_pool.hpp"

namespace xp::test {

/// `f()` run inside a one-worker pool's task; its exception, if any, is
/// rethrown on the calling thread.
template <class F>
auto on_pool_worker(F f) -> decltype(f()) {
  std::optional<decltype(f())> out;
  std::exception_ptr error;
  util::ThreadPool pool(1);
  pool.submit([&] {
    try {
      out.emplace(f());
    } catch (...) {
      error = std::current_exception();
    }
  });
  pool.wait();
  if (error) std::rethrow_exception(error);
  return std::move(*out);
}

}  // namespace xp::test
