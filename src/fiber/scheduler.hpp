// Cooperative FIFO scheduler for fibers.
//
// run() drains the ready queue; a fiber executes until it calls yield()
// (requeue at tail), block() (wait for an unblock()), or returns.  If every
// live fiber is blocked the scheduler reports a deadlock — for the pC++
// runtime that means a barrier or remote wait can never be satisfied, which
// is always a program error worth surfacing loudly.
//
// The context-switch backend (fcontext assembly vs. ucontext fallback; see
// fiber/context.hpp) is chosen per scheduler at construction and is
// invisible to fibers: scheduling order, exception propagation, and the
// traces recorded under either backend are identical.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "fiber/fiber.hpp"

namespace xp::fiber {

class Scheduler {
 public:
  explicit Scheduler(Backend backend = Backend::Auto);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The resolved context-switch backend this scheduler runs on.
  Backend backend() const { return backend_; }

  /// Create a fiber; it becomes runnable immediately.  Returns its id.
  int spawn(std::function<void()> body,
            std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  /// Run until all fibers finish.  Rethrows the first fiber exception.
  /// Throws xp::util::Error on deadlock (live fibers, empty ready queue).
  void run();

  /// Id of the currently running fiber; -1 when inside the scheduler.
  int current() const { return current_; }

  /// Must be called from inside a fiber.
  void yield();
  void block();

  /// May be called from a fiber or from scheduler-side hooks.
  void unblock(int id);

  std::size_t live_count() const { return live_; }
  FiberState state_of(int id) const;

  /// Hook invoked when the ready queue is empty but blocked fibers remain;
  /// it should make progress that may unblock fibers (e.g. fire one
  /// simulation event) and return true, or return false when it has nothing
  /// left to do (which the scheduler then reports as a deadlock).  Used by
  /// the machine simulator to interleave simulated time with execution.
  void set_idle_hook(std::function<bool()> hook) { idle_hook_ = std::move(hook); }

 private:
  static void trampoline();
  void switch_to(int id);
  void return_to_scheduler(FiberState new_state);

  Backend backend_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  // Switch state by fiber id, apart from the Fiber objects: a round robin
  // over thousands of fibers then walks two dense arrays instead of one
  // cold heap object per fiber.  sps_ holds each switched-out fiber's saved
  // stack pointer on the fcontext backend (null until its first switch-in;
  // always null on the ucontext backend).
  std::vector<void*> sps_;
  std::vector<FiberState> states_;
  std::size_t live_ = 0;  ///< fibers not yet Finished
  std::deque<int> ready_;
  int current_ = -1;
  ucontext_t main_ctx_{};     ///< ucontext backend: scheduler context
  void* main_sp_ = nullptr;   ///< fcontext backend: scheduler stack pointer
  void* main_tsan_fiber_ = nullptr;
  const void* main_stack_bottom_ = nullptr;  ///< ASan: the scheduler's stack
  std::size_t main_stack_size_ = 0;
  bool running_ = false;
  std::function<bool()> idle_hook_;

  // makecontext cannot pass pointers portably (and the fcontext entry frame
  // carries none); the scheduler notes itself here just before switching
  // into a fresh fiber.  thread_local so that independent Scheduler
  // instances may run on different OS threads (one measurement per worker
  // in a sweep); a single instance is still strictly single-threaded — all
  // of its fibers run on the thread that calls run().
  static thread_local Scheduler* launching_;
};

}  // namespace xp::fiber
