// Non-preemptive user-level threads (fibers).
//
// This is the repository's stand-in for the AWESIME threads package the
// paper used to run all n threads of a pC++ program on one processor.  The
// property the trace-translation algorithm relies on — threads switch ONLY
// at synchronization boundaries (barrier entry/exit, remote waits) — is
// guaranteed here by construction: a fiber runs until it explicitly yields
// or blocks; there is no preemption.
//
// Control always passes fiber -> scheduler -> fiber (never fiber -> fiber),
// which keeps the scheduler logic trivial and the switch points auditable.
//
// Two context-switch backends exist behind this API (fiber/context.hpp):
// the fcontext-style assembly switch on pooled mmap'd stacks (default
// where ported) and the portable ucontext fallback/oracle.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fiber/context.hpp"
#include "fiber/stack_pool.hpp"

namespace xp::fiber {

enum class FiberState { Ready, Running, Blocked, Finished };

const char* to_string(FiberState s);

class Scheduler;

/// One cooperative thread of control with its own stack.  Its saved stack
/// pointer and run state live in the Scheduler's arrays indexed by fiber
/// id, so a switch on the fcontext backend reads nothing from this object.
class Fiber {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  Fiber(std::function<void()> body, std::size_t stack_bytes);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

 private:
  friend class Scheduler;

  /// Drop the execution context once the fiber can never run again
  /// (finished, or torn down): returns the pooled stack or frees the heap
  /// stack and context, destroys the sanitizer fiber.  Idempotent.
  void release_context();

  std::function<void()> body_;
  std::size_t stack_bytes_;

  // Each backend acquires its stack at the first switch-in and drops it as
  // soon as the fiber finishes, so a scheduler with many queued fibers only
  // holds stacks for the ones in flight.  Fcontext: a pooled stack.
  // Ucontext: a heap stack and the ~1 KB context built on it.
  StackSpan stack_{};
  std::unique_ptr<char[]> ustack_;
  std::unique_ptr<ucontext_t> ctx_;

  std::exception_ptr error_;
  void* tsan_fiber_ = nullptr;
  void* asan_fake_stack_ = nullptr;  ///< ASan: saved while switched out
};

}  // namespace xp::fiber
