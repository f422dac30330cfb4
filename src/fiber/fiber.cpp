#include "fiber/fiber.hpp"

#include "util/error.hpp"

namespace xp::fiber {

const char* to_string(FiberState s) {
  switch (s) {
    case FiberState::Ready:
      return "ready";
    case FiberState::Running:
      return "running";
    case FiberState::Blocked:
      return "blocked";
    case FiberState::Finished:
      return "finished";
  }
  return "?";
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)), stack_bytes_(stack_bytes) {
  XP_REQUIRE(stack_bytes_ >= 16 * 1024, "fiber stack too small (<16 KiB)");
  XP_REQUIRE(static_cast<bool>(body_), "fiber body must be callable");
}

Fiber::~Fiber() { release_context(); }

void Fiber::release_context() {
  if (stack_) {
    stack_release(stack_);
    stack_ = StackSpan{};
  }
  ctx_.reset();
  ustack_.reset();
#if defined(XP_TSAN_FIBERS)
  if (tsan_fiber_) {
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
  }
#endif
}

}  // namespace xp::fiber
