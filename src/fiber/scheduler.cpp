#include "fiber/scheduler.hpp"

#include "util/error.hpp"

namespace xp::fiber {

namespace {

// ASan stack-switch annotations (no-ops in other builds).  start_switch
// announces a switch to the stack [bottom, bottom + size) and saves the
// current stack's fake frames in *fake_stack, or drops them when
// fake_stack is null (the current stack is done for good); finish_switch,
// on the new stack, restores its own fake frames and reports the stack it
// came from.
void start_switch([[maybe_unused]] void** fake_stack,
                  [[maybe_unused]] const void* bottom,
                  [[maybe_unused]] std::size_t size) {
#if defined(XP_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
#endif
}

void finish_switch([[maybe_unused]] void* fake_stack,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#if defined(XP_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
#endif
}

// Warm the saved frame of the fiber that runs next, a fixed 512 bytes up
// from its saved stack pointer: the switch's register save area and the
// innermost frames of the call chain that switched it out, which are the
// first bytes it touches on resume.  Issued before the current fiber runs,
// so the loads overlap its work; at thousands of fibers every frame is
// otherwise a cache miss (DESIGN.md §9).
void prefetch_frame(const void* sp) {
  if (!sp) return;
  const char* p = static_cast<const char*>(sp);
  for (int line = 0; line < 8; ++line) __builtin_prefetch(p + 64 * line);
}

}  // namespace

thread_local Scheduler* Scheduler::launching_ = nullptr;

Scheduler::Scheduler(Backend backend) : backend_(resolve_backend(backend)) {}

Scheduler::~Scheduler() = default;

int Scheduler::spawn(std::function<void()> body, std::size_t stack_bytes) {
  XP_REQUIRE(!running_ || current_ >= 0,
             "spawn() from scheduler internals is not supported");
  const int id = static_cast<int>(fibers_.size());
  fibers_.push_back(
      std::make_unique<Fiber>(std::move(body), stack_bytes));
  sps_.push_back(nullptr);
  states_.push_back(FiberState::Ready);
  ++live_;
  ready_.push_back(id);
  return id;
}

FiberState Scheduler::state_of(int id) const {
  XP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < states_.size(),
             "state_of: bad fiber id");
  return states_[static_cast<std::size_t>(id)];
}

void Scheduler::trampoline() {
  Scheduler* sched = launching_;
  finish_switch(nullptr, &sched->main_stack_bottom_, &sched->main_stack_size_);
  Fiber& self = *sched->fibers_[static_cast<std::size_t>(sched->current_)];
  try {
    self.body_();
  } catch (...) {
    self.error_ = std::current_exception();
  }
  sched->return_to_scheduler(FiberState::Finished);
  // Unreachable: a Finished fiber is never resumed.
}

void Scheduler::switch_to(int id) {
  const auto i = static_cast<std::size_t>(id);
  current_ = id;
  states_[i] = FiberState::Running;
  Fiber& f = *fibers_[i];
  void* main_fake_stack = nullptr;
  if (backend_ == Backend::Fcontext) {
    if (!sps_[i]) {
      f.stack_ = stack_acquire(f.stack_bytes_);
#if defined(XP_ASAN_FIBERS)
      // A pooled stack keeps the shadow its last fiber left behind.
      __asan_unpoison_memory_region(f.stack_.top - f.stack_.usable,
                                    f.stack_.usable);
#endif
      sps_[i] = make_fcontext_frame(f.stack_.top, &Scheduler::trampoline);
#if defined(XP_TSAN_FIBERS)
      f.tsan_fiber_ = __tsan_create_fiber(0);
#endif
      launching_ = this;
    }
#if defined(XP_TSAN_FIBERS)
    if (!main_tsan_fiber_) main_tsan_fiber_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(f.tsan_fiber_, 0);
#endif
    start_switch(&main_fake_stack, f.stack_.top - f.stack_.usable,
                 f.stack_.usable);
    xp_fcontext_swap(&main_sp_, sps_[i]);
  } else {
    if (!f.ctx_) {
      // Left uninitialized: the fiber writes its stack before reading it.
      f.ustack_ = std::make_unique_for_overwrite<char[]>(f.stack_bytes_);
      f.ctx_ = std::make_unique<ucontext_t>();
      XP_CHECK(getcontext(f.ctx_.get()) == 0, "getcontext failed");
      f.ctx_->uc_stack.ss_sp = f.ustack_.get();
      f.ctx_->uc_stack.ss_size = f.stack_bytes_;
      // Safety net; a normal exit goes through the trampoline.
      f.ctx_->uc_link = &main_ctx_;
      makecontext(f.ctx_.get(), &Scheduler::trampoline, 0);
      launching_ = this;
    }
    start_switch(&main_fake_stack, f.ustack_.get(), f.stack_bytes_);
    XP_CHECK(swapcontext(&main_ctx_, f.ctx_.get()) == 0, "swapcontext failed");
  }
  finish_switch(main_fake_stack, nullptr, nullptr);
  current_ = -1;
  if (states_[i] != FiberState::Finished) return;
  // A Finished fiber can never run again; hand its stack back to the pool
  // immediately so the next spawned fiber reuses it.  Only a finished
  // fiber carries an exception.
  --live_;
  f.release_context();
  if (f.error_) {
    auto err = f.error_;
    f.error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void Scheduler::return_to_scheduler(FiberState new_state) {
  const auto i = static_cast<std::size_t>(current_);
  states_[i] = new_state;
  Fiber& self = *fibers_[i];
  // A finished fiber never comes back: its fake frames are dropped.
  start_switch(new_state == FiberState::Finished ? nullptr
                                                 : &self.asan_fake_stack_,
               main_stack_bottom_, main_stack_size_);
  if (backend_ == Backend::Fcontext) {
#if defined(XP_TSAN_FIBERS)
    __tsan_switch_to_fiber(main_tsan_fiber_, 0);
#endif
    xp_fcontext_swap(&sps_[i], main_sp_);
  } else {
    XP_CHECK(swapcontext(self.ctx_.get(), &main_ctx_) == 0,
             "swapcontext failed");
  }
  finish_switch(self.asan_fake_stack_, &main_stack_bottom_, &main_stack_size_);
}

void Scheduler::run() {
  XP_REQUIRE(!running_, "scheduler is not reentrant");
  running_ = true;
  try {
    for (;;) {
      if (ready_.empty()) {
        if (live_ == 0) break;
        if (idle_hook_) {
          // Give the embedder (machine simulator) a chance to unblock
          // fibers by advancing simulated time, as long as it reports
          // progress.
          bool progressed = true;
          while (ready_.empty() && progressed) progressed = idle_hook_();
          if (!ready_.empty()) continue;
        }
        if (live_ == 0) break;
        running_ = false;
        throw util::Error(
            "fiber deadlock: " + std::to_string(live_) +
            " live fiber(s) blocked with an empty ready queue");
      }
      const int id = ready_.front();
      ready_.pop_front();
      XP_CHECK(states_[static_cast<std::size_t>(id)] == FiberState::Ready,
               "ready queue holds non-ready fiber");
      if (!ready_.empty())
        prefetch_frame(sps_[static_cast<std::size_t>(ready_.front())]);
      switch_to(id);
    }
  } catch (...) {
    running_ = false;
    throw;
  }
  running_ = false;
}

void Scheduler::yield() {
  XP_REQUIRE(current_ >= 0, "yield() outside a fiber");
  ready_.push_back(current_);
  return_to_scheduler(FiberState::Ready);
}

void Scheduler::block() {
  XP_REQUIRE(current_ >= 0, "block() outside a fiber");
  return_to_scheduler(FiberState::Blocked);
}

void Scheduler::unblock(int id) {
  XP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < states_.size(),
             "unblock: bad fiber id");
  FiberState& state = states_[static_cast<std::size_t>(id)];
  XP_REQUIRE(state == FiberState::Blocked,
             std::string("unblock: fiber ") + std::to_string(id) + " is " +
                 to_string(state));
  state = FiberState::Ready;
  ready_.push_back(id);
}

}  // namespace xp::fiber
