// Context-switch backends for the fiber package.
//
// Two implementations sit behind the Fiber/Scheduler API:
//
//  * Fcontext — a hand-written fcontext-style switch (fiber/fcontext.S):
//    callee-saved registers + stack pointer only, no sigprocmask syscall,
//    running on pooled mmap'd stacks with a guard page (fiber/stack_pool.hpp).
//    ~10x faster than ucontext per switch; the default where supported.
//  * Ucontext — the portable getcontext/makecontext/swapcontext path the
//    repository started with.  Kept as the fallback for targets without an
//    assembly port (CMake -DXP_FIBER_UCONTEXT=ON forces it as the default)
//    and as the differential-test oracle: both backends must produce
//    bitwise-identical traces on the full benchmark suite
//    (tests/fiber_test.cpp), since the virtual clock, not the switch
//    mechanism, drives all timestamps.
//
// Backend selection is per-Scheduler (constructor argument); Auto resolves
// through the process-wide default, which set_default_backend() overrides
// (used by the differential tests and by embedders that want the oracle).
#pragma once

#include <cstddef>

// TSan cannot see a hand-rolled stack switch the way it sees the
// swapcontext interceptor, so the Fcontext backend tells it about fiber
// creation/switching explicitly via the sanitizer fiber API.
#if defined(__SANITIZE_THREAD__)
#define XP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XP_TSAN_FIBERS 1
#endif
#endif

#if defined(XP_TSAN_FIBERS)
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// ASan tracks one stack per thread, so both backends announce every switch
// to another stack (__sanitizer_start_switch_fiber) and complete it on
// arrival (__sanitizer_finish_switch_fiber): an exception thrown on a fiber
// stack then unwinds against that stack's bounds, and fake frames of
// stack-use-after-return detection follow their fiber.
#if defined(__SANITIZE_ADDRESS__)
#define XP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XP_ASAN_FIBERS 1
#endif
#endif

#if defined(XP_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

extern "C" {
/// The switch primitive (fiber/fcontext.S): save callee-saved registers on
/// the current stack, publish the stack pointer through `save_sp`, adopt
/// `restore_sp`, restore its registers, return into the target context.
void xp_fcontext_swap(void** save_sp, void* restore_sp);
}

namespace xp::fiber {

enum class Backend {
  Auto,      ///< resolve through the process-wide default
  Fcontext,  ///< assembly switch + pooled mmap stacks
  Ucontext,  ///< portable fallback / differential-test oracle
};

const char* to_string(Backend b);

/// True when fiber/fcontext.S has a port for this target.
constexpr bool fcontext_supported() {
#if (defined(__x86_64__) || defined(__aarch64__)) && defined(__ELF__)
  return true;
#else
  return false;
#endif
}

/// The backend Auto resolves to: Fcontext where supported unless the build
/// (-DXP_FIBER_UCONTEXT=ON) or set_default_backend() says otherwise.
Backend default_backend();

/// Override the process-wide default (Auto restores the build default).
/// Takes effect for Schedulers constructed afterwards.
void set_default_backend(Backend b);

/// Auto -> default_backend(), anything else unchanged.  Requesting
/// Fcontext on a target without a port throws util::Error.
Backend resolve_backend(Backend b);

/// Build a fresh Fcontext frame at the top of a stack so that the first
/// xp_fcontext_swap into it enters `entry` with a well-formed call stack
/// (`entry` must never return; a guard slot aborts loudly if it does).
/// Returns the stack-pointer value to hand to xp_fcontext_swap.
void* make_fcontext_frame(void* stack_top, void (*entry)());

}  // namespace xp::fiber
