// Pooled mmap'd fiber stacks with guard pages.
//
// The Fcontext backend allocates stacks here instead of on the heap:
//
//  * each stack is an anonymous mmap with a PROT_NONE guard page at the low
//    end, so running off the end of a fiber stack faults immediately
//    instead of silently corrupting neighboring allocations (the heap-stack
//    failure mode of the ucontext fallback);
//  * released stacks go to one process-wide free list, keyed by usable
//    size and guarded by one mutex, and are reused by later fibers — a
//    measurement, or a sweep of them, pays the mmap/mprotect syscalls and
//    first-touch page faults only for its high-water mark, once per
//    process.  The Scheduler releases a stack as soon as its fiber finishes
//    (a Finished fiber is never resumed), so the high-water mark is the
//    peak number of *started, unfinished* fibers, not the spawn count.
//
// The free list holds at most kGuardedStackLimit stacks over all sizes;
// a release beyond that unmaps.  A guarded stack costs at most 2 kernel
// vmas, so a full pool stays under half of the default vm.max_map_count
// (65530).  Its memory is the pages the fibers touched: one 4 KiB page
// per stack for the suite's thread bodies (16 MB for the 4096 stacks of
// an n = 4096 measurement), the whole stack only for a fiber that used
// all of it.  The cost of one lock per acquire and per release
// is negligible next to the fiber's own run.
//
// Huge fiber counts (the hybrid simulator's 10^5-thread measurements)
// switch to SLAB allocation: past kGuardedStackLimit live stacks, new
// stacks are carved 64 at a time from one guard-less mapping, keeping the
// kernel vma count far below vm.max_map_count at the cost of overflow
// detection on those stacks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xp::fiber {

/// Live stacks past which new ones come from guard-less slabs, and the
/// most free stacks the pool keeps.
inline constexpr std::size_t kGuardedStackLimit = 16384;

/// One pooled stack.  `top` is the high end (stacks grow down); the guard
/// page lies below `top - usable`.
struct StackSpan {
  void* map_base = nullptr;   ///< mmap base (guard page)
  std::size_t map_bytes = 0;  ///< total mapping incl. guard
  char* top = nullptr;        ///< initial stack pointer (high end)
  std::size_t usable = 0;     ///< bytes between guard and top

  explicit operator bool() const { return map_base != nullptr; }
};

struct StackPoolStats {
  std::uint64_t mapped = 0;    ///< stacks created with mmap
  std::uint64_t reused = 0;    ///< acquisitions served from the free list
  std::uint64_t unmapped = 0;  ///< stacks returned to the kernel
  std::uint64_t active = 0;    ///< currently acquired (not in pool/unmapped)
};

/// A stack with at least `usable_bytes` of usable space (rounded up to
/// whole pages), from the pool when one of that size is free.
StackSpan stack_acquire(std::size_t usable_bytes);

/// Return a stack to the pool (or unmap it if the pool is full).  No-op for
/// empty spans.
void stack_release(StackSpan s);

StackPoolStats stack_pool_stats();

/// Unmap every pooled (free) stack.  Tests use this to take delta-free
/// baselines; safe at any time, acquired stacks are unaffected.
void stack_pool_trim();

}  // namespace xp::fiber
