#include "fiber/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace xp::fiber {

namespace {

// Beyond kGuardedStackLimit live stacks, new stacks come from SLABS: one
// mapping holding kSlabStacks stacks with no interior guard pages.  A
// guarded stack costs ~2 kernel vmas (the PROT_NONE guard splits its
// mapping), so 10^5 concurrent fibers — the hybrid simulator's huge-n
// measurements — would blow through vm.max_map_count (65530 by default)
// long before memory runs out.  Slabs trade the guard page for a ~128x
// smaller vma footprint; the threshold keeps every normal workload on
// guarded stacks.
constexpr std::size_t kSlabStacks = 64;

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

// Counters are atomics so the mmap path can account outside the mutex
// (relaxed: they are statistics, not synchronization).
struct AtomicStats {
  std::atomic<std::uint64_t> mapped{0};
  std::atomic<std::uint64_t> reused{0};
  std::atomic<std::uint64_t> unmapped{0};
  std::atomic<std::int64_t> active{0};
};

struct Pool {
  std::mutex mu;
  // Free stacks keyed by USABLE bytes, so guarded and slab-backed stacks
  // of one size class share a free list (their map_bytes differ by the
  // guard page).  `free_count` sums the lists; it never exceeds
  // kGuardedStackLimit.
  std::unordered_map<std::size_t, std::vector<StackSpan>> free_by_size;
  std::size_t free_count = 0;
  AtomicStats stats;

  ~Pool() {
    for (auto& [bytes, spans] : free_by_size)
      for (StackSpan& s : spans) ::munmap(s.map_base, s.map_bytes);
  }
};

Pool& pool() {
  static Pool p;  // dtor unmaps free stacks at exit
  return p;
}

/// Stack `i` of a guard-less slab mapped at `base`.
StackSpan slab_stack(void* base, std::size_t i, std::size_t usable) {
  StackSpan s;
  s.map_base = static_cast<char*>(base) + i * usable;
  s.map_bytes = usable;
  s.top = static_cast<char*>(s.map_base) + usable;
  s.usable = usable;
  return s;
}

}  // namespace

StackSpan stack_acquire(std::size_t usable_bytes) {
  XP_REQUIRE(usable_bytes > 0, "stack_acquire: zero-sized stack");
  const std::size_t ps = page_size();
  const std::size_t usable = ((usable_bytes + ps - 1) / ps) * ps;

  Pool& p = pool();
  {
    std::lock_guard<std::mutex> lock(p.mu);
    auto it = p.free_by_size.find(usable);
    if (it != p.free_by_size.end() && !it->second.empty()) {
      StackSpan s = it->second.back();
      it->second.pop_back();
      --p.free_count;
      p.stats.reused.fetch_add(1, std::memory_order_relaxed);
      p.stats.active.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
  }

  const std::int64_t active = p.stats.active.load(std::memory_order_relaxed);
  if (active >= 0 && static_cast<std::size_t>(active) >= kGuardedStackLimit) {
    // Slab path (see kGuardedStackLimit): one vma for kSlabStacks stacks.
    // No interior guards — an overflow runs into the neighboring fiber's
    // stack instead of faulting, the price of 10^5-fiber measurements.
    const std::size_t slab_bytes = usable * kSlabStacks;
    void* base = ::mmap(nullptr, slab_bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    XP_CHECK(base != MAP_FAILED, "mmap of fiber stack slab failed");
    p.stats.mapped.fetch_add(kSlabStacks, std::memory_order_relaxed);
    p.stats.active.fetch_add(1, std::memory_order_relaxed);
    // The first stack is returned; the rest go to the free list, as far as
    // the pool's cap allows.
    std::size_t dropped = 0;
    {
      std::lock_guard<std::mutex> lock(p.mu);
      auto& spans = p.free_by_size[usable];
      for (std::size_t i = 1; i < kSlabStacks; ++i) {
        const StackSpan s = slab_stack(base, i, usable);
        if (p.free_count < kGuardedStackLimit) {
          spans.push_back(s);
          ++p.free_count;
        } else {
          ::munmap(s.map_base, s.map_bytes);
          ++dropped;
        }
      }
    }
    p.stats.unmapped.fetch_add(dropped, std::memory_order_relaxed);
    return slab_stack(base, 0, usable);
  }

  const std::size_t map_bytes = usable + ps;  // + guard page
  void* base = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  XP_CHECK(base != MAP_FAILED, "mmap of fiber stack failed");
  XP_CHECK(::mprotect(base, ps, PROT_NONE) == 0,
           "mprotect of fiber stack guard page failed");

  StackSpan s;
  s.map_base = base;
  s.map_bytes = map_bytes;
  s.top = static_cast<char*>(base) + map_bytes;
  s.usable = usable;
  p.stats.mapped.fetch_add(1, std::memory_order_relaxed);
  p.stats.active.fetch_add(1, std::memory_order_relaxed);
  return s;
}

void stack_release(StackSpan s) {
  if (!s) return;
  Pool& p = pool();
  p.stats.active.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.free_count < kGuardedStackLimit) {
      p.free_by_size[s.usable].push_back(s);
      ++p.free_count;
      return;
    }
  }
  p.stats.unmapped.fetch_add(1, std::memory_order_relaxed);
  ::munmap(s.map_base, s.map_bytes);
}

StackPoolStats stack_pool_stats() {
  Pool& p = pool();
  StackPoolStats out;
  out.mapped = p.stats.mapped.load(std::memory_order_relaxed);
  out.reused = p.stats.reused.load(std::memory_order_relaxed);
  out.unmapped = p.stats.unmapped.load(std::memory_order_relaxed);
  const std::int64_t active = p.stats.active.load(std::memory_order_relaxed);
  out.active = active > 0 ? static_cast<std::uint64_t>(active) : 0;
  return out;
}

void stack_pool_trim() {
  Pool& p = pool();
  std::unordered_map<std::size_t, std::vector<StackSpan>> drop;
  std::uint64_t n = 0;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    drop.swap(p.free_by_size);
    n = p.free_count;
    p.free_count = 0;
  }
  p.stats.unmapped.fetch_add(n, std::memory_order_relaxed);
  for (const auto& [bytes, spans] : drop)
    for (const StackSpan& s : spans) ::munmap(s.map_base, s.map_bytes);
}

}  // namespace xp::fiber
