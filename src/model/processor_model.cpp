#include "model/processor_model.hpp"

#include "util/error.hpp"

namespace xp::model {

Time scale_compute(const ProcessorParams& p, Time measured) {
  XP_REQUIRE(!measured.is_negative(), "negative computation interval");
  return measured * p.mips_ratio;
}

int effective_procs(const ProcessorParams& p, int n_threads) {
  XP_REQUIRE(n_threads > 0, "thread count must be positive");
  if (p.n_procs == 0) return n_threads;
  XP_REQUIRE(p.n_procs > 0 && p.n_procs <= n_threads,
             "n_procs must be in [1, n_threads]");
  return p.n_procs;
}

int proc_of_thread(const ProcessorParams& p, int thread, int n_threads) {
  XP_REQUIRE(thread >= 0 && thread < n_threads, "thread id out of range");
  return thread % effective_procs(p, n_threads);
}

}  // namespace xp::model
