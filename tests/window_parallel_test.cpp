// One large prediction on several host threads (DESIGN.md §9, §16): the
// event path's pre-recorded barrier-epoch windows and the thread-range
// lowerings must give what the one-thread paths give, bit for bit.
//
// The parallel paths engage from core::kParallelMinThreads threads, on a
// thread that is no util::ThreadPool worker; the same call made inside a
// pool task is the sequential run.  So every case here is run three ways
// at n = kParallelMinThreads: from the test thread (parallel), inside a
// one-worker pool (sequential), and EventDriven (the oracle, which never
// pre-records).  The three must agree under test::expect_same_result, and
// the memo counters of the parallel run must equal the sequential run's.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/compiled_trace.hpp"
#include "core/extrapolator.hpp"
#include "core/simulator.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"

#include "pool_worker.hpp"
#include "sim_oracle.hpp"

namespace {

using namespace xp;
using core::SimMode;
using core::SimOptions;
using core::SimResult;

constexpr int kN = core::kParallelMinThreads;

const std::vector<std::string> kCodes = {"embar", "cyclic", "grid", "mgrid",
                                         "poisson"};

/// Each code measured and prepared once at n = kN, on the parallel path
/// (the lowering's own equality is tested in translate_test).  Fewer
/// iterations and lighter epochs than the suite defaults keep the
/// simulations of a thousand threads inside the sanitizer jobs' budget;
/// every code still has distinct windows to pre-record, and grid, mgrid
/// and poisson windows that recur (memo hits).
const core::TranslatedTrace& prepared(const std::string& code) {
  static std::map<std::string, core::TranslatedTrace> cache;
  auto it = cache.find(code);
  if (it != cache.end()) return it->second;
  suite::SuiteConfig cfg;
  cfg.embar_pairs = 1 << 14;
  cfg.grid_iters = 4;
  cfg.cyclic_size = 256;
  cfg.mgrid_size = 16;
  cfg.mgrid_depth = 4;
  cfg.mgrid_cycles = 1;
  cfg.poisson_size = 32;
  auto prog = suite::make_by_name(code, cfg);
  rt::MeasureOptions mo;
  mo.n_threads = kN;
  return cache.emplace(code, core::prepare_trace(rt::measure(*prog, mo)))
      .first->second;
}

SimResult simulate(const core::TranslatedTrace& tt,
                   const model::SimParams& p, SimMode mode, bool emit) {
  SimOptions o;
  o.mode = mode;
  o.emit_trace = emit;
  return core::simulate_compiled(tt.compiled, p, o);
}

void expect_same_counters(const core::HybridStats& want,
                          const core::HybridStats& got,
                          const std::string& what) {
  EXPECT_EQ(want.memo_hits, got.memo_hits) << what;
  EXPECT_EQ(want.memo_misses, got.memo_misses) << what;
  EXPECT_EQ(want.segments_total, got.segments_total) << what;
  EXPECT_EQ(want.segments_collapsed, got.segments_collapsed) << what;
  EXPECT_EQ(want.ops_collapsed, got.ops_collapsed) << what;
}

/// One machine configuration: `emits` lists the emit_trace settings run.
struct Case {
  std::string name;
  model::SimParams params;
  std::vector<bool> emits;
};

/// The message-barrier presets (the memo's domain): distributed under every
/// service policy x MIPS {1, 4}, with a trace, and at MIPS 1 without one;
/// cm5, paragon and sp1 as configured, with a trace.
std::vector<Case> cases() {
  std::vector<Case> out;
  for (const model::ServicePolicy policy :
       {model::ServicePolicy::Interrupt, model::ServicePolicy::NoInterrupt,
        model::ServicePolicy::Poll})
    for (const double mips : {1.0, 4.0}) {
      model::SimParams p = model::distributed_preset();
      p.proc.policy = policy;
      p.proc.mips_ratio = mips;
      out.push_back({std::string("distributed ") + model::to_string(policy) +
                         " mips " + std::to_string(static_cast<int>(mips)),
                     p,
                     mips == 1.0 ? std::vector<bool>{true, false}
                                 : std::vector<bool>{true}});
    }
  out.push_back({"cm5", model::cm5_preset(), {true}});
  out.push_back({"paragon", model::paragon_preset(), {true}});
  out.push_back({"sp1", model::sp1_preset(), {true}});
  return out;
}

// The EventDriven oracle runs once per case, with a trace; the numbers a
// run reports do not depend on emit_trace, so a traceless run is held to
// the oracle's numbers.
TEST(WindowParallel, MatchesSequentialAndEventDriven) {
  for (const std::string& code : kCodes) {
    const core::TranslatedTrace& tt = prepared(code);
    for (const Case& c : cases()) {
      const std::string cell = code + " " + c.name;
      const SimResult oracle =
          simulate(tt, c.params, SimMode::EventDriven, true);
      for (const bool emit : c.emits) {
        const std::string what = cell + (emit ? " traced" : " untraced");
        const SimResult par = simulate(tt, c.params, SimMode::Auto, emit);
        const SimResult seq = test::on_pool_worker(
            [&] { return simulate(tt, c.params, SimMode::Auto, emit); });
        test::expect_same_result(seq, par, what + " vs sequential");
        expect_same_counters(seq.hybrid, par.hybrid, what);
        if (emit)
          test::expect_same_result(oracle, par, what + " vs oracle");
        else
          test::expect_same_numbers(oracle, par, what + " vs oracle");
        // Every barrier point of a suite trace is quiescent, so every
        // window is a hit or a miss.
        EXPECT_EQ(par.hybrid.memo_hits + par.hybrid.memo_misses,
                  static_cast<std::int64_t>(tt.compiled->barrier_ids.size()) -
                      1)
            << what;
      }
    }
  }
}

}  // namespace
