// Property-based tests: invariants checked over randomized inputs and
// parameterized sweeps (TEST_P), per the data-parallel execution model and
// the translation/simulation contracts.
#include <gtest/gtest.h>

#include <map>

#include "core/extrapolator.hpp"
#include "core/simulator.hpp"
#include "core/translate.hpp"
#include "machine/machine_sim.hpp"
#include "rt/collection.hpp"
#include "rt/distribution.hpp"
#include "suite/suite.hpp"
#include "trace/summary.hpp"
#include "util/rng.hpp"

#include "trace_order.hpp"

namespace xp {
namespace {

using core::SimParams;
using trace::Event;
using trace::EventKind;
using trace::Trace;
using util::Time;
using util::Xoshiro256ss;

// Generate a random but valid measured uniprocessor trace: n threads,
// random compute intervals, random remote reads, B common barriers.
Trace random_measured_trace(Xoshiro256ss& rng, int n, int barriers) {
  struct ThreadGen {
    std::vector<Event> pre;  // events before each barrier
  };
  Trace t(n);
  // Simulate the uniprocessor interleaving: global clock; threads run
  // phase-by-phase (each phase ends in a barrier), scheduled round-robin.
  Time clock;
  std::vector<std::vector<Event>> out(static_cast<std::size_t>(n));
  for (int th = 0; th < n; ++th) {
    Event b;
    b.thread = th;
    b.kind = EventKind::ThreadBegin;
    b.time = clock;
    out[static_cast<std::size_t>(th)].push_back(b);
    clock += Time::us(static_cast<double>(rng.next_below(5)));
  }
  for (int bar = 0; bar < barriers; ++bar) {
    for (int th = 0; th < n; ++th) {
      // Random compute + a few remote reads.
      const int reads = static_cast<int>(rng.next_below(3));
      for (int r = 0; r < reads; ++r) {
        clock += Time::us(static_cast<double>(1 + rng.next_below(20)));
        Event e;
        e.thread = th;
        e.kind = EventKind::RemoteRead;
        e.peer = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        e.object = static_cast<std::int64_t>(rng.next_below(100));
        e.actual_bytes = static_cast<int>(8 + rng.next_below(64));
        e.declared_bytes = e.actual_bytes * 4;
        e.time = clock;
        out[static_cast<std::size_t>(th)].push_back(e);
      }
      clock += Time::us(static_cast<double>(1 + rng.next_below(30)));
      Event entry;
      entry.thread = th;
      entry.kind = EventKind::BarrierEntry;
      entry.barrier_id = bar;
      entry.time = clock;
      out[static_cast<std::size_t>(th)].push_back(entry);
      Event exit = entry;
      exit.kind = EventKind::BarrierExit;
      // Exit recorded when rescheduled; approximate with the entry time of
      // the last thread (set below).
      out[static_cast<std::size_t>(th)].push_back(exit);
    }
    // Fix the exits: all at the (global) current clock.
    for (int th = 0; th < n; ++th)
      out[static_cast<std::size_t>(th)].back().time = clock;
  }
  for (int th = 0; th < n; ++th) {
    clock += Time::us(static_cast<double>(rng.next_below(10)));
    Event e;
    e.thread = th;
    e.kind = EventKind::ThreadEnd;
    e.time = clock;
    out[static_cast<std::size_t>(th)].push_back(e);
  }
  for (const auto& evs : out)
    for (const Event& e : evs) t.append(e);
  t.sort_by_time();
  return t;
}

TEST(PropertyTranslate, RandomTracesKeepInvariants) {
  Xoshiro256ss rng(0xFEED);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(6));
    const int barriers = static_cast<int>(rng.next_below(5));
    const Trace measured = random_measured_trace(rng, n, barriers);
    ASSERT_NO_THROW(measured.validate());
    const auto parts = core::translate(measured);
    ASSERT_EQ(parts.size(), static_cast<std::size_t>(n));

    std::map<int, Time> release;
    for (int th = 0; th < n; ++th) {
      const auto& evs = parts[static_cast<std::size_t>(th)].events();
      // First event of every thread at zero; timestamps non-decreasing.
      EXPECT_EQ(evs.front().time, Time::zero());
      EXPECT_TRUE(test::time_ordered(parts[static_cast<std::size_t>(th)]));
      for (const Event& e : evs) {
        if (e.kind == EventKind::BarrierExit) {
          auto [it, fresh] = release.emplace(e.barrier_id, e.time);
          if (!fresh) {
            EXPECT_EQ(it->second, e.time) << "exit misaligned";
          }
        }
      }
    }
    // Every exit equals the max entry of that barrier.
    for (int th = 0; th < n; ++th)
      for (const Event& e : parts[static_cast<std::size_t>(th)].events())
        if (e.kind == EventKind::BarrierEntry) {
          EXPECT_LE(e.time, release[e.barrier_id]);
        }
  }
}

TEST(PropertyTranslate, TranslationIsIdempotentOnDeltas) {
  // Translating twice changes nothing: deltas are already ideal.
  Xoshiro256ss rng(0xABCD);
  const Trace measured = random_measured_trace(rng, 4, 3);
  const auto once = core::translate(measured);
  const Trace merged = Trace::merge(once);
  const auto twice = core::translate(merged);
  for (int th = 0; th < 4; ++th) {
    const auto& a = once[static_cast<std::size_t>(th)].events();
    const auto& b = twice[static_cast<std::size_t>(th)].events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i].time, b[i].time);
  }
}

TEST(PropertySimulator, MessageConservation) {
  // Every remote access costs exactly two messages (request + reply) when
  // barriers are analytic; none are lost or duplicated.
  Xoshiro256ss rng(0x77);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(5));
    const Trace measured = random_measured_trace(rng, n, 2);
    const auto parts = core::translate(measured);
    SimParams p = model::ideal_preset();
    p.comm.comm_startup = Time::us(10);  // nonzero so messages are real
    p.barrier.by_msgs = false;
    const core::SimResult r = core::simulate(parts, p);
    std::int64_t cross_accesses = 0;
    for (const Event& e : measured.events())
      if (e.kind == EventKind::RemoteRead && e.peer != e.thread)
        ++cross_accesses;
    EXPECT_EQ(r.messages, 2 * cross_accesses);
    std::int64_t served = 0;
    for (const auto& st : r.threads) served += st.requests_served;
    EXPECT_EQ(served, cross_accesses);
  }
}

TEST(PropertySimulator, MakespanNeverBelowIdeal) {
  Xoshiro256ss rng(0x99);
  const SimParams presets[] = {model::distributed_preset(),
                               model::shared_memory_preset(),
                               model::cm5_preset()};
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(8));
    const Trace measured = random_measured_trace(rng, n, 3);
    const auto parts = core::translate(measured);
    const Time ideal = core::ideal_parallel_time(parts);
    for (const SimParams& p : presets) {
      SimParams q = p;
      q.proc.mips_ratio = 1.0;
      EXPECT_GE(core::simulate(parts, q).makespan, ideal);
    }
  }
}

TEST(PropertyDistribution, OwnersAlwaysPartition) {
  Xoshiro256ss rng(0x31415);
  const rt::Dist kinds[] = {rt::Dist::Block, rt::Dist::Cyclic,
                            rt::Dist::Whole};
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(33));
    const auto rows = static_cast<std::int64_t>(1 + rng.next_below(12));
    const auto cols = static_cast<std::int64_t>(1 + rng.next_below(12));
    const rt::Dist dr = kinds[rng.next_below(3)];
    const rt::Dist dc = kinds[rng.next_below(3)];
    const auto d = rt::Distribution::d2(dr, dc, rows, cols, n);
    std::int64_t covered = 0;
    for (int t = 0; t < n; ++t) covered += d.owned_count(t);
    EXPECT_EQ(covered, rows * cols);
    for (std::int64_t e = 0; e < d.size(); ++e) {
      const int o = d.owner(e);
      EXPECT_GE(o, 0);
      EXPECT_LT(o, n);
    }
  }
}

// --- cost monotonicity --------------------------------------------------

// Raising any single cost parameter must never reduce the predicted
// makespan (contention is excluded: its effect interacts with timing, but
// it is covered by its own test).  Parameterized over one mutator per
// model knob.
struct CostKnob {
  const char* name;
  void (*raise)(SimParams&);
};

class CostMonotonicity : public ::testing::TestWithParam<CostKnob> {};

TEST_P(CostMonotonicity, RaisingACostNeverSpeedsUp) {
  Xoshiro256ss rng(0xC057);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(7));
    const Trace measured = random_measured_trace(rng, n, 3);
    const auto parts = core::translate(measured);
    SimParams base = model::distributed_preset();
    base.network.contention.enabled = false;
    const Time before = core::simulate(parts, base).makespan;
    SimParams raised = base;
    GetParam().raise(raised);
    const Time after = core::simulate(parts, raised).makespan;
    EXPECT_GE(after, before) << GetParam().name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, CostMonotonicity,
    ::testing::Values(
        CostKnob{"mips_ratio", [](SimParams& p) { p.proc.mips_ratio *= 2; }},
        CostKnob{"comm_startup",
                 [](SimParams& p) { p.comm.comm_startup = Time::us(500); }},
        CostKnob{"byte_transfer",
                 [](SimParams& p) { p.comm.byte_transfer = Time::us(1); }},
        CostKnob{"msg_build",
                 [](SimParams& p) { p.comm.msg_build = Time::us(50); }},
        CostKnob{"recv_overhead",
                 [](SimParams& p) { p.comm.recv_overhead = Time::us(50); }},
        CostKnob{"hop_latency",
                 [](SimParams& p) { p.comm.hop_latency = Time::us(20); }},
        CostKnob{"request_service",
                 [](SimParams& p) { p.proc.request_service = Time::us(50); }},
        CostKnob{"barrier_entry",
                 [](SimParams& p) { p.barrier.entry_time = Time::us(100); }},
        CostKnob{"barrier_exit",
                 [](SimParams& p) { p.barrier.exit_time = Time::us(100); }},
        CostKnob{"barrier_model",
                 [](SimParams& p) { p.barrier.model_time = Time::us(200); }},
        CostKnob{"barrier_msg_size",
                 [](SimParams& p) { p.barrier.msg_size = 4096; }}),
    [](const ::testing::TestParamInfo<CostKnob>& info) {
      return std::string(info.param.name);
    });

// --- remote writes end to end ---------------------------------------------

TEST(PropertyWrites, PushProgramSurvivesWholePipeline) {
  // §5: remote element writes with deterministic ordering extrapolate like
  // reads.  A push-style shift: each thread writes a value into its right
  // neighbor's slot, separated by barriers, verified numerically.
  class PushProgram : public rt::Program {
   public:
    std::string name() const override { return "push"; }
    void setup(rt::Runtime& rt) override {
      c_ = std::make_unique<rt::Collection<double>>(
          rt, rt::Distribution::d1(rt::Dist::Block, rt.n_threads(),
                                   rt.n_threads()));
      for (int i = 0; i < rt.n_threads(); ++i) c_->init(i) = i;
    }
    void thread_main(rt::Runtime& rt) override {
      const int n = rt.n_threads();
      const int me = rt.thread_id();
      for (int round = 0; round < 3; ++round) {
        const double mine = c_->get(me);
        rt.barrier();  // everyone read before anyone writes
        c_->put((me + 1) % n, mine + 1.0);
        rt.barrier();
      }
    }
    void verify() override {
      // After 3 rounds of shift-right-and-increment, slot i holds the
      // original value of slot (i - 3 mod n) plus 3.
      const int n = static_cast<int>(c_->size());
      for (int i = 0; i < n; ++i) {
        const double want = ((i - 3) % n + n) % n + 3.0;
        XP_REQUIRE(c_->init(i) == want, "push produced wrong value");
      }
    }
    std::unique_ptr<rt::Collection<double>> c_;
  };

  PushProgram p1;
  core::Extrapolator x(model::distributed_preset());
  const core::Prediction pred = x.extrapolate(p1, 6);  // verify() runs
  EXPECT_GT(pred.predicted_time, pred.ideal_time);
  EXPECT_EQ(pred.measured_summary.remote_writes, 6 * 3);

  PushProgram p2;
  machine::MachineConfig mc = machine::cm5_machine();
  mc.compute_jitter = 0;
  mc.wire_jitter = 0;
  const auto act = machine::run_on_machine(p2, 6, mc);
  EXPECT_GT(act.exec_time, Time::zero());
}

// --- parameterized pipeline sweep ------------------------------------------

struct SweepCase {
  const char* bench;
  int threads;
};

class PipelineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelineSweep, EndToEndInvariants) {
  const auto& [bench, threads] = GetParam();
  suite::SuiteConfig cfg;
  cfg.embar_pairs = 1 << 10;
  cfg.cyclic_size = 64;
  cfg.cyclic_width = 8;
  cfg.sparse_size = 256;
  cfg.sparse_iters = 2;
  cfg.grid_blocks = 4;
  cfg.grid_block_points = 8;
  cfg.grid_iters = 4;
  cfg.mgrid_size = 8;
  cfg.mgrid_depth = 4;
  cfg.mgrid_cycles = 1;
  cfg.poisson_size = 16;
  cfg.sort_keys = 128;
  auto prog = suite::make_by_name(bench, cfg);
  core::Extrapolator x(model::distributed_preset());
  const core::Prediction p = x.extrapolate(*prog, threads);

  EXPECT_GE(p.predicted_time, p.ideal_time);
  EXPECT_LE(p.ideal_time, p.measured_time);
  EXPECT_EQ(p.n_threads, threads);
  EXPECT_NO_THROW(p.sim.extrapolated().validate());
  // Aggregate compute is invariant under the simulation (MipsRatio = 1).
  Time sim_compute;
  for (const auto& st : p.sim.threads) sim_compute += st.compute;
  EXPECT_EQ(sim_compute, p.measured_summary.total_compute);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, PipelineSweep,
    ::testing::Values(SweepCase{"embar", 2}, SweepCase{"embar", 16},
                      SweepCase{"cyclic", 4}, SweepCase{"cyclic", 8},
                      SweepCase{"sparse", 4}, SweepCase{"sparse", 16},
                      SweepCase{"grid", 4}, SweepCase{"grid", 16},
                      SweepCase{"mgrid", 4}, SweepCase{"poisson", 8},
                      SweepCase{"sort", 2}, SweepCase{"sort", 16}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(info.param.bench) + "_n" +
             std::to_string(info.param.threads);
    });

// --- parameterized policy sweep ----------------------------------------------

class PolicySweep
    : public ::testing::TestWithParam<model::ServicePolicy> {};

TEST_P(PolicySweep, AllPoliciesCompleteAndStayAboveIdeal) {
  suite::SuiteConfig cfg;
  cfg.cyclic_size = 64;
  cfg.cyclic_width = 8;
  auto prog = suite::make_cyclic(cfg);
  auto params = model::distributed_preset();
  params.proc.policy = GetParam();
  params.proc.poll_interval = Time::us(50);
  core::Extrapolator x(params);
  const core::Prediction p = x.extrapolate(*prog, 8);
  EXPECT_GE(p.predicted_time, p.ideal_time);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep,
                         ::testing::Values(model::ServicePolicy::NoInterrupt,
                                           model::ServicePolicy::Interrupt,
                                           model::ServicePolicy::Poll),
                         [](const auto& info) {
                           return std::string(model::to_string(info.param)) ==
                                          "no-interrupt"
                                      ? std::string("NoInterrupt")
                                      : std::string(
                                            model::to_string(info.param)) ==
                                                "interrupt"
                                            ? std::string("Interrupt")
                                            : std::string("Poll");
                         });

}  // namespace
}  // namespace xp
