// Tests for the benchmark suite (Table 2 + Matmul): every code runs under
// the measurement runtime at several thread counts, self-verifies its
// numerics against its sequential reference, and produces structurally
// valid traces.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/summary.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace xp::suite {
namespace {

// Small problem sizes so the full matrix of tests stays fast.
SuiteConfig small_config() {
  SuiteConfig cfg;
  cfg.embar_pairs = 1 << 11;
  cfg.cyclic_size = 64;
  cfg.cyclic_width = 4;
  cfg.sparse_size = 192;
  cfg.sparse_nnz_per_row = 5;
  cfg.sparse_iters = 3;
  cfg.grid_blocks = 4;
  cfg.grid_block_points = 8;
  cfg.grid_iters = 5;
  cfg.mgrid_size = 16;
  cfg.mgrid_depth = 3;
  cfg.mgrid_cycles = 2;
  cfg.poisson_size = 24;
  cfg.sort_keys = 256;
  cfg.matmul_n = 8;
  return cfg;
}

trace::Trace run(rt::Program& p, int n) {
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return rt::measure(p, mo);  // verify() runs inside
}

TEST(SuiteFactory, NamesAndDescriptions) {
  const auto& names = benchmark_names();
  ASSERT_EQ(names.size(), 7u);  // Table 2
  EXPECT_EQ(names.front(), "embar");
  EXPECT_EQ(names.back(), "sort");
  for (const auto& n : names) {
    EXPECT_FALSE(describe(n).empty());
    EXPECT_NE(make_by_name(n, small_config()), nullptr);
  }
  EXPECT_THROW(make_by_name("nope"), util::Error);
  EXPECT_THROW(describe("nope"), util::Error);
}

// Parameterized over (benchmark, thread count): runs + self-verifies.
using BenchCase = std::tuple<std::string, int>;

class SuiteRun : public ::testing::TestWithParam<BenchCase> {};

TEST_P(SuiteRun, MeasuresVerifiesAndValidates) {
  const auto& [name, n] = GetParam();
  auto prog = make_by_name(name, small_config());
  const trace::Trace t = run(*prog, n);  // throws on numerical mismatch
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.n_threads(), n);
  const trace::Summary s = summarize(t);
  EXPECT_GT(s.events, 0);
  EXPECT_GT(s.total_compute, util::Time::zero());
  if (n == 1) {
    EXPECT_EQ(s.remote_reads, 0) << "single thread owns everything";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteRun,
    ::testing::Combine(::testing::Values("embar", "cyclic", "sparse", "grid",
                                         "mgrid", "poisson", "sort"),
                       ::testing::Values(1, 2, 4, 8, 16)),
    [](const ::testing::TestParamInfo<BenchCase>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SuiteStructure, EmbarIsEmbarrassinglyParallel) {
  auto prog = make_embar(small_config());
  const trace::Summary s = summarize(run(*prog, 8));
  EXPECT_EQ(s.barriers, 2);  // one before and one after the reduction
  EXPECT_EQ(s.remote_reads, 7);  // thread 0 gathers the other partials
}

TEST(SuiteStructure, CyclicCommunicationGrowsWithStride) {
  auto prog = make_cyclic(small_config());
  const trace::Trace t = run(*prog, 8);
  // 64 equations, log2 = 6 steps, plus the framing barriers.
  EXPECT_EQ(summarize(t).barriers, 6 + 2);
  EXPECT_GT(summarize(t).remote_reads, 0);
}

TEST(SuiteStructure, GridRecordsPaperTransferSizes) {
  SuiteConfig cfg = small_config();
  auto prog = make_grid(cfg);
  const trace::Trace t = run(*prog, 4);
  bool saw_edge = false, saw_control = false;
  for (const auto& e : t.events()) {
    if (e.kind != trace::EventKind::RemoteRead) continue;
    if (e.actual_bytes == 2) {
      saw_control = true;  // the 2-byte iteration-control word
      continue;
    }
    EXPECT_EQ(e.declared_bytes, cfg.grid_declared_bytes);
    if (e.actual_bytes == cfg.grid_block_points * 8) saw_edge = true;
  }
  EXPECT_TRUE(saw_edge);
  EXPECT_TRUE(saw_control);
}

TEST(SuiteStructure, GridIdleProcessorsAtNonSquareCounts) {
  // 4 and 8 threads produce identical block ownership (square-floor), so
  // remote traffic is identical too — the paper's 4->8 artifact.
  const SuiteConfig cfg = small_config();
  auto p4 = make_grid(cfg);
  auto p8 = make_grid(cfg);
  const trace::Summary s4 = summarize(run(*p4, 4));
  const trace::Summary s8 = summarize(run(*p8, 8));
  // Block ownership is identical, so edge traffic is identical; the only
  // difference is the per-iteration control read from the 4 extra
  // (otherwise idle) threads.
  EXPECT_EQ(s8.remote_reads - s4.remote_reads,
            4 * static_cast<std::int64_t>(cfg.grid_iters));
}

TEST(SuiteStructure, MgridHasManyBarriers) {
  auto prog = make_mgrid(small_config());
  const trace::Summary s = summarize(run(*prog, 4));
  // V-cycles over multiple levels synchronize a lot.
  EXPECT_GT(s.barriers, 20);
}

TEST(SuiteStructure, PoissonHasTransposeBursts) {
  auto prog = make_poisson(small_config());
  const trace::Summary s = summarize(run(*prog, 4));
  // Two transposes; per transpose each of the 4 threads reads the
  // 24 - 6 source rows it does not own, exactly once.
  EXPECT_EQ(s.remote_reads, 2 * 4 * (24 - 6));
}

TEST(SuiteStructure, SortRequiresPowerOfTwo) {
  auto prog = make_sort(small_config());
  rt::MeasureOptions mo;
  mo.n_threads = 3;
  EXPECT_THROW(rt::measure(*prog, mo), util::Error);
}

TEST(SuiteStructure, SortStageCount) {
  auto prog = make_sort(small_config());
  const trace::Summary s = summarize(run(*prog, 8));
  // local sort barrier + log2(8)*(log2(8)+1)/2 = 6 merge steps.
  EXPECT_EQ(s.barriers, 1 + 6);
  EXPECT_EQ(s.remote_reads, 6 * 8);  // every thread reads its partner
}

TEST(Matmul, AllNineDistributionsVerify) {
  const rt::Dist kDists[] = {rt::Dist::Block, rt::Dist::Cyclic,
                             rt::Dist::Whole};
  for (rt::Dist a : kDists)
    for (rt::Dist b : kDists) {
      auto prog = make_matmul(a, b, small_config());
      EXPECT_NO_THROW(run(*prog, 4)) << prog->name();
    }
}

TEST(Matmul, NameReflectsDistribution) {
  auto prog = make_matmul(rt::Dist::Cyclic, rt::Dist::Whole, small_config());
  EXPECT_EQ(prog->name(), "matmul(Cyclic,Whole)");
}

TEST(Matmul, WholeWholeSerializesOwnership) {
  auto prog = make_matmul(rt::Dist::Whole, rt::Dist::Whole, small_config());
  const trace::Summary s = summarize(run(*prog, 4));
  // All elements on thread 0: everything is local.
  EXPECT_EQ(s.remote_reads, 0);
}

// verify() references are shared per key (suite/reference.hpp).  Each case
// changes exactly one field a reference reads; measuring the base config
// and the variant interleaved, in both orders and at two thread counts,
// makes a key that misses the field serve one config the other's
// reference, and that verify() throws.
TEST(SuiteReference, KeyCoversEveryReferenceField) {
  struct Variant {
    const char* code;
    const char* field;
    std::function<void(SuiteConfig&)> change;
  };
  const std::vector<Variant> variants = {
      {"grid", "blocks", [](SuiteConfig& c) { c.grid_blocks = 3; }},
      {"grid", "block_points", [](SuiteConfig& c) { c.grid_block_points = 6; }},
      {"grid", "iters", [](SuiteConfig& c) { c.grid_iters = 4; }},
      {"embar", "pairs", [](SuiteConfig& c) { c.embar_pairs = 3000; }},
      {"poisson", "size", [](SuiteConfig& c) { c.poisson_size = 20; }},
      {"cyclic", "size", [](SuiteConfig& c) { c.cyclic_size = 32; }},
      {"cyclic", "width", [](SuiteConfig& c) { c.cyclic_width = 3; }},
      {"sort", "keys", [](SuiteConfig& c) { c.sort_keys = 512; }},
      {"mgrid", "size", [](SuiteConfig& c) { c.mgrid_size = 8; }},
      {"mgrid", "cycles", [](SuiteConfig& c) { c.mgrid_cycles = 1; }},
      {"mgrid", "depth", [](SuiteConfig& c) { c.mgrid_depth = 2; }},
      {"sparse", "size", [](SuiteConfig& c) { c.sparse_size = 160; }},
      {"sparse", "nnz_per_row", [](SuiteConfig& c) { c.sparse_nnz_per_row = 4; }},
      {"sparse", "iters", [](SuiteConfig& c) { c.sparse_iters = 2; }},
  };
  const SuiteConfig base = small_config();
  for (const Variant& v : variants) {
    SuiteConfig changed = base;
    v.change(changed);
    const SuiteConfig* b = &base;
    const SuiteConfig* c = &changed;
    for (const auto& [first, second] : {std::pair{b, c}, std::pair{c, b}})
      for (int n : {1, 4})
        for (const SuiteConfig* cfg : {first, second}) {
          auto prog = make_by_name(v.code, *cfg);
          EXPECT_NO_THROW(run(*prog, n))
              << v.code << " with " << v.field
              << (cfg == b ? " at base" : " changed") << ", n=" << n;
        }
  }
}

// Eight pool workers measure one config at once, at mixed thread counts:
// every measurement verifies, and concurrent verify() calls wait on one
// reference build per key instead of repeating it.
TEST(SuiteReference, ConcurrentMeasurementsBuildEachReferenceOnce) {
  // Values no other test measures, so the build counters start fresh.
  SuiteConfig cfg = small_config();
  cfg.embar_pairs = 1 << 10;
  cfg.cyclic_width = 5;
  cfg.sparse_iters = 5;
  cfg.grid_iters = 6;
  cfg.mgrid_cycles = 3;
  cfg.poisson_size = 28;
  cfg.sort_keys = 1024;
  const int kThreads[] = {1, 2, 4, 8, 8, 4, 2, 1};
  util::ThreadPool pool(8);
  for (const std::string& name : benchmark_names()) {
    const std::int64_t before = reference_builds(name);
    std::vector<std::string> errors(std::size(kThreads));
    for (std::size_t i = 0; i < std::size(kThreads); ++i)
      pool.submit([&, i] {
        try {
          auto prog = make_by_name(name, cfg);
          run(*prog, kThreads[i]);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    pool.wait();
    for (std::size_t i = 0; i < errors.size(); ++i)
      EXPECT_EQ(errors[i], "") << name << " n=" << kThreads[i];
    // Sparse keys on the thread count (4 distinct here); the rest do not.
    EXPECT_EQ(reference_builds(name) - before, name == "sparse" ? 4 : 1)
        << name;
  }
}

TEST(SuiteDeterminism, SameTraceTwice) {
  for (const auto& name : benchmark_names()) {
    auto p1 = make_by_name(name, small_config());
    auto p2 = make_by_name(name, small_config());
    const trace::Trace a = run(*p1, 4);
    const trace::Trace b = run(*p2, 4);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(a[i], b[i]) << name << " event " << i;
  }
}

}  // namespace
}  // namespace xp::suite
