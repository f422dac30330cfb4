// Unit tests for xp::util — time, rng, stats, tables, charts, args.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "util/args.hpp"
#include "util/chart.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace xp::util {
namespace {

// --- Time -----------------------------------------------------------------

TEST(Time, ConstructionAndAccessors) {
  EXPECT_EQ(Time::zero().count_ns(), 0);
  EXPECT_EQ(Time::ns(1500).count_ns(), 1500);
  EXPECT_EQ(Time::us(1.0).count_ns(), 1000);
  EXPECT_EQ(Time::ms(1.0).count_ns(), 1000000);
  EXPECT_EQ(Time::sec(1.0).count_ns(), 1000000000);
  EXPECT_DOUBLE_EQ(Time::us(2.5).to_us(), 2.5);
  EXPECT_DOUBLE_EQ(Time::ms(2.5).to_ms(), 2.5);
  EXPECT_DOUBLE_EQ(Time::sec(2.5).to_sec(), 2.5);
}

TEST(Time, RoundsToNearestNanosecond) {
  EXPECT_EQ(Time::us(0.0004).count_ns(), 0);
  EXPECT_EQ(Time::us(0.0006).count_ns(), 1);
  EXPECT_EQ(Time::us(-0.0006).count_ns(), -1);
}

TEST(Time, Arithmetic) {
  const Time a = Time::us(10), b = Time::us(4);
  EXPECT_EQ((a + b).count_ns(), 14000);
  EXPECT_EQ((a - b).count_ns(), 6000);
  EXPECT_EQ((a * 2.0).count_ns(), 20000);
  EXPECT_EQ((2.0 * a).count_ns(), 20000);
  EXPECT_EQ((a / 2.0).count_ns(), 5000);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_EQ((-a).count_ns(), -10000);
  Time c = a;
  c += b;
  EXPECT_EQ(c.count_ns(), 14000);
  c -= a;
  EXPECT_EQ(c, b);
}

TEST(Time, Comparisons) {
  EXPECT_LT(Time::us(1), Time::us(2));
  EXPECT_GE(Time::us(2), Time::us(2));
  EXPECT_TRUE(Time::zero().is_zero());
  EXPECT_TRUE(Time::ns(-1).is_negative());
  EXPECT_EQ(max(Time::us(1), Time::us(2)), Time::us(2));
  EXPECT_EQ(min(Time::us(1), Time::us(2)), Time::us(1));
}

TEST(Time, Rendering) {
  EXPECT_EQ(Time::ns(500).str(), "500 ns");
  EXPECT_NE(Time::us(12).str().find("us"), std::string::npos);
  EXPECT_NE(Time::ms(12).str().find("ms"), std::string::npos);
  EXPECT_NE(Time::sec(12).str().find("s"), std::string::npos);
}

// --- RNG --------------------------------------------------------------------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256ss a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Xoshiro256ss a2(42);
  for (int i = 0; i < 100; ++i)
    if (a2.next() != c.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Xoshiro, DoublesInRange) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, UniformRespectsBounds) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform(-3.0, 5.0);
    EXPECT_GE(d, -3.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(Xoshiro, NextBelowIsUnbiasedEnough) {
  Xoshiro256ss rng(11);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(Xoshiro, NormalHasReasonableMoments) {
  Xoshiro256ss rng(13);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(NasLcg, ValuesInUnitInterval) {
  NasLcg rng;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next();
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(NasLcg, SkipAheadMatchesSequentialDraws) {
  // Leapfrog property: skipping n steps equals drawing n values.
  NasLcg seq;
  for (int i = 0; i < 137; ++i) seq.next();
  const double jumped = NasLcg::skip_ahead(NasLcg::kDefaultSeed, 137);
  EXPECT_DOUBLE_EQ(seq.state(), jumped);
}

TEST(NasLcg, SkipAheadZeroIsIdentity) {
  EXPECT_DOUBLE_EQ(NasLcg::skip_ahead(12345.0, 0), 12345.0);
}

// NAS's double-arithmetic randlc, kept here as the oracle for NasLcg's
// integer arithmetic: x <- a*x mod 2^46 by 23-bit halves, returns x * 2^-46.
double randlc(double& x, double a) {
  constexpr double r23 = 0x1.0p-23, r46 = 0x1.0p-46;
  constexpr double t23 = 0x1.0p23, t46 = 0x1.0p46;
  const double a1 = static_cast<double>(static_cast<long long>(r23 * a));
  const double a2 = a - t23 * a1;
  const double x1 = static_cast<double>(static_cast<long long>(r23 * x));
  const double x2 = x - t23 * x1;
  const double t1 = a1 * x2 + a2 * x1;
  const double t2 = static_cast<double>(static_cast<long long>(r23 * t1));
  const double z = t1 - t23 * t2;
  const double t3 = t23 * z + a2 * x2;
  const double t4 = static_cast<double>(static_cast<long long>(r46 * t3));
  x = t3 - t46 * t4;
  return r46 * x;
}

constexpr double kA513 = 1220703125.0;  // 5^13

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(NasLcg, NextIsBitwiseRandlc) {
  for (double seed : {NasLcg::kDefaultSeed, 1.0, 314159265.0,
                      70368744177663.0 /* 2^46 - 1 */}) {
    NasLcg rng(seed);
    double x = seed;
    for (int i = 0; i < 1000000; ++i) {
      const double want = randlc(x, kA513);
      const double got = rng.next();
      ASSERT_EQ(bits(got), bits(want)) << "seed " << seed << " draw " << i;
    }
    EXPECT_EQ(bits(rng.state()), bits(x)) << "seed " << seed;
  }
}

TEST(NasLcg, SkipAheadIsBitwiseRandlcSteps) {
  for (double seed : {NasLcg::kDefaultSeed, 314159265.0}) {
    for (std::uint64_t n : {0ull, 1ull, 137ull, (1ull << 20) + 3}) {
      double x = seed;
      for (std::uint64_t i = 0; i < n; ++i) (void)randlc(x, kA513);
      EXPECT_EQ(bits(NasLcg::skip_ahead(seed, n)), bits(x))
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(ShuffleTest, IsPermutationAndDeterministic) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Xoshiro256ss r1(3), r2(3);
  auto a = v, b = v;
  shuffle(a, r1);
  shuffle(b, r2);
  EXPECT_EQ(a, b);
  std::sort(a.begin(), a.end());
  EXPECT_EQ(a, v);
}

// --- stats ------------------------------------------------------------------

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesCombinedStream) {
  Xoshiro256ss rng(5);
  RunningStat all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50), 7.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), Error);
  EXPECT_THROW(percentile({1.0}, 101), Error);
}

TEST(HistogramTest, BinsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // clamps to bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(15.0);  // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(4), 10.0);
}

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
  EXPECT_EQ(geomean({}), 0.0);
}

// --- table --------------------------------------------------------------

TEST(TableTest, AlignedTextOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.to_text();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"x,y", "quote\"inside"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TableTest, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1234.0, 4), "1234");
}

// --- chart --------------------------------------------------------------

TEST(Chart, RendersAllSeriesInLegend) {
  std::vector<Series> s{{"one", {1, 2, 3}}, {"two", {3, 2, 1}}};
  const std::string out = line_chart({1, 2, 4}, s);
  EXPECT_NE(out.find("one"), std::string::npos);
  EXPECT_NE(out.find("two"), std::string::npos);
}

TEST(Chart, RejectsMismatchedLengths) {
  EXPECT_THROW(line_chart({1, 2}, {{"x", {1.0}}}), Error);
  EXPECT_THROW(line_chart({}, {{"x", {}}}), Error);
}

TEST(Chart, HandlesFlatSeries) {
  const std::string out = line_chart({1, 2, 3}, {{"flat", {5, 5, 5}}});
  EXPECT_FALSE(out.empty());
}

// --- args --------------------------------------------------------------

TEST(Args, ParsesOptionsAndFlags) {
  ArgParser p("prog", "test");
  p.add_option("count", "3", "a count");
  p.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--count=7", "--verbose"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("count"), 7);
  EXPECT_TRUE(p.has("verbose"));
}

TEST(Args, SeparateValueForm) {
  ArgParser p("prog", "test");
  p.add_option("rate", "1.0", "a rate");
  const char* argv[] = {"prog", "--rate", "2.5"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 2.5);
}

TEST(Args, DefaultsApply) {
  ArgParser p("prog", "test");
  p.add_option("count", "3", "a count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("count"), 3);
}

TEST(Args, RejectsUnknownAndMalformed) {
  ArgParser p("prog", "test");
  p.add_option("count", "3", "a count");
  const char* bad1[] = {"prog", "--nope=1"};
  EXPECT_THROW(p.parse(2, bad1), Error);
  ArgParser q("prog", "test");
  q.add_option("count", "3", "a count");
  const char* bad2[] = {"prog", "--count=xyz"};
  ASSERT_TRUE(q.parse(2, bad2));
  EXPECT_THROW(q.get_int("count"), Error);
}

TEST(Args, HelpReturnsFalse) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Split, TrimsAndSplits) {
  const auto parts = split("a, b ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

// --- error macros --------------------------------------------------------

TEST(ErrorMacros, CheckAndRequireThrowWithContext) {
  try {
    XP_REQUIRE(false, "the reason");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the reason"), std::string::npos);
  }
  EXPECT_THROW(XP_CHECK(1 == 2, "impossible"), Error);
}

}  // namespace
}  // namespace xp::util
