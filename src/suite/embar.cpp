// Embar — the NAS "embarrassingly parallel" benchmark.
//
// Each thread generates its share of uniform pseudorandom pairs with the
// NAS 46-bit LCG (leapfrogged so every thread count produces the same
// global stream), converts accepted pairs to Gaussian deviates by the
// Marsaglia polar method, and tallies them into ten annuli.  One terminal
// reduction (thread 0 gathers the per-thread partials) is the only
// communication, so extrapolated speedup should stay near-linear under any
// reasonable parameter set — the paper's Figure 4 anchor.
#include <array>
#include <cmath>

#include "rt/collection.hpp"
#include "suite/reference.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xp::suite {

namespace {

constexpr int kAnnuli = 10;
constexpr double kFlopsPerPair = 8.0;
constexpr double kFlopsPerAccept = 20.0;

struct Partial {
  double sx = 0.0;
  double sy = 0.0;
  std::array<double, kAnnuli> counts{};
};

struct Totals {
  double sx = 0.0, sy = 0.0;
  std::array<double, kAnnuli> counts{};
  std::int64_t accepted = 0;

  bool operator==(const Totals&) const = default;
};

// Generate pairs [first, last) of the global stream and tally.
Totals run_range(std::int64_t first, std::int64_t last) {
  Totals t;
  util::NasLcg rng(util::NasLcg::skip_ahead(util::NasLcg::kDefaultSeed,
                                            2 * static_cast<std::uint64_t>(first)));
  for (std::int64_t i = first; i < last; ++i) {
    const double x = 2.0 * rng.next() - 1.0;
    const double y = 2.0 * rng.next() - 1.0;
    const double s = x * x + y * y;
    if (s <= 1.0 && s != 0.0) {
      const double f = std::sqrt(-2.0 * std::log(s) / s);
      const double gx = x * f, gy = y * f;
      const int l = static_cast<int>(std::max(std::fabs(gx), std::fabs(gy)));
      if (l < kAnnuli) {
        t.counts[static_cast<std::size_t>(l)] += 1.0;
        t.sx += gx;
        t.sy += gy;
        ++t.accepted;
      }
    }
  }
  return t;
}

// The fields the verify() reference reads.
struct EmbarKey {
  static constexpr const char* kProgram = "embar";
  std::int64_t pairs;
  auto operator<=>(const EmbarKey&) const = default;
};

Totals sequential_reference(const EmbarKey& k) { return run_range(0, k.pairs); }

class EmbarProgram final : public rt::Program {
 public:
  explicit EmbarProgram(const SuiteConfig& cfg) : pairs_(cfg.embar_pairs) {
    XP_REQUIRE(pairs_ > 0, "embar needs a positive pair count");
  }

  std::string name() const override { return "embar"; }

  void setup(rt::Runtime& rt) override {
    n_ = rt.n_threads();
    partials_ = std::make_unique<rt::Collection<Partial>>(
        rt, rt::Distribution::d1(rt::Dist::Block, n_, n_));
    result_ = Totals{};
  }

  void thread_main(rt::Runtime& rt) override {
    const int t = rt.thread_id();
    const std::int64_t per = (pairs_ + n_ - 1) / n_;
    const std::int64_t first = std::min<std::int64_t>(pairs_, t * per);
    const std::int64_t last = std::min<std::int64_t>(pairs_, first + per);

    const Totals mine = run_range(first, last);
    rt.compute_flops(kFlopsPerPair * static_cast<double>(last - first) +
                     kFlopsPerAccept * static_cast<double>(mine.accepted));

    Partial& p = partials_->local(t);
    p.sx = mine.sx;
    p.sy = mine.sy;
    p.counts = mine.counts;

    rt.barrier();

    if (t == 0) {
      Totals total;
      for (int o = 0; o < n_; ++o) {
        const Partial& q = partials_->get(o, sizeof(Partial));
        total.sx += q.sx;
        total.sy += q.sy;
        for (int l = 0; l < kAnnuli; ++l) {
          total.counts[static_cast<std::size_t>(l)] +=
              q.counts[static_cast<std::size_t>(l)];
          total.accepted += static_cast<std::int64_t>(
              q.counts[static_cast<std::size_t>(l)]);
        }
        rt.compute_flops(2.0 + kAnnuli);
      }
      result_ = total;
    }
    rt.barrier();
  }

  void verify() override {
    const auto ref = shared_reference(EmbarKey{pairs_}, sequential_reference);
    const Totals& expect = *ref;
    XP_REQUIRE(result_.counts == expect.counts,
               "embar: annulus counts do not match sequential reference");
    XP_REQUIRE(std::fabs(result_.sx - expect.sx) < 1e-9 &&
                   std::fabs(result_.sy - expect.sy) < 1e-9,
               "embar: deviate sums do not match sequential reference");
  }

 private:
  std::int64_t pairs_;
  int n_ = 0;
  std::unique_ptr<rt::Collection<Partial>> partials_;
  Totals result_;
};

}  // namespace

std::unique_ptr<rt::Program> make_embar(const SuiteConfig& cfg) {
  return std::make_unique<EmbarProgram>(cfg);
}

}  // namespace xp::suite
