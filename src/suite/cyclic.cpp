// Cyclic — parallel cyclic reduction of tridiagonal systems.
//
// All M equations are reduced simultaneously: at step s (s = 1, 2, 4, ...)
// equation i eliminates its couplings to i-s and i+s, so after log2(M)
// steps every equation is diagonal.  Each equation carries W independent
// right-hand sides (the same matrix solved for W vectors at once, as
// production cyclic-reduction kernels do), which sets the computation
// grain per remote transfer.  Neighbor distance doubles each step: early
// steps stay inside a thread's block, later steps are almost all remote —
// the communication structure that makes Cyclic's service-policy behaviour
// interesting in Figure 8.
#include <algorithm>
#include <cmath>
#include <vector>

#include "rt/collection.hpp"
#include "suite/reference.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xp::suite {

namespace {

struct Eq {
  double a = 0.0, b = 1.0, c = 0.0;
  std::vector<double> d;  // W right-hand sides
};

std::vector<Eq> make_system(std::int64_t m, int w) {
  std::vector<Eq> sys(static_cast<std::size_t>(m));
  util::Xoshiro256ss rng(0xC7C11Cull);
  for (auto& e : sys) {
    e.a = -1.0 + 0.2 * rng.next_double();
    e.b = 4.0 + rng.next_double();
    e.c = -1.0 + 0.2 * rng.next_double();
    e.d.resize(static_cast<std::size_t>(w));
    for (auto& v : e.d) v = rng.uniform(-1.0, 1.0);
  }
  sys.front().a = 0.0;
  sys.back().c = 0.0;
  return sys;
}

// One PCR combine; shared by the parallel kernel and the reference so the
// arithmetic (and therefore the verification) is bit-identical.
Eq combine(const Eq& e, const Eq* lo, const Eq* hi) {
  Eq out = e;
  if (lo != nullptr) {
    const double alpha = e.a / lo->b;
    out.a = -alpha * lo->a;
    out.b -= alpha * lo->c;
    for (std::size_t w = 0; w < out.d.size(); ++w) out.d[w] -= alpha * lo->d[w];
  } else {
    out.a = 0.0;
  }
  if (hi != nullptr) {
    const double gamma = e.c / hi->b;
    out.c = -gamma * hi->c;
    out.b -= gamma * hi->a;
    for (std::size_t w = 0; w < out.d.size(); ++w) out.d[w] -= gamma * hi->d[w];
  } else {
    out.c = 0.0;
  }
  return out;
}

// The fields the verify() reference reads.
struct CyclicKey {
  static constexpr const char* kProgram = "cyclic";
  std::int64_t size;
  int width;
  auto operator<=>(const CyclicKey&) const = default;
};

// Sequential PCR; returns x[i * width + w].
std::vector<double> solve_reference(const CyclicKey& key) {
  std::vector<Eq> cur = make_system(key.size, key.width);
  const std::int64_t m = key.size;
  std::vector<Eq> next(cur.size());
  for (std::int64_t s = 1; s < m; s *= 2) {
    for (std::int64_t i = 0; i < m; ++i) {
      const Eq* lo = i - s >= 0 ? &cur[static_cast<std::size_t>(i - s)] : nullptr;
      const Eq* hi = i + s < m ? &cur[static_cast<std::size_t>(i + s)] : nullptr;
      next[static_cast<std::size_t>(i)] =
          combine(cur[static_cast<std::size_t>(i)], lo, hi);
    }
    cur.swap(next);
  }
  std::vector<double> x;
  x.reserve(cur.size() * static_cast<std::size_t>(key.width));
  for (const Eq& e : cur)
    for (double d : e.d) x.push_back(d / e.b);
  return x;
}

class CyclicProgram final : public rt::Program {
 public:
  explicit CyclicProgram(const SuiteConfig& cfg)
      : m_(cfg.cyclic_size), w_(cfg.cyclic_width) {
    XP_REQUIRE(m_ >= 2 && (m_ & (m_ - 1)) == 0,
               "cyclic needs a power-of-two system size");
    XP_REQUIRE(w_ > 0, "cyclic needs a positive width");
  }

  std::string name() const override { return "cyclic"; }

  void setup(rt::Runtime& rt) override {
    const int n = rt.n_threads();
    const auto dist = rt::Distribution::d1(rt::Dist::Block, m_, n);
    // Declared transfer: three coefficients + the W-wide payload.
    eq_bytes_ = std::max(static_cast<std::int32_t>(3 * 8 + w_ * 8),
                         static_cast<std::int32_t>(sizeof(Eq)));
    for (auto& buf : bufs_)
      buf = std::make_unique<rt::Collection<Eq>>(rt, dist, eq_bytes_);
    const std::vector<Eq> sys = make_system(m_, w_);
    for (std::int64_t i = 0; i < m_; ++i) {
      bufs_[0]->init(i) = sys[static_cast<std::size_t>(i)];
      bufs_[1]->init(i).d.assign(static_cast<std::size_t>(w_), 0.0);
    }
  }

  void thread_main(rt::Runtime& rt) override {
    const auto mine = bufs_[0]->my_elements();
    const double flops = 10.0 + 4.0 * static_cast<double>(w_);
    int cur = 0;
    rt.barrier();
    for (std::int64_t s = 1; s < m_; s *= 2) {
      rt::Collection<Eq>& src = *bufs_[cur];
      rt::Collection<Eq>& dst = *bufs_[1 - cur];
      for (std::int64_t i : mine) {
        const Eq& e = src.get(i);
        const Eq* lo = i - s >= 0 ? &src.get(i - s, eq_bytes_) : nullptr;
        const Eq* hi = i + s < m_ ? &src.get(i + s, eq_bytes_) : nullptr;
        dst.local(i) = combine(e, lo, hi);
        rt.compute_flops(flops);
      }
      cur = 1 - cur;
      rt.barrier();
    }
    final_ = cur;
    rt.barrier();
  }

  void verify() override {
    const auto ref = shared_reference(CyclicKey{m_, w_}, solve_reference);
    const std::vector<double>& expect = *ref;
    XP_CHECK(expect.size() == static_cast<std::size_t>(m_ * w_),
             "cyclic: reference shape");
    for (std::int64_t i = 0; i < m_; ++i) {
      const Eq& e = bufs_[final_]->init(i);
      for (int w = 0; w < w_; ++w) {
        const double got = e.d[static_cast<std::size_t>(w)] / e.b;
        const double want = expect[static_cast<std::size_t>(i * w_ + w)];
        XP_REQUIRE(std::fabs(got - want) < 1e-12,
                   "cyclic: solution mismatch at " + std::to_string(i));
      }
    }
  }

 private:
  std::int64_t m_;
  int w_;
  std::int32_t eq_bytes_ = 0;
  std::unique_ptr<rt::Collection<Eq>> bufs_[2];
  int final_ = 0;
};

}  // namespace

std::unique_ptr<rt::Program> make_cyclic(const SuiteConfig& cfg) {
  return std::make_unique<CyclicProgram>(cfg);
}

}  // namespace xp::suite
