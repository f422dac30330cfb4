// Poisson — fast Poisson solver.
//
// Classic transform method on an M x M grid: discrete sine transform along
// the rows (local, since rows are Block-distributed), full transpose (an
// all-to-all burst of remote element reads), tridiagonal solves along the
// transformed direction (local after the transpose), transpose back, and
// the inverse transform.  Computation is O(M^2) per row transform versus
// O(M^2) total communication, so speedup holds up until the transpose
// traffic bites at high processor counts (Figure 6's "growing communication
// bottleneck in Poisson is not significant until 32 processors").
#include <cmath>
#include <numbers>
#include <vector>

#include "rt/collection.hpp"
#include "suite/reference.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xp::suite {

namespace {

std::vector<double> make_rhs(std::int64_t m) {
  std::vector<double> f(static_cast<std::size_t>(m * m));
  util::Xoshiro256ss rng(0x90155ull);
  for (auto& v : f) v = rng.uniform(-1.0, 1.0);
  return f;
}

// Sine-transform coefficient sin(pi (j+1)(k+1) / (M+1)).
double dst_coeff(std::int64_t j, std::int64_t k, std::int64_t m) {
  return std::sin(std::numbers::pi * static_cast<double>((j + 1) * (k + 1)) /
                  static_cast<double>(m + 1));
}

// Row-major sine transform of one row (naive O(M^2), as charged), reading
// the coefficients from the M x M table `coeff` (row k holds output k's).
void dst_row(const double* in, double* out, const double* coeff,
             std::int64_t m) {
  for (std::int64_t k = 0; k < m; ++k) {
    const double* row = coeff + k * m;
    double s = 0.0;
    for (std::int64_t j = 0; j < m; ++j) s += in[j] * row[j];
    out[k] = s;
  }
}

// The same transform evaluating every coefficient directly — the
// reference's independent check on the table the kernel reads.
void dst_row_direct(const double* in, double* out, std::int64_t m) {
  for (std::int64_t k = 0; k < m; ++k) {
    double s = 0.0;
    for (std::int64_t j = 0; j < m; ++j) s += in[j] * dst_coeff(j, k, m);
    out[k] = s;
  }
}

// Solve the tridiagonal system for transformed column k (stored as a row
// after the transpose): (lambda_k) x_i - x_{i-1} - x_{i+1} = f_i with
// lambda_k = 4 - 2 cos(pi (k+1) / (M+1)) ... using the Thomas algorithm.
void thomas_row(double* f, std::int64_t m, std::int64_t k) {
  const double lambda =
      4.0 - 2.0 * std::cos(std::numbers::pi * static_cast<double>(k + 1) /
                           static_cast<double>(m + 1));
  std::vector<double> c(static_cast<std::size_t>(m));
  // forward sweep with a = c = -1, b = lambda
  c[0] = -1.0 / lambda;
  f[0] = f[0] / lambda;
  for (std::int64_t i = 1; i < m; ++i) {
    const double denom = lambda + c[static_cast<std::size_t>(i - 1)];
    c[static_cast<std::size_t>(i)] = -1.0 / denom;
    f[i] = (f[i] + f[i - 1]) / denom;
  }
  for (std::int64_t i = m - 2; i >= 0; --i)
    f[i] -= c[static_cast<std::size_t>(i)] * f[i + 1];
}

// The field the verify() reference reads.
struct PoissonKey {
  static constexpr const char* kProgram = "poisson";
  std::int64_t size;
  auto operator<=>(const PoissonKey&) const = default;
};

// Sequential replica with the identical phase structure and arithmetic.
std::vector<double> reference(const PoissonKey& key) {
  const std::int64_t m = key.size;
  std::vector<double> a = make_rhs(m);
  std::vector<double> b(a.size()), t(a.size());
  for (std::int64_t i = 0; i < m; ++i)
    dst_row_direct(&a[static_cast<std::size_t>(i * m)],
                   &b[static_cast<std::size_t>(i * m)], m);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < m; ++j)
      t[static_cast<std::size_t>(i * m + j)] =
          b[static_cast<std::size_t>(j * m + i)];
  for (std::int64_t k = 0; k < m; ++k)
    thomas_row(&t[static_cast<std::size_t>(k * m)], m, k);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < m; ++j)
      b[static_cast<std::size_t>(i * m + j)] =
          t[static_cast<std::size_t>(j * m + i)];
  for (std::int64_t i = 0; i < m; ++i)
    dst_row_direct(&b[static_cast<std::size_t>(i * m)],
                   &a[static_cast<std::size_t>(i * m)], m);
  const double scale = 2.0 / static_cast<double>(m + 1);
  for (auto& v : a) v *= scale;
  return a;
}

struct Row {
  std::vector<double> v;
};

class PoissonProgram final : public rt::Program {
 public:
  explicit PoissonProgram(const SuiteConfig& cfg) : m_(cfg.poisson_size) {
    XP_REQUIRE(m_ >= 4, "poisson needs m >= 4");
  }

  std::string name() const override { return "poisson"; }

  void setup(rt::Runtime& rt) override {
    const int n = rt.n_threads();
    const auto dist = rt::Distribution::d1(rt::Dist::Block, m_, n);
    // Declared element size = a whole row of doubles (what the compiler
    // would request without the partial-transfer optimization).
    const auto row_bytes = static_cast<std::int32_t>(m_ * 8);
    a_ = std::make_unique<rt::Collection<Row>>(rt, dist, row_bytes);
    b_ = std::make_unique<rt::Collection<Row>>(rt, dist, row_bytes);
    t_ = std::make_unique<rt::Collection<Row>>(rt, dist, row_bytes);
    const std::vector<double> f = make_rhs(m_);
    for (std::int64_t i = 0; i < m_; ++i) {
      a_->init(i).v.assign(f.begin() + static_cast<std::ptrdiff_t>(i * m_),
                           f.begin() + static_cast<std::ptrdiff_t>((i + 1) * m_));
      b_->init(i).v.assign(static_cast<std::size_t>(m_), 0.0);
      t_->init(i).v.assign(static_cast<std::size_t>(m_), 0.0);
    }
    coeff_.resize(static_cast<std::size_t>(m_ * m_));
    for (std::int64_t k = 0; k < m_; ++k)
      for (std::int64_t j = 0; j < m_; ++j)
        coeff_[static_cast<std::size_t>(k * m_ + j)] = dst_coeff(j, k, m_);
  }

  void thread_main(rt::Runtime& rt) override {
    const auto mine = a_->my_elements();
    const double row_flops = 2.0 * static_cast<double>(m_ * m_);
    rt.barrier();

    // Forward transform (local rows).
    for (std::int64_t i : mine) {
      dst_row(a_->local(i).v.data(), b_->local(i).v.data(), coeff_.data(), m_);
      rt.compute_flops(row_flops);
    }
    rt.barrier();

    // Transpose b -> t: element (j) of my row i comes from row j.
    transpose(rt, *b_, *t_, mine);

    // Tridiagonal solves along the transformed direction (local rows now).
    for (std::int64_t k : mine) {
      thomas_row(t_->local(k).v.data(), m_, k);
      rt.compute_flops(8.0 * static_cast<double>(m_));
    }
    rt.barrier();

    // Transpose back into b, inverse transform into a.
    transpose(rt, *t_, *b_, mine);
    const double scale = 2.0 / static_cast<double>(m_ + 1);
    for (std::int64_t i : mine) {
      dst_row(b_->local(i).v.data(), a_->local(i).v.data(), coeff_.data(), m_);
      for (std::int64_t j = 0; j < m_; ++j)
        a_->local(i).v[static_cast<std::size_t>(j)] *= scale;
      rt.compute_flops(row_flops + static_cast<double>(m_));
    }
    rt.barrier();
  }

  void verify() override {
    const auto ref = shared_reference(PoissonKey{m_}, reference);
    const std::vector<double>& expect = *ref;
    XP_CHECK(expect.size() == static_cast<std::size_t>(m_ * m_),
             "poisson: reference shape");
    for (std::int64_t i = 0; i < m_; ++i)
      for (std::int64_t j = 0; j < m_; ++j) {
        const double got = a_->init(i).v[static_cast<std::size_t>(j)];
        const double want = expect[static_cast<std::size_t>(i * m_ + j)];
        XP_REQUIRE(std::fabs(got - want) < 1e-9,
                   "poisson: mismatch at (" + std::to_string(i) + "," +
                       std::to_string(j) + ")");
      }
  }

 private:
  void transpose(rt::Runtime& rt, rt::Collection<Row>& src,
                 rt::Collection<Row>& dst,
                 const std::vector<std::int64_t>& mine) {
    // Fetch each source row once and extract every column this thread
    // needs from it — the segment transfer a real transpose performs
    // (|mine| values, 8 bytes each, per source row).
    const auto seg_bytes = static_cast<std::int32_t>(mine.size() * 8);
    for (std::int64_t j = 0; !mine.empty() && j < m_; ++j) {
      const Row& srow = src.get(j, seg_bytes);
      for (std::int64_t i : mine)
        dst.local(i).v[static_cast<std::size_t>(j)] =
            srow.v[static_cast<std::size_t>(i)];
    }
    rt.barrier();
  }

  std::int64_t m_;
  std::unique_ptr<rt::Collection<Row>> a_, b_, t_;
  std::vector<double> coeff_;  ///< sine-transform table, built in setup()
};

}  // namespace

std::unique_ptr<rt::Program> make_poisson(const SuiteConfig& cfg) {
  return std::make_unique<PoissonProgram>(cfg);
}

}  // namespace xp::suite
