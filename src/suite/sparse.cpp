// Sparse — NAS-style random sparse conjugate gradient.
//
// CG iterations on a randomly structured, diagonally dominant sparse
// matrix.  Vectors are stored as per-thread segments; the sparse
// matrix-vector product fetches each remote segment of the direction
// vector once per iteration (the gather a distributed CG really performs),
// and the dot products funnel partial sums through thread 0 (reduction +
// broadcast hot spot) with four barriers per iteration.  Computation per
// thread shrinks with the thread count while the reduction/synchronization
// cost grows — the profile the paper's Figure 4 shows for Sparse.
//
// Verification replays the identical partitioned algorithm sequentially,
// including the thread-partitioned reduction order, so results match to
// round-off exactly.
#include <algorithm>
#include <cmath>
#include <vector>

#include "rt/collection.hpp"
#include "rt/collectives.hpp"
#include "suite/reference.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xp::suite {

namespace {

struct Entry {
  std::int64_t col;
  double val;
};

struct Matrix {
  std::int64_t m = 0;
  std::vector<std::vector<Entry>> rows;
};

struct Seg {
  std::vector<double> v;
};

Matrix make_matrix(std::int64_t m, int nnz_per_row) {
  Matrix a;
  a.m = m;
  a.rows.resize(static_cast<std::size_t>(m));
  util::Xoshiro256ss rng(0x5BA25Eull);
  for (std::int64_t i = 0; i < m; ++i) {
    auto& row = a.rows[static_cast<std::size_t>(i)];
    row.push_back({i, 8.0 + rng.next_double()});  // dominant diagonal
    for (int k = 1; k < nnz_per_row; ++k) {
      const std::int64_t j =
          static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(m)));
      if (j != i) row.push_back({j, -1.0 / nnz_per_row + 0.1 * rng.next_double()});
    }
  }
  return a;
}

std::vector<double> make_rhs(std::int64_t m) {
  std::vector<double> b(static_cast<std::size_t>(m));
  util::Xoshiro256ss rng(0xB0B5ull);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

// Block ranges matching the segment layout.
std::vector<std::pair<std::int64_t, std::int64_t>> ranges(std::int64_t m,
                                                          int n) {
  const std::int64_t per = (m + n - 1) / n;
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (int t = 0; t < n; ++t) {
    const std::int64_t lo = std::min<std::int64_t>(m, t * per);
    out.emplace_back(lo, std::min<std::int64_t>(m, lo + per));
  }
  return out;
}

// The fields the verify() reference reads.  The thread count is part of
// the key because the reference replays the thread-partitioned reduction
// order of the dot products.
struct SparseKey {
  static constexpr const char* kProgram = "sparse";
  std::int64_t size;
  int nnz_per_row, iters, n_threads;
  auto operator<=>(const SparseKey&) const = default;
};

// Sequential replica of the partitioned CG (identical operation order).
std::vector<double> cg_reference(const SparseKey& key) {
  const Matrix a = make_matrix(key.size, key.nnz_per_row);
  const std::vector<double> b = make_rhs(key.size);
  const std::int64_t m = a.m;
  const auto rg = ranges(m, key.n_threads);
  std::vector<double> x(static_cast<std::size_t>(m), 0.0);
  std::vector<double> r = b, p = b, q(static_cast<std::size_t>(m));

  auto dot = [&](const std::vector<double>& u, const std::vector<double>& v) {
    double total = 0.0;
    for (const auto& [lo, hi] : rg) {
      double part = 0.0;
      for (std::int64_t i = lo; i < hi; ++i)
        part += u[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
      total += part;
    }
    return total;
  };

  double rho = dot(r, r);
  for (int it = 0; it < key.iters; ++it) {
    for (std::int64_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (const Entry& e : a.rows[static_cast<std::size_t>(i)])
        s += e.val * p[static_cast<std::size_t>(e.col)];
      q[static_cast<std::size_t>(i)] = s;
    }
    const double alpha = rho / dot(p, q);
    for (std::int64_t i = 0; i < m; ++i) {
      x[static_cast<std::size_t>(i)] += alpha * p[static_cast<std::size_t>(i)];
      r[static_cast<std::size_t>(i)] -= alpha * q[static_cast<std::size_t>(i)];
    }
    const double rho_new = dot(r, r);
    const double beta = rho_new / rho;
    rho = rho_new;
    for (std::int64_t i = 0; i < m; ++i)
      p[static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(i)] + beta * p[static_cast<std::size_t>(i)];
  }
  return x;
}

class SparseProgram final : public rt::Program {
 public:
  explicit SparseProgram(const SuiteConfig& cfg)
      : m_(cfg.sparse_size),
        nnz_(cfg.sparse_nnz_per_row),
        iters_(cfg.sparse_iters) {
    XP_REQUIRE(m_ > 0 && nnz_ > 0 && iters_ > 0, "bad sparse configuration");
  }

  std::string name() const override { return "sparse"; }

  void setup(rt::Runtime& rt) override {
    n_ = rt.n_threads();
    a_ = make_matrix(m_, nnz_);
    rg_ = ranges(m_, n_);
    const std::int64_t per = (m_ + n_ - 1) / n_;
    seg_bytes_ = std::max(static_cast<std::int32_t>(per * 8),
                          static_cast<std::int32_t>(sizeof(Seg)));
    const auto dist = rt::Distribution::d1(rt::Dist::Block, n_, n_);
    x_ = std::make_unique<rt::Collection<Seg>>(rt, dist, seg_bytes_);
    r_ = std::make_unique<rt::Collection<Seg>>(rt, dist, seg_bytes_);
    p_ = std::make_unique<rt::Collection<Seg>>(rt, dist, seg_bytes_);
    q_ = std::make_unique<rt::Collection<Seg>>(rt, dist, seg_bytes_);
    scratch_ = std::make_unique<rt::Collection<double>>(rt, dist);
    const std::vector<double> b = make_rhs(m_);
    for (int t = 0; t < n_; ++t) {
      const auto [lo, hi] = rg_[static_cast<std::size_t>(t)];
      const auto len = static_cast<std::size_t>(hi - lo);
      x_->init(t).v.assign(len, 0.0);
      q_->init(t).v.assign(len, 0.0);
      r_->init(t).v.assign(b.begin() + static_cast<std::ptrdiff_t>(lo),
                           b.begin() + static_cast<std::ptrdiff_t>(hi));
      p_->init(t).v = r_->init(t).v;
      scratch_->init(t) = 0.0;
    }
  }

  void thread_main(rt::Runtime& rt) override {
    const int t = rt.thread_id();
    const auto [lo, hi] = rg_[static_cast<std::size_t>(t)];
    const std::int64_t len = hi - lo;

    // Distributed dot product: local partial + linear all-reduce (the
    // hot-spot reduction/broadcast through thread 0).
    auto dot = [&](rt::Collection<Seg>& u, rt::Collection<Seg>& v) {
      double part = 0.0;
      const auto& uv = u.local(t).v;
      const auto& vv = v.local(t).v;
      for (std::int64_t i = 0; i < len; ++i)
        part += uv[static_cast<std::size_t>(i)] * vv[static_cast<std::size_t>(i)];
      rt.compute_flops(2.0 * static_cast<double>(len));
      return rt::allreduce_linear(
          rt, *scratch_, part,
          [&rt](double a, double b) {
            rt.compute_flops(1.0);
            return a + b;
          },
          0.0);
    };

    double rho = dot(*r_, *r_);
    for (int it = 0; it < iters_; ++it) {
      // Gather the full direction vector: each remote segment once.
      std::vector<double> full_p(static_cast<std::size_t>(m_));
      for (int o = 0; o < n_; ++o) {
        const auto [olo, ohi] = rg_[static_cast<std::size_t>(o)];
        const Seg& seg =
            p_->get(o, static_cast<std::int32_t>((ohi - olo) * 8));
        std::copy(seg.v.begin(), seg.v.end(),
                  full_p.begin() + static_cast<std::ptrdiff_t>(olo));
      }
      // q = A p over my rows.
      auto& qv = q_->local(t).v;
      double flops = 0.0;
      for (std::int64_t i = lo; i < hi; ++i) {
        double s = 0.0;
        const auto& row = a_.rows[static_cast<std::size_t>(i)];
        for (const Entry& e : row)
          s += e.val * full_p[static_cast<std::size_t>(e.col)];
        qv[static_cast<std::size_t>(i - lo)] = s;
        flops += 2.0 * static_cast<double>(row.size());
      }
      rt.compute_flops(flops);
      rt.barrier();

      const double alpha = rho / dot(*p_, *q_);
      auto& xv = x_->local(t).v;
      auto& rv = r_->local(t).v;
      auto& pv = p_->local(t).v;
      for (std::int64_t i = 0; i < len; ++i) {
        xv[static_cast<std::size_t>(i)] += alpha * pv[static_cast<std::size_t>(i)];
        rv[static_cast<std::size_t>(i)] -= alpha * qv[static_cast<std::size_t>(i)];
      }
      rt.compute_flops(4.0 * static_cast<double>(len));
      rt.barrier();

      const double rho_new = dot(*r_, *r_);
      const double beta = rho_new / rho;
      rho = rho_new;
      for (std::int64_t i = 0; i < len; ++i)
        pv[static_cast<std::size_t>(i)] =
            rv[static_cast<std::size_t>(i)] + beta * pv[static_cast<std::size_t>(i)];
      rt.compute_flops(2.0 * static_cast<double>(len));
      rt.barrier();
    }
  }

  void verify() override {
    const auto ref =
        shared_reference(SparseKey{m_, nnz_, iters_, n_}, cg_reference);
    const std::vector<double>& expect = *ref;
    XP_CHECK(expect.size() == static_cast<std::size_t>(m_),
             "sparse: reference shape");
    for (int t = 0; t < n_; ++t) {
      const auto [lo, hi] = rg_[static_cast<std::size_t>(t)];
      for (std::int64_t i = lo; i < hi; ++i) {
        const double got = x_->init(t).v[static_cast<std::size_t>(i - lo)];
        XP_REQUIRE(
            std::fabs(got - expect[static_cast<std::size_t>(i)]) < 1e-9,
            "sparse: solution mismatch at row " + std::to_string(i));
      }
    }
  }

 private:
  std::int64_t m_;
  int nnz_;
  int iters_;
  int n_ = 1;
  Matrix a_;
  std::vector<std::pair<std::int64_t, std::int64_t>> rg_;
  std::int32_t seg_bytes_ = 0;
  std::unique_ptr<rt::Collection<Seg>> x_, r_, p_, q_;
  std::unique_ptr<rt::Collection<double>> scratch_;
};

}  // namespace

std::unique_ptr<rt::Program> make_sparse(const SuiteConfig& cfg) {
  return std::make_unique<SparseProgram>(cfg);
}

}  // namespace xp::suite
