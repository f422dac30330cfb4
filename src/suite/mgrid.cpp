// Mgrid — NAS-style multigrid V-cycles.
//
// A hierarchy of (Block, Block)-distributed grids (finest F x F, halving
// down to 4 x 4).  Each cell carries a depth-D column of values (NAS MG is
// a 3D kernel; the depth column is the third dimension), which sets the
// computation grain per remote cell transfer.  Each V-cycle smooths,
// restricts the residual, recurses, prolongates, and smooths again.
// Coarse levels have fewer cells than processors, so most processors idle
// through their barriers — raising the synchronization/communication share
// exactly the way the paper uses Mgrid to expose MipsRatio sensitivity
// (Figure 6 iv, Figure 7).
#include <algorithm>
#include <cmath>
#include <vector>

#include "rt/collection.hpp"
#include "suite/reference.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"

namespace xp::suite {

namespace {

constexpr int kPreSmooth = 2;
constexpr int kPostSmooth = 2;
constexpr int kCoarseSmooth = 4;

// Per-depth source weighting keeps the depth layers distinct.
double fine_source(std::int64_t i, std::int64_t j, int d, std::int64_t f) {
  const std::int64_t c = f / 2;
  const double w = 1.0 + 0.05 * static_cast<double>(d);
  if (i == c && j == c) return w;
  if (i == f / 4 && j == (3 * f) / 4) return -0.5 * w;
  return 0.0;
}

struct Cell {
  std::vector<double> z;  // depth column
};

// Sequential multigrid on one depth layer, mirroring the parallel point
// formulas exactly.
class Reference {
 public:
  Reference(std::int64_t finest, int cycles, int depth) {
    for (std::int64_t s = finest; s >= 4; s /= 2) sizes_.push_back(s);
    u_.assign(sizes_.size(), {});
    rhs_.assign(sizes_.size(), {});
    for (std::size_t l = 0; l < sizes_.size(); ++l) {
      u_[l].assign(static_cast<std::size_t>(sizes_[l] * sizes_[l]), 0.0);
      rhs_[l] = u_[l];
    }
    const std::int64_t f = sizes_[0];
    for (std::int64_t i = 0; i < f; ++i)
      for (std::int64_t j = 0; j < f; ++j)
        rhs_[0][static_cast<std::size_t>(i * f + j)] =
            fine_source(i, j, depth, f);
    for (int c = 0; c < cycles; ++c) vcycle(0);
  }

  const std::vector<double>& solution() const { return u_[0]; }

 private:
  double get(const std::vector<double>& v, std::int64_t s, std::int64_t i,
             std::int64_t j) {
    if (i < 0 || j < 0 || i >= s || j >= s) return 0.0;
    return v[static_cast<std::size_t>(i * s + j)];
  }

  void smooth(std::size_t l) {
    const std::int64_t s = sizes_[l];
    std::vector<double> next(u_[l].size());
    for (std::int64_t i = 0; i < s; ++i)
      for (std::int64_t j = 0; j < s; ++j)
        next[static_cast<std::size_t>(i * s + j)] =
            0.25 * (get(u_[l], s, i - 1, j) + get(u_[l], s, i + 1, j) +
                    get(u_[l], s, i, j - 1) + get(u_[l], s, i, j + 1) +
                    rhs_[l][static_cast<std::size_t>(i * s + j)]);
    u_[l].swap(next);
  }

  void vcycle(std::size_t l) {
    if (l + 1 == sizes_.size()) {
      for (int k = 0; k < kCoarseSmooth; ++k) smooth(l);
      return;
    }
    for (int k = 0; k < kPreSmooth; ++k) smooth(l);
    const std::int64_t s = sizes_[l], cs = sizes_[l + 1];
    std::vector<double> res(u_[l].size());
    for (std::int64_t i = 0; i < s; ++i)
      for (std::int64_t j = 0; j < s; ++j)
        res[static_cast<std::size_t>(i * s + j)] =
            rhs_[l][static_cast<std::size_t>(i * s + j)] -
            (4.0 * get(u_[l], s, i, j) - get(u_[l], s, i - 1, j) -
             get(u_[l], s, i + 1, j) - get(u_[l], s, i, j - 1) -
             get(u_[l], s, i, j + 1));
    for (std::int64_t i = 0; i < cs; ++i)
      for (std::int64_t j = 0; j < cs; ++j) {
        rhs_[l + 1][static_cast<std::size_t>(i * cs + j)] =
            0.25 * (get(res, s, 2 * i, 2 * j) + get(res, s, 2 * i + 1, 2 * j) +
                    get(res, s, 2 * i, 2 * j + 1) +
                    get(res, s, 2 * i + 1, 2 * j + 1));
        u_[l + 1][static_cast<std::size_t>(i * cs + j)] = 0.0;
      }
    vcycle(l + 1);
    for (std::int64_t i = 0; i < s; ++i)
      for (std::int64_t j = 0; j < s; ++j)
        u_[l][static_cast<std::size_t>(i * s + j)] +=
            u_[l + 1][static_cast<std::size_t>((i / 2) * cs + (j / 2))];
    for (int k = 0; k < kPostSmooth; ++k) smooth(l);
  }

  std::vector<std::int64_t> sizes_;
  std::vector<std::vector<double>> u_, rhs_;
};

// The fields the verify() reference reads.
struct MgridKey {
  static constexpr const char* kProgram = "mgrid";
  std::int64_t size;
  int cycles, depth;
  auto operator<=>(const MgridKey&) const = default;
};

// Every depth layer's sequential solution, layer d at index d.
std::vector<std::vector<double>> layered_reference(const MgridKey& key) {
  std::vector<std::vector<double>> layers;
  layers.reserve(static_cast<std::size_t>(key.depth));
  for (int d = 0; d < key.depth; ++d)
    layers.push_back(Reference(key.size, key.cycles, d).solution());
  return layers;
}

class MgridProgram final : public rt::Program {
 public:
  explicit MgridProgram(const SuiteConfig& cfg)
      : finest_(cfg.mgrid_size),
        depth_(cfg.mgrid_depth),
        cycles_(cfg.mgrid_cycles) {
    XP_REQUIRE(finest_ >= 8 && (finest_ & (finest_ - 1)) == 0,
               "mgrid needs a power-of-two finest grid >= 8");
    XP_REQUIRE(depth_ > 0, "mgrid needs a positive depth");
    XP_REQUIRE(cycles_ > 0, "mgrid needs at least one cycle");
  }

  std::string name() const override { return "mgrid"; }

  void setup(rt::Runtime& rt) override {
    const int n = rt.n_threads();
    cell_bytes_ = std::max(static_cast<std::int32_t>(depth_ * 8),
                           static_cast<std::int32_t>(sizeof(Cell)));
    zeros_.assign(static_cast<std::size_t>(depth_), 0.0);
    levels_.clear();
    for (std::int64_t s = finest_; s >= 4; s /= 2) {
      Level lv;
      lv.size = s;
      const auto dist =
          rt::Distribution::d2(rt::Dist::Block, rt::Dist::Block, s, s, n);
      lv.u[0] = std::make_unique<rt::Collection<Cell>>(rt, dist, cell_bytes_);
      lv.u[1] = std::make_unique<rt::Collection<Cell>>(rt, dist, cell_bytes_);
      lv.rhs = std::make_unique<rt::Collection<Cell>>(rt, dist, cell_bytes_);
      lv.res = std::make_unique<rt::Collection<Cell>>(rt, dist, cell_bytes_);
      for (std::int64_t e = 0; e < s * s; ++e) {
        lv.u[0]->init(e).z.assign(static_cast<std::size_t>(depth_), 0.0);
        lv.u[1]->init(e).z.assign(static_cast<std::size_t>(depth_), 0.0);
        lv.rhs->init(e).z.assign(static_cast<std::size_t>(depth_), 0.0);
        lv.res->init(e).z.assign(static_cast<std::size_t>(depth_), 0.0);
      }
      levels_.push_back(std::move(lv));
    }
    const std::int64_t f = finest_;
    for (std::int64_t i = 0; i < f; ++i)
      for (std::int64_t j = 0; j < f; ++j)
        for (int d = 0; d < depth_; ++d)
          levels_[0].rhs->init_rc(i, j).z[static_cast<std::size_t>(d)] =
              fine_source(i, j, d, f);
  }

  void thread_main(rt::Runtime& rt) override {
    // Buffer parity per level is thread-local control-flow state; every
    // thread follows the identical cycle structure.
    std::vector<int> parity(levels_.size(), 0);
    for (int c = 0; c < cycles_; ++c) vcycle(rt, 0, parity);
    final_parity_ = parity[0];
    rt.barrier();
  }

  void verify() override {
    const std::int64_t f = finest_;
    const auto ref = shared_reference(MgridKey{finest_, cycles_, depth_},
                                      layered_reference);
    XP_CHECK(ref->size() == static_cast<std::size_t>(depth_) &&
                 ref->front().size() == static_cast<std::size_t>(f * f),
             "mgrid: reference shape");
    for (int d = 0; d < depth_; ++d) {
      const std::vector<double>& layer = (*ref)[static_cast<std::size_t>(d)];
      for (std::int64_t i = 0; i < f; ++i)
        for (std::int64_t j = 0; j < f; ++j) {
          const double got = levels_[0]
                                 .u[final_parity_]
                                 ->init_rc(i, j)
                                 .z[static_cast<std::size_t>(d)];
          const double want = layer[static_cast<std::size_t>(i * f + j)];
          XP_REQUIRE(std::fabs(got - want) < 1e-12,
                     "mgrid: mismatch at (" + std::to_string(i) + "," +
                         std::to_string(j) + ") depth " + std::to_string(d));
        }
    }
  }

 private:
  struct Level {
    std::int64_t size = 0;
    std::unique_ptr<rt::Collection<Cell>> u[2];
    std::unique_ptr<rt::Collection<Cell>> rhs;
    std::unique_ptr<rt::Collection<Cell>> res;
  };

  /// Neighbor cell's depth column, or the zero column outside the domain
  /// (zero boundary).
  const double* edge(rt::Collection<Cell>& c, std::int64_t s, std::int64_t i,
                     std::int64_t j) {
    if (i < 0 || j < 0 || i >= s || j >= s) return zeros_.data();
    return c.get_rc(i, j, cell_bytes_).z.data();
  }

  void smooth(rt::Runtime& rt, Level& lv, int& parity) {
    rt::Collection<Cell>& src = *lv.u[parity];
    rt::Collection<Cell>& dst = *lv.u[1 - parity];
    const auto& mine = src.my_elements();
    for (std::int64_t e : mine) {
      const std::int64_t i = e / lv.size, j = e % lv.size;
      const double* up = edge(src, lv.size, i - 1, j);
      const double* dn = edge(src, lv.size, i + 1, j);
      const double* lf = edge(src, lv.size, i, j - 1);
      const double* rg = edge(src, lv.size, i, j + 1);
      const double* rhs = lv.rhs->get(e).z.data();
      double* out = dst.local(e).z.data();
      for (int d = 0; d < depth_; ++d)
        out[d] = 0.25 * (up[d] + dn[d] + lf[d] + rg[d] + rhs[d]);
    }
    rt.compute_flops(5.0 * static_cast<double>(depth_) *
                     static_cast<double>(mine.size()));
    parity = 1 - parity;
    rt.barrier();
  }

  void vcycle(rt::Runtime& rt, std::size_t l, std::vector<int>& parity) {
    Level& lv = levels_[l];
    if (l + 1 == levels_.size()) {
      for (int k = 0; k < kCoarseSmooth; ++k) smooth(rt, lv, parity[l]);
      return;
    }
    for (int k = 0; k < kPreSmooth; ++k) smooth(rt, lv, parity[l]);

    // Residual on this level.
    {
      rt::Collection<Cell>& u = *lv.u[parity[l]];
      const auto& mine = u.my_elements();
      for (std::int64_t e : mine) {
        const std::int64_t i = e / lv.size, j = e % lv.size;
        const double* up = edge(u, lv.size, i - 1, j);
        const double* dn = edge(u, lv.size, i + 1, j);
        const double* lf = edge(u, lv.size, i, j - 1);
        const double* rg = edge(u, lv.size, i, j + 1);
        const double* me = u.get(e).z.data();
        const double* rhs = lv.rhs->get(e).z.data();
        double* out = lv.res->local(e).z.data();
        for (int d = 0; d < depth_; ++d)
          out[d] = rhs[d] - (4.0 * me[d] - up[d] - dn[d] - lf[d] - rg[d]);
      }
      rt.compute_flops(8.0 * static_cast<double>(depth_) *
                       static_cast<double>(mine.size()));
      rt.barrier();
    }

    // Restrict to the coarser level; reset its solution.
    Level& cl = levels_[l + 1];
    {
      const auto& mine = cl.rhs->my_elements();
      for (std::int64_t e : mine) {
        const std::int64_t i = e / cl.size, j = e % cl.size;
        const double* c00 = lv.res->get_rc(2 * i, 2 * j, cell_bytes_).z.data();
        const double* c10 =
            lv.res->get_rc(2 * i + 1, 2 * j, cell_bytes_).z.data();
        const double* c01 =
            lv.res->get_rc(2 * i, 2 * j + 1, cell_bytes_).z.data();
        const double* c11 =
            lv.res->get_rc(2 * i + 1, 2 * j + 1, cell_bytes_).z.data();
        double* out = cl.rhs->local(e).z.data();
        double* u0 = cl.u[0]->local(e).z.data();
        double* u1 = cl.u[1]->local(e).z.data();
        for (int d = 0; d < depth_; ++d) {
          out[d] = 0.25 * (c00[d] + c10[d] + c01[d] + c11[d]);
          u0[d] = 0.0;
          u1[d] = 0.0;
        }
      }
      rt.compute_flops(4.0 * static_cast<double>(depth_) *
                       static_cast<double>(mine.size()));
      parity[l + 1] = 0;
      rt.barrier();
    }

    vcycle(rt, l + 1, parity);

    // Prolongate the coarse correction up.
    {
      rt::Collection<Cell>& u = *lv.u[parity[l]];
      rt::Collection<Cell>& cu = *cl.u[parity[l + 1]];
      const auto& mine = u.my_elements();
      for (std::int64_t e : mine) {
        const std::int64_t i = e / lv.size, j = e % lv.size;
        const double* c = cu.get_rc(i / 2, j / 2, cell_bytes_).z.data();
        double* out = u.local(e).z.data();
        for (int d = 0; d < depth_; ++d) out[d] += c[d];
      }
      rt.compute_flops(static_cast<double>(depth_) *
                       static_cast<double>(mine.size()));
      rt.barrier();
    }

    for (int k = 0; k < kPostSmooth; ++k) smooth(rt, lv, parity[l]);
  }

  std::int64_t finest_;
  int depth_;
  int cycles_;
  std::int32_t cell_bytes_ = 0;
  std::vector<Level> levels_;
  std::vector<double> zeros_;  ///< the zero depth column beyond the domain
  int final_parity_ = 0;
};

}  // namespace

std::unique_ptr<rt::Program> make_mgrid(const SuiteConfig& cfg) {
  return std::make_unique<MgridProgram>(cfg);
}

}  // namespace xp::suite
