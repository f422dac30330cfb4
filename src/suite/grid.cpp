// Grid — Poisson equation on a two-dimensional grid (Jacobi relaxation).
//
// The domain is a GxG grid of BxB-point blocks; the block grid is a
// (Block, Block)-distributed 2D collection, so non-perfect-square
// processor counts leave processors idle (the paper's 4->8 artifact).
// Each sweep a block reads the adjacent boundary line of its four
// neighbors — 128 actual bytes for a 16-point edge — plus a 2-byte
// iteration-control word from thread 0's control element.  The collection
// declares the paper's 231456-byte element size, so extrapolating with
// TransferSizeMode::Declared reproduces the §4.1 mis-measurement and
// ::Actual the corrected one (Figure 5).
#include <cmath>
#include <vector>

#include "rt/collection.hpp"
#include "suite/reference.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"

namespace xp::suite {

namespace {

struct Block {
  std::vector<double> v;  // BxB points, row-major
};

struct Control {
  std::int16_t iter = 0;  // the 2-byte status word of §4.1
};

// Source term: a point charge near the domain center.
double source(std::int64_t gi, std::int64_t gj, std::int64_t points) {
  const std::int64_t c = points / 2;
  return (gi == c && gj == c) ? 1.0 : 0.0;
}

// The fields the verify() reference reads.
struct GridKey {
  static constexpr const char* kProgram = "grid";
  std::int64_t blocks, block_points;
  int iters;
  auto operator<=>(const GridKey&) const = default;
};

// Sequential Jacobi on the flat grid, identical update formula; returns the
// final iterate, row-major over (blocks * block_points)^2 points.
std::vector<double> jacobi_reference(const GridKey& k) {
  const std::int64_t pts = k.blocks * k.block_points;
  std::vector<double> a(static_cast<std::size_t>(pts * pts), 0.0), na = a;
  auto at = [&](std::vector<double>& v, std::int64_t i,
                std::int64_t j) -> double& {
    return v[static_cast<std::size_t>(i * pts + j)];
  };
  for (int it = 0; it < k.iters; ++it) {
    for (std::int64_t i = 0; i < pts; ++i)
      for (std::int64_t j = 0; j < pts; ++j) {
        const double up = i > 0 ? at(a, i - 1, j) : 0.0;
        const double dn = i + 1 < pts ? at(a, i + 1, j) : 0.0;
        const double lf = j > 0 ? at(a, i, j - 1) : 0.0;
        const double rg = j + 1 < pts ? at(a, i, j + 1) : 0.0;
        at(na, i, j) = 0.25 * (up + dn + lf + rg + source(i, j, pts));
      }
    a.swap(na);
  }
  return a;
}

class GridProgram final : public rt::Program {
 public:
  explicit GridProgram(const SuiteConfig& cfg)
      : g_(cfg.grid_blocks),
        b_(cfg.grid_block_points),
        iters_(cfg.grid_iters),
        declared_(cfg.grid_declared_bytes) {
    XP_REQUIRE(g_ > 0 && b_ > 1 && iters_ > 0, "bad grid configuration");
  }

  std::string name() const override { return "grid"; }

  void setup(rt::Runtime& rt) override {
    const int n = rt.n_threads();
    const auto dist =
        rt::Distribution::d2(rt::Dist::Block, rt::Dist::Block, g_, g_, n);
    for (auto& u : u_)
      u = std::make_unique<rt::Collection<Block>>(rt, dist, declared_);
    control_ = std::make_unique<rt::Collection<Control>>(
        rt, rt::Distribution::d1(rt::Dist::Block, 1, n));
    for (std::int64_t e = 0; e < g_ * g_; ++e) {
      u_[0]->init(e).v.assign(static_cast<std::size_t>(b_ * b_), 0.0);
      u_[1]->init(e).v.assign(static_cast<std::size_t>(b_ * b_), 0.0);
    }
    control_->init(0).iter = 0;
  }

  void thread_main(rt::Runtime& rt) override {
    const auto mine = u_[0]->my_elements();
    const std::int32_t edge_bytes = static_cast<std::int32_t>(b_ * 8);
    int cur = 0;
    rt.barrier();
    struct Ghost {
      std::vector<double> north, south, west, east;
    };
    std::vector<Ghost> ghosts(mine.size());
    for (int it = 0; it < iters_; ++it) {
      // The 2-byte iteration-control read (mirrors §4.1's small transfer).
      (void)control_->get(0, sizeof(Control));
      rt::Collection<Block>& src = *u_[cur];
      rt::Collection<Block>& dst = *u_[1 - cur];

      // Gather phase: fetch every neighbor boundary line up front (the
      // data-parallel phase structure — all remote traffic happens in one
      // burst before the computation), zero at the domain edge.
      for (std::size_t bi = 0; bi < mine.size(); ++bi) {
        const std::int64_t e = mine[bi];
        const std::int64_t br = e / g_, bc = e % g_;
        Ghost& gh = ghosts[bi];
        gh.north.assign(static_cast<std::size_t>(b_), 0.0);
        gh.south.assign(static_cast<std::size_t>(b_), 0.0);
        gh.west.assign(static_cast<std::size_t>(b_), 0.0);
        gh.east.assign(static_cast<std::size_t>(b_), 0.0);
        if (br > 0) {
          const Block& nb = src.get_rc(br - 1, bc, edge_bytes);
          for (std::int64_t j = 0; j < b_; ++j)
            gh.north[static_cast<std::size_t>(j)] =
                nb.v[static_cast<std::size_t>((b_ - 1) * b_ + j)];
        }
        if (br + 1 < g_) {
          const Block& sb = src.get_rc(br + 1, bc, edge_bytes);
          for (std::int64_t j = 0; j < b_; ++j)
            gh.south[static_cast<std::size_t>(j)] =
                sb.v[static_cast<std::size_t>(j)];
        }
        if (bc > 0) {
          const Block& wb = src.get_rc(br, bc - 1, edge_bytes);
          for (std::int64_t i = 0; i < b_; ++i)
            gh.west[static_cast<std::size_t>(i)] =
                wb.v[static_cast<std::size_t>(i * b_ + b_ - 1)];
        }
        if (bc + 1 < g_) {
          const Block& eb = src.get_rc(br, bc + 1, edge_bytes);
          for (std::int64_t i = 0; i < b_; ++i)
            gh.east[static_cast<std::size_t>(i)] =
                eb.v[static_cast<std::size_t>(i * b_)];
        }
      }

      // Compute phase.
      for (std::size_t bi = 0; bi < mine.size(); ++bi) {
        const std::int64_t e = mine[bi];
        const std::int64_t br = e / g_, bc = e % g_;
        const auto& north = ghosts[bi].north;
        const auto& south = ghosts[bi].south;
        const auto& west = ghosts[bi].west;
        const auto& east = ghosts[bi].east;
        const Block& me = src.get_rc(br, bc);
        Block& out = dst.local_rc(br, bc);
        for (std::int64_t i = 0; i < b_; ++i) {
          for (std::int64_t j = 0; j < b_; ++j) {
            const double up =
                i > 0 ? me.v[static_cast<std::size_t>((i - 1) * b_ + j)]
                      : north[static_cast<std::size_t>(j)];
            const double dn =
                i + 1 < b_ ? me.v[static_cast<std::size_t>((i + 1) * b_ + j)]
                           : south[static_cast<std::size_t>(j)];
            const double lf =
                j > 0 ? me.v[static_cast<std::size_t>(i * b_ + j - 1)]
                      : west[static_cast<std::size_t>(i)];
            const double rg =
                j + 1 < b_ ? me.v[static_cast<std::size_t>(i * b_ + j + 1)]
                           : east[static_cast<std::size_t>(i)];
            out.v[static_cast<std::size_t>(i * b_ + j)] =
                0.25 * (up + dn + lf + rg +
                        source(br * b_ + i, bc * b_ + j, g_ * b_));
          }
        }
        rt.compute_flops(6.0 * static_cast<double>(b_ * b_));
      }
      if (rt.thread_id() == 0)
        control_->local(0).iter = static_cast<std::int16_t>(it + 1);
      cur = 1 - cur;
      rt.barrier();
    }
    final_ = cur;
  }

  void verify() override {
    const auto ref =
        shared_reference(GridKey{g_, b_, iters_}, jacobi_reference);
    const std::vector<double>& a = *ref;
    const std::int64_t pts = g_ * b_;
    XP_CHECK(a.size() == static_cast<std::size_t>(pts * pts),
             "grid: reference shape");
    for (std::int64_t e = 0; e < g_ * g_; ++e) {
      const Block& blk = u_[final_]->init(e);
      const std::int64_t br = e / g_, bc = e % g_;
      for (std::int64_t i = 0; i < b_; ++i)
        for (std::int64_t j = 0; j < b_; ++j) {
          const double got = blk.v[static_cast<std::size_t>(i * b_ + j)];
          const double want =
              a[static_cast<std::size_t>((br * b_ + i) * pts + bc * b_ + j)];
          XP_REQUIRE(std::fabs(got - want) < 1e-12,
                     "grid: solution mismatch in block " + std::to_string(e));
        }
    }
  }

 private:
  std::int64_t g_, b_;
  int iters_;
  std::int32_t declared_;
  std::unique_ptr<rt::Collection<Block>> u_[2];
  std::unique_ptr<rt::Collection<Control>> control_;
  int final_ = 0;
};

}  // namespace

std::unique_ptr<rt::Program> make_grid(const SuiteConfig& cfg) {
  return std::make_unique<GridProgram>(cfg);
}

}  // namespace xp::suite
