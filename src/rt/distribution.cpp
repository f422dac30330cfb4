#include "rt/distribution.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace xp::rt {

const char* to_string(Dist d) {
  switch (d) {
    case Dist::Block:
      return "Block";
    case Dist::Cyclic:
      return "Cyclic";
    case Dist::Whole:
      return "Whole";
  }
  return "?";
}

namespace {
int isqrt_floor(int n) {
  int s = static_cast<int>(std::sqrt(static_cast<double>(n)));
  while ((s + 1) * (s + 1) <= n) ++s;
  while (s * s > n) --s;
  return s;
}

ProcGrid make_grid(Dist drow, Dist dcol, int n, Geometry geom) {
  const bool dr = drow != Dist::Whole;
  const bool dc = dcol != Dist::Whole;
  if (!dr && !dc) return {1, 1};
  if (dr && !dc) return {n, 1};
  if (!dr && dc) return {1, n};
  if (geom == Geometry::SquareFloor) {
    const int s = std::max(1, isqrt_floor(n));
    return {s, s};
  }
  // Factored: r = largest divisor of n with r <= sqrt(n).
  int r = 1;
  for (int d = 1; d * d <= n; ++d)
    if (n % d == 0) r = d;
  return {r, n / r};
}
}  // namespace

Distribution Distribution::d1(Dist d, std::int64_t extent, int n_threads) {
  XP_REQUIRE(extent > 0, "distribution extent must be positive");
  XP_REQUIRE(n_threads > 0, "thread count must be positive");
  Distribution out;
  out.is_2d_ = false;
  out.drow_ = d;
  out.dcol_ = Dist::Whole;
  out.rows_ = extent;
  out.cols_ = 1;
  out.n_threads_ = n_threads;
  out.grid_ = {d == Dist::Whole ? 1 : n_threads, 1};
  return out;
}

Distribution Distribution::d2(Dist drow, Dist dcol, std::int64_t rows,
                              std::int64_t cols, int n_threads,
                              Geometry geom) {
  XP_REQUIRE(rows > 0 && cols > 0, "distribution extents must be positive");
  XP_REQUIRE(n_threads > 0, "thread count must be positive");
  Distribution out;
  out.is_2d_ = true;
  out.drow_ = drow;
  out.dcol_ = dcol;
  out.rows_ = rows;
  out.cols_ = cols;
  out.n_threads_ = n_threads;
  out.grid_ = make_grid(drow, dcol, n_threads, geom);
  return out;
}

int Distribution::coord(Dist d, std::int64_t i, std::int64_t extent,
                        int g) const {
  switch (d) {
    case Dist::Whole:
      return 0;
    case Dist::Cyclic:
      return static_cast<int>(i % g);
    case Dist::Block: {
      const std::int64_t block = (extent + g - 1) / g;  // ceil
      return static_cast<int>(i / block);
    }
  }
  return 0;
}

int Distribution::owner(std::int64_t linear) const {
  XP_REQUIRE(linear >= 0 && linear < size(), "element index out of range");
  if (!is_2d_) {
    const int c = coord(drow_, linear, rows_, grid_.rows);
    return c;
  }
  return owner_rc(linear / cols_, linear % cols_);
}

int Distribution::owner_rc(std::int64_t r, std::int64_t c) const {
  XP_REQUIRE(is_2d_, "owner_rc on a 1D distribution");
  XP_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_,
             "element coordinates out of range");
  const int pr = coord(drow_, r, rows_, grid_.rows);
  const int pc = coord(dcol_, c, cols_, grid_.cols);
  return pr * grid_.cols + pc;
}

std::vector<std::int64_t> Distribution::owned_by(int thread) const {
  XP_REQUIRE(thread >= 0 && thread < n_threads_, "thread id out of range");
  std::vector<std::int64_t> out;
  for (std::int64_t i = 0; i < size(); ++i)
    if (owner(i) == thread) out.push_back(i);
  return out;
}

std::int64_t Distribution::owned_count(int thread) const {
  XP_REQUIRE(thread >= 0 && thread < n_threads_, "thread id out of range");
  std::int64_t n = 0;
  for (std::int64_t i = 0; i < size(); ++i)
    if (owner(i) == thread) ++n;
  return n;
}

std::string Distribution::str() const {
  std::ostringstream os;
  if (is_2d_) {
    os << "(" << to_string(drow_) << "," << to_string(dcol_) << ") "
       << rows_ << "x" << cols_ << " on " << grid_.rows << "x" << grid_.cols
       << " of " << n_threads_ << " threads";
  } else {
    os << to_string(drow_) << " " << rows_ << " on " << n_threads_
       << " threads";
  }
  return os.str();
}

}  // namespace xp::rt
