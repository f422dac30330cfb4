// Data distributions for pC++-style collections.
//
// Per-dimension attributes follow pC++/HPF: Block, Cyclic, Whole (the
// dimension is not distributed).  For two-dimensional collections with both
// dimensions distributed, the processor geometry is the paper's
// square-floor grid: s x s with s = floor(sqrt(N)).  When N is not a
// perfect square, the remaining processors own no elements — this is the
// artifact §4.1 observes ("no performance improvement from 4 to 8
// processors; 4 of the processors are sitting idle") and reproducing it is
// part of the Figure 4 validation.  A rectangular factorization geometry is
// also provided for ablation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xp::rt {

enum class Dist : std::uint8_t { Block, Cyclic, Whole };

const char* to_string(Dist d);

/// Processor geometry policy for 2D collections with two distributed dims.
enum class Geometry : std::uint8_t {
  SquareFloor,  ///< s x s, s = floor(sqrt(N)); extra processors idle (paper)
  Factored,     ///< r x c with r*c = N, r the largest divisor <= sqrt(N)
};

struct ProcGrid {
  int rows = 1;
  int cols = 1;
  int total() const { return rows * cols; }
};

class Distribution {
 public:
  /// One-dimensional collection of `extent` elements over n_threads.
  static Distribution d1(Dist d, std::int64_t extent, int n_threads);

  /// Two-dimensional `rows x cols` collection (row-major linearization).
  static Distribution d2(Dist drow, Dist dcol, std::int64_t rows,
                         std::int64_t cols, int n_threads,
                         Geometry geom = Geometry::SquareFloor);

  int n_threads() const { return n_threads_; }
  std::int64_t size() const { return rows_ * cols_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  ProcGrid grid() const { return grid_; }

  /// Owner thread of a linear (row-major) element index.
  int owner(std::int64_t linear) const;
  /// Owner thread of element (r, c); requires a d2() distribution.
  int owner_rc(std::int64_t r, std::int64_t c) const;

  /// Linear indices owned by `thread`, in row-major order.
  std::vector<std::int64_t> owned_by(int thread) const;
  std::int64_t owned_count(int thread) const;

  std::string str() const;

 private:
  Distribution() = default;

  int coord(Dist d, std::int64_t i, std::int64_t extent, int g) const;

  bool is_2d_ = false;
  Dist drow_ = Dist::Block, dcol_ = Dist::Whole;
  std::int64_t rows_ = 0, cols_ = 1;
  int n_threads_ = 1;
  ProcGrid grid_;
};

}  // namespace xp::rt
