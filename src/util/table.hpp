// Plain-text table rendering for bench harnesses and reports.
//
// The bench binaries regenerate the paper's tables/figure series as aligned
// text tables for the terminal.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace xp::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Convenience cell formatters.
  static std::string num(double v, int precision = 3);
  static std::string fixed(double v, int decimals = 2);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return headers_.size(); }
  const std::string& cell(std::size_t r, std::size_t c) const {
    return rows_[r][c];
  }

  /// Aligned monospace rendering with a header rule.
  std::string to_text() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a section banner used between experiment blocks in bench output.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace xp::util
