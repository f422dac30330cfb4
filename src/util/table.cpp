#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace xp::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  XP_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  XP_REQUIRE(cells.size() == headers_.size(),
             "row width does not match header count");
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

std::string Table::fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string Table::to_text() const {
  std::vector<std::size_t> w(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      w[c] = std::max(w[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "  " << row[c];
      if (c + 1 < row.size())
        os << std::string(w[c] - row[c].size(), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < w.size(); ++c) total += w[c] + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::print(std::ostream& os) const { os << to_text(); }

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << std::string(72, '=') << '\n'
     << "  " << title << '\n'
     << std::string(72, '=') << '\n';
}

}  // namespace xp::util
