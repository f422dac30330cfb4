#include "pattern/extrap_writer.hpp"

#include <limits>
#include <map>
#include <ostream>

#include "util/error.hpp"

namespace xp::pattern {

namespace {

std::string region_name(const Experiment& e, const RegionSpan& s) {
  const auto it = e.labels.find(s.region);
  if (it != e.labels.end()) return it->second + "#" + std::to_string(s.region);
  return std::string(to_string(s.kind)) + "#" + std::to_string(s.region);
}

}  // namespace

void write_extrap(const Experiment& e, std::ostream& os) {
  XP_REQUIRE(!e.procs.empty(), "experiment has no points");
  XP_REQUIRE(e.procs.size() == e.spans.size() &&
                 e.procs.size() == e.totals.size(),
             "experiment points/spans/totals size mismatch");

  os.precision(std::numeric_limits<double>::max_digits10);
  os << "PARAMETER n\n";
  os << "POINTS";
  for (int p : e.procs) os << ' ' << p;
  os << '\n';
  os << "EXPERIMENT " << (e.name.empty() ? "xp" : e.name) << '\n';
  os << "METRIC time_us\n";

  os << "CALLPATH main\nDATA";
  for (const Time& t : e.totals) os << ' ' << t.to_us();
  os << '\n';

  // Callpaths from the first point's structure (compose() has already
  // required it uniform); spans per point by region id.
  std::map<std::int64_t, std::string> paths;
  for (const RegionSpan& s : e.spans[0]) {
    const std::string prefix =
        s.parent == 0 ? "main" : paths.at(s.parent);
    paths[s.region] = prefix + "->" + region_name(e, s);
  }
  for (std::size_t j = 0; j < e.spans[0].size(); ++j) {
    os << "CALLPATH " << paths.at(e.spans[0][j].region) << "\nDATA";
    for (std::size_t k = 0; k < e.procs.size(); ++k) {
      XP_REQUIRE(e.spans[k].size() == e.spans[0].size() &&
                     e.spans[k][j].region == e.spans[0][j].region,
                 "experiment region structure differs across points");
      os << ' ' << e.spans[k][j].span.to_us();
    }
    os << '\n';
  }
}

}  // namespace xp::pattern
