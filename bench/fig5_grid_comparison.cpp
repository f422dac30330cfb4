// Figure 5 — "Comparison of Different Extrapolations" (the Grid story).
//
// §4.1's performance-debugging narrative, replayed:
//   1. base: distributed set, 20 MB/s, compiler-declared transfer sizes
//      (each remote access charged the whole 231456-byte element);
//   2. raising bandwidth to 200 MB/s helps somewhat;
//   3. an ideal environment (zero communication/synchronization) bounds it;
//   4. using the ACTUAL transfer sizes (the optimizing compiler moves only
//      an edge or a 2-byte control word) recovers the loss at the original
//      bandwidth;
//   5. additionally reducing the high communication start-up improves it
//      further.
// All five extrapolations reuse the SAME single-processor measurements —
// the point of the exercise in the paper.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout,
                     "Figure 5 — Grid under different extrapolations");

  TraceCache cache;
  const auto& procs = paper_procs();

  auto base = model::distributed_preset();  // declared sizes, 20 MB/s

  auto hibw = base;
  hibw.comm.byte_transfer = Time::us(0.005);  // 200 MB/s

  const auto ideal = model::ideal_preset();

  auto actual = base;
  actual.size_mode = model::TransferSizeMode::Actual;

  auto actual_lostart = actual;
  actual_lostart.comm.comm_startup = Time::us(10);
  actual_lostart.comm.msg_build = Time::us(1);

  struct Config {
    const char* label;
    model::SimParams params;
  };
  const Config configs[] = {
      {"base 20MB/s declared", base},
      {"200MB/s declared", hibw},
      {"actual sizes 20MB/s", actual},
      {"actual + low startup", actual_lostart},
      {"ideal (zero cost)", ideal},
  };

  std::vector<metrics::Curve> tcurves, scurves;
  std::map<std::string, std::vector<Time>> times;
  for (const auto& c : configs) {
    times[c.label] = time_curve(cache, "grid", c.params);
    tcurves.push_back(time_curve_ms(c.label, procs, times[c.label]));
    scurves.push_back(speedup_curve(c.label, procs, times[c.label]));
  }

  std::cout << metrics::render_curves("Grid execution time", tcurves,
                                      "time [ms]", true, true)
            << '\n'
            << metrics::render_curves("Grid speedup", scurves, "speedup");

  // Trace statistics the investigation consulted: barrier count and the
  // declared-vs-actual volume discrepancy.
  const trace::Summary s = cache.prepared("grid", 8)->measured_summary;
  std::cout << "\ntrace statistics (n=8 measurement): " << s.str() << '\n';

  std::cout << "\nshape checks against the paper:\n";
  auto at32 = [&](const char* label) { return times[label][5]; };
  shape_check("barrier count is small (Grid is not barrier-bound)",
              s.barriers < 100);
  shape_check(
      "declared sizes massively overstate traffic (>100x actual bytes)",
      s.declared_bytes > 100 * s.actual_bytes);
  shape_check("200MB/s improves on the base",
              at32("200MB/s declared") < at32("base 20MB/s declared"));
  shape_check(
      "actual sizes at 20MB/s roughly match the high-bandwidth test",
      at32("actual sizes 20MB/s") < at32("200MB/s declared") * 1.5);
  shape_check("reducing start-up improves further",
              at32("actual + low startup") < at32("actual sizes 20MB/s"));
  shape_check("ideal environment is the lower bound",
              at32("ideal (zero cost)") <= at32("actual + low startup"));
  return 0;
}
