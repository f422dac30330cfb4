// timeline_view — see WHERE the predicted time goes.
//
// Extrapolates a benchmark and renders the predicted n-processor execution
// as an ASCII Gantt chart (compute / communication wait / barrier wait /
// idle per thread), plus a per-thread activity table and the load-
// imbalance metric.  Makes artifacts like the square-floor idle processors
// (threads 4..7 at n=8 for Grid) directly visible.
#include <iostream>

#include "core/extrapolator.hpp"
#include "metrics/timeline.hpp"
#include "suite/suite.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

using namespace xp;

int main(int argc, char** argv) {
  util::ArgParser args("timeline_view",
                       "render the predicted execution timeline");
  args.add_option("bench", "grid", "benchmark (Table 2 name) or matmul");
  args.add_option("threads", "8", "thread count");
  args.add_option("preset", "distributed", "distributed|shared|ideal|cm5");
  args.add_option("width", "72", "timeline width in columns");
  try {
    if (!args.parse(argc, argv)) return 0;
    model::SimParams params;
    const std::string preset = args.get("preset");
    if (preset == "distributed")
      params = model::distributed_preset();
    else if (preset == "shared")
      params = model::shared_memory_preset();
    else if (preset == "ideal")
      params = model::ideal_preset();
    else if (preset == "cm5")
      params = model::cm5_preset();
    else
      throw util::Error("unknown preset: " + preset);

    const int n = static_cast<int>(args.get_int("threads"));
    auto prog = suite::make_by_name(args.get("bench"));
    core::Extrapolator x(params);
    const core::Prediction p = x.extrapolate(*prog, n);

    std::cout << args.get("bench") << " on " << n << " processors ("
              << preset << " preset): predicted "
              << p.predicted_time.str() << "\n\n";
    std::cout << metrics::render_timeline(
        p.sim.extrapolated(), static_cast<int>(args.get_int("width")));

    const auto tl = metrics::build_timeline(p.sim.extrapolated());
    util::Table t({"thr", "compute", "comm wait", "barrier wait", "idle"});
    for (std::size_t i = 0; i < tl.size(); ++i) {
      const auto tot = metrics::totals(tl[i], p.predicted_time);
      t.add_row({std::to_string(i), tot.compute.str(), tot.comm.str(),
                 tot.barrier.str(), tot.idle.str()});
    }
    std::cout << '\n' << t.to_text();
    std::cout << "\nload imbalance: "
              << util::Table::fixed(100 * metrics::load_imbalance(p.sim), 1)
              << "% (0% = perfectly balanced compute)\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
