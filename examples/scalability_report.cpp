// scalability_report — "is it worth buying a bigger machine?"
//
// Sweeps processor counts for any suite benchmark entirely by
// extrapolation (one SweepRunner batch; simulations run in parallel), then
// analyzes the predicted curve: speedups, efficiency, Karp–Flatt
// experimentally determined serial fraction (growing = the overhead is
// communication/synchronization, not serial code), an Amdahl fit, and
// projected speedups for machine sizes never simulated.  Also prints the
// per-phase profile at the largest count to show WHERE the time goes.
#include <iostream>

#include "core/sweep.hpp"
#include "metrics/phases.hpp"
#include "metrics/sweep_report.hpp"
#include "suite/suite.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

using namespace xp;

int main(int argc, char** argv) {
  util::ArgParser args("scalability_report",
                       "extrapolated scalability analysis of a benchmark");
  args.add_option("bench", "poisson", "benchmark (Table 2 name)");
  args.add_option("procs", "1,2,4,8,16,32",
                  "processor counts (first entry is the speedup baseline)");
  args.add_option("preset", "distributed", "distributed|shared|ideal|cm5");
  args.add_option("workers", "0", "sweep workers (0 = hardware concurrency)");
  args.add_flag("phases", "also print the per-phase profile at max procs");
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

    std::vector<int> procs;
    for (const auto& s : util::split(args.get("procs"), ','))
      procs.push_back(std::stoi(s));

    core::SweepOptions opt;
    opt.n_workers = static_cast<int>(args.get_int("workers"));
    const std::string bench = args.get("bench");
    core::SweepRunner runner([&bench] { return suite::make_by_name(bench); },
                             opt);
    const core::SweepResult sweep = runner.run_grid(procs, {params}, {preset});
    for (std::size_t i = 0; i < procs.size(); ++i)
      std::cout << "  n=" << procs[i] << ": "
                << sweep.predictions[i].predicted_time.str() << '\n';

    const metrics::SweepReport report = metrics::analyze_sweep(sweep);
    const metrics::SweepSeries& series = report.series.front();
    if (series.has_scalability)
      std::cout << "\n" << metrics::render_scalability(series.scalability);
    else
      std::cout << "\n(no scalability analysis: sweep needs >= 2 points)\n";

    if (args.has("phases")) {
      const core::Prediction& last = sweep.predictions.back();
      std::cout << "\nper-phase profile at n=" << procs.back() << ":\n"
                << metrics::render_phase_table(
                       metrics::profile_phases(last.sim.extrapolated()));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
