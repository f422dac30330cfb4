#include "metrics/sweep_report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "metrics/report.hpp"
#include "util/error.hpp"

namespace xp::metrics {

SweepReport analyze_sweep(const core::SweepResult& r) {
  XP_REQUIRE(r.grid.size() == r.predictions.size(),
             "sweep result is incomplete");
  SweepReport out;
  out.cache_hits = r.cache_hits;
  out.cache_misses = r.cache_misses;
  out.stages = r.stages;

  std::vector<std::string> order;
  std::map<std::string, std::map<int, const core::Prediction*>> by_label;
  for (std::size_t i = 0; i < r.grid.size(); ++i) {
    const auto& point = r.grid[i];
    const auto& pred = r.predictions[i];
    auto [it, inserted] = by_label.try_emplace(point.label);
    if (inserted) order.push_back(point.label);
    auto [jt, fresh] = it->second.try_emplace(point.n_threads, &pred);
    if (!fresh)
      XP_REQUIRE(jt->second->predicted_time == pred.predicted_time,
                 "sweep series '" + point.label + "' has conflicting points at n=" +
                     std::to_string(point.n_threads));
  }

  for (const auto& label : order) {
    SweepSeries s;
    s.label = label;
    for (const auto& [n, pred] : by_label.at(label)) {
      s.procs.push_back(n);
      s.times.push_back(pred->predicted_time);
      s.ideal_times.push_back(pred->ideal_time);
    }
    if (s.procs.size() >= 2) {
      s.scalability = analyze_scalability(s.procs, s.times);
      s.has_scalability = true;
    }
    out.series.push_back(std::move(s));
  }
  return out;
}

std::string render_sweep(const SweepReport& r, bool chart) {
  std::ostringstream os;
  std::vector<Curve> curves;
  for (const auto& s : r.series) {
    Curve c;
    c.label = s.label;
    c.procs = s.procs;
    for (const Time& t : s.times) c.values.push_back(t.to_ms());
    curves.push_back(std::move(c));
  }
  os << render_curves("predicted execution time", curves, "time [ms]", chart,
                      true);
  for (const auto& s : r.series) {
    if (!s.has_scalability) continue;
    os << '\n' << s.label << ":\n" << render_scalability(s.scalability);
  }
  if (r.cache_misses > 0)
    os << "\n(translate cache: " << r.cache_misses << " measurement(s), "
       << r.cache_hits << " reuse(s))\n";
  // Fast-path footer (core::SimCounters): how the grid's replay work split
  // between the event engine, the barrier-epoch memo and the engine-free
  // sampled path.
  const core::SimCounters& sim = r.stages.sim;
  if (sim.cells_event + sim.cells_memo + sim.cells_sampled > 0) {
    os << "(simulate:";
    for (const core::SimCounterField& f : core::kSimCounterFields)
      os << ' ' << f.key << '=' << sim.*f.member;
    os << ")\n";
  }
  return os.str();
}

}  // namespace xp::metrics
