#include "fit/phase_fit.hpp"

#include <map>
#include <sstream>

#include "metrics/phases.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace xp::fit {

namespace {

/// Attribution fits skip the bootstrap: the bands are never rendered here
/// and dropping ~200 refits per phase keeps big (many-phase) programs fast.
FitOptions no_bootstrap(FitOptions opt) {
  opt.bootstrap = 0;
  return opt;
}

ComponentFit fit_component(const std::string& name, const std::vector<int>& procs,
                           std::vector<double> values, const FitOptions& opt) {
  ComponentFit c;
  c.name = name;
  c.fit = fit_curve(procs, values, opt);
  c.values = std::move(values);
  return c;
}

std::string growth_of(const Model& m) {
  const int dom = m.dominant_term();
  if (dom < 0) return "-";
  return m.terms[static_cast<std::size_t>(dom)].str();
}

}  // namespace

PhaseAttribution attribute_phases(
    const std::vector<int>& procs,
    const std::vector<const trace::Trace*>& traces, const FitOptions& opt) {
  XP_REQUIRE(procs.size() == traces.size() && procs.size() >= 3,
             "attribution needs matching procs/traces with >= 3 points");
  const FitOptions fopt = no_bootstrap(opt);

  std::vector<std::vector<metrics::PhaseProfile>> profiles;
  profiles.reserve(traces.size());
  for (const trace::Trace* t : traces) {
    XP_REQUIRE(t != nullptr, "attribution needs non-null traces");
    profiles.push_back(metrics::profile_phases(*t));
  }

  PhaseAttribution a;
  a.procs = procs;

  std::vector<double> compute, barrier, remote;
  for (const auto& phases : profiles) {
    double comp_us = 0.0, barr_us = 0.0, rem = 0.0;
    for (const auto& p : phases) {
      comp_us += p.mean_busy().to_us();
      barr_us += (p.duration() - p.mean_busy()).to_us();
      rem += static_cast<double>(p.total_accesses());
    }
    compute.push_back(comp_us);
    barrier.push_back(barr_us);
    remote.push_back(rem);
  }
  a.components.push_back(
      fit_component("compute", procs, std::move(compute), fopt));
  a.components.push_back(
      fit_component("barrier wait", procs, std::move(barrier), fopt));
  a.components.push_back(
      fit_component("remote accesses", procs, std::move(remote), fopt));
  a.components[0].unit = "us";
  a.components[1].unit = "us";
  a.components[2].unit = "#";

  // Per-phase fits only make sense when phase k means the same thing at
  // every processor count: same phase count, same barrier ids.
  bool aligned = true;
  for (const auto& phases : profiles) {
    if (phases.size() != profiles.front().size()) aligned = false;
  }
  if (aligned)
    for (std::size_t k = 0; aligned && k < profiles.front().size(); ++k)
      for (const auto& phases : profiles)
        if (phases[k].barrier_id != profiles.front()[k].barrier_id)
          aligned = false;
  if (aligned) {
    for (std::size_t k = 0; k < profiles.front().size(); ++k) {
      std::vector<double> durs;
      durs.reserve(profiles.size());
      for (const auto& phases : profiles)
        durs.push_back(phases[k].duration().to_us());
      const std::int32_t id = profiles.front()[k].barrier_id;
      const std::string name =
          "phase " + std::to_string(k) +
          (id < 0 ? " (tail)" : " (barrier " + std::to_string(id) + ")");
      a.phases.push_back(fit_component(name, procs, std::move(durs), fopt));
    }
  }

  // Verdict: the component whose fitted model grows fastest.
  int best = -1;
  for (std::size_t c = 0; c < a.components.size(); ++c) {
    const Model& m = a.components[c].fit.model;
    const int dom = m.dominant_term();
    if (dom < 0) continue;
    if (best < 0) {
      best = static_cast<int>(c);
      continue;
    }
    const Model& bm = a.components[static_cast<std::size_t>(best)].fit.model;
    const Term& bt =
        bm.terms[static_cast<std::size_t>(bm.dominant_term())];
    if (term_less(bt, m.terms[static_cast<std::size_t>(dom)]))
      best = static_cast<int>(c);
  }
  if (best < 0) {
    a.verdict = "no component grows with n — the program scales";
  } else {
    const ComponentFit& c = a.components[static_cast<std::size_t>(best)];
    a.verdict = c.name + " grows fastest (" + growth_of(c.fit.model) +
                ") — this cost decides behavior at scale";
  }
  return a;
}

PhaseAttribution attribute_sweep(const core::SweepResult& sweep,
                                 const FitOptions& opt) {
  // The first cell of each thread count; reading a cell's trace builds it,
  // so the others are never read.
  std::map<int, const trace::Trace*> by_n;
  for (std::size_t i = 0; i < sweep.grid.size(); ++i)
    if (!by_n.count(sweep.grid[i].n_threads))
      by_n.emplace(sweep.grid[i].n_threads,
                   &sweep.predictions[i].sim.extrapolated());
  std::vector<int> procs;
  std::vector<const trace::Trace*> traces;
  for (const auto& [n, t] : by_n) {
    procs.push_back(n);
    traces.push_back(t);
  }
  return attribute_phases(procs, traces, opt);
}

std::string render_attribution(const PhaseAttribution& a) {
  std::ostringstream os;
  util::Table t({"component", "model", "unit", "growth", "adj R2"});
  for (const auto& c : a.components)
    t.add_row({c.name, c.fit.model.str(), c.unit, growth_of(c.fit.model),
               util::Table::fixed(c.fit.adj_r2, 4)});
  os << t.to_text();
  if (!a.phases.empty()) {
    util::Table pt({"phase", "duration model [us]", "growth"});
    for (const auto& p : a.phases)
      pt.add_row({p.name, p.fit.model.str(), growth_of(p.fit.model)});
    os << "per-phase durations:\n" << pt.to_text();
  }
  os << "verdict: " << a.verdict << '\n';
  return os.str();
}

}  // namespace xp::fit
