#include "pattern/compose.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "trace/event.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace xp::pattern {

using trace::Event;
using trace::EventKind;
using util::Error;

std::vector<RegionSpan> extract_regions(const trace::Trace& t) {
  struct Rec {
    RegionSpan span;
    int begins = 0;
    int ends = 0;
  };
  std::map<std::int64_t, Rec> recs;  // ordered: id order = pre-order
  std::vector<std::vector<std::int64_t>> stacks(
      static_cast<std::size_t>(t.n_threads()));

  for (const Event& e : t.events()) {
    if (!trace::is_pattern(e.kind)) continue;
    auto& stack = stacks[static_cast<std::size_t>(e.thread)];
    if (e.kind == EventKind::PatternBegin) {
      if (e.barrier_id > static_cast<std::int32_t>(Kind::Sequence))
        throw Error("unknown pattern kind " + std::to_string(e.barrier_id) +
                    " in region " + std::to_string(e.object));
      const std::int64_t parent = stack.empty() ? 0 : stack.back();
      Rec& r = recs[e.object];
      if (r.begins == 0) {
        r.span.region = e.object;
        r.span.kind = static_cast<Kind>(e.barrier_id);
        r.span.detail = e.declared_bytes;
        r.span.parent = parent;
        r.span.begin = e.time;
      } else {
        // Pattern nodes are collective: every thread must see the same
        // tree position for the same region id.
        if (r.span.parent != parent ||
            r.span.kind != static_cast<Kind>(e.barrier_id))
          throw Error("pattern region " + std::to_string(e.object) +
                      " has inconsistent structure across threads");
        r.span.begin = std::min(r.span.begin, e.time);
      }
      ++r.begins;
      stack.push_back(e.object);
    } else {
      if (stack.empty() || stack.back() != e.object)
        throw Error("PatternEnd of region " + std::to_string(e.object) +
                    " does not match the innermost open region");
      stack.pop_back();
      Rec& r = recs[e.object];
      r.span.end = std::max(r.span.end, e.time);
      ++r.ends;
    }
  }

  for (std::size_t th = 0; th < stacks.size(); ++th)
    if (!stacks[th].empty())
      throw Error("thread " + std::to_string(th) +
                  " ended with an open pattern region");

  std::vector<RegionSpan> out;
  out.reserve(recs.size());
  for (auto& [id, r] : recs) {
    if (r.begins != t.n_threads() || r.ends != t.n_threads())
      throw Error("pattern region " + std::to_string(id) +
                  " does not appear exactly once on every thread");
    if (r.span.parent != 0 && recs.find(r.span.parent) == recs.end())
      throw Error("pattern region " + std::to_string(id) +
                  " has an unknown parent region");
    r.span.span = r.span.end - r.span.begin;
    out.push_back(r.span);
  }
  // Children lists + self times (span minus direct child spans).
  for (RegionSpan& s : out)
    for (const RegionSpan& c : out)
      if (c.parent == s.region) s.children.push_back(c.region);
  for (RegionSpan& s : out) {
    Time child_total;
    for (const RegionSpan& c : out)
      if (c.parent == s.region) child_total += c.span;
    s.self = std::max(Time(), s.span - child_total);
  }
  return out;
}

Experiment collect(const core::SweepResult& sweep, std::string name,
                   std::map<std::int64_t, std::string> labels) {
  XP_REQUIRE(sweep.grid.size() == sweep.predictions.size(),
             "sweep result is incomplete");
  std::vector<std::size_t> order(sweep.grid.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sweep.grid[a].n_threads < sweep.grid[b].n_threads;
  });

  Experiment e;
  e.name = std::move(name);
  e.labels = std::move(labels);
  for (std::size_t i : order) {
    const core::Prediction& p = sweep.predictions[i];
    XP_REQUIRE(e.procs.empty() || e.procs.back() != p.n_threads,
               "pattern experiment needs distinct thread counts; split "
               "multi-machine sweeps by label first");
    XP_REQUIRE(p.sim.extrapolated().size() > 0,
               "sweep cell carries no extrapolated trace (emit_trace off?)");
    e.procs.push_back(p.n_threads);
    e.spans.push_back(extract_regions(p.sim.extrapolated()));
    e.totals.push_back(p.predicted_time);
  }
  return e;
}

namespace {

fit::FitResult do_fit(const std::vector<int>& procs,
                      const std::vector<double>& ys,
                      const ComposeOptions& opt) {
  return opt.candidates.empty()
             ? fit::fit_curve(procs, ys, opt.fit)
             : fit::fit_curve_terms(procs, ys, opt.candidates, opt.fit);
}

double eval_replica(const fit::FitResult& r, std::size_t b, double n) {
  const fit::Model m{r.model.terms, r.boot_coeff[b]};
  return m.eval(n);
}

std::string detail_name(Kind k) {
  switch (k) {
    case Kind::Pipeline: return "stages";
    case Kind::MapReduce: return "items";
    case Kind::TaskPool: return "tasks";
    case Kind::Sequence: return "children";
  }
  return "size";
}

}  // namespace

ComposedModel compose_regions(
    const std::vector<int>& procs,
    const std::vector<std::vector<RegionSpan>>& spans,
    const std::vector<Time>& totals, const ComposeOptions& opt,
    const std::map<std::int64_t, std::string>& labels) {
  XP_REQUIRE(procs.size() == spans.size() && procs.size() == totals.size(),
             "compose_regions: procs/spans/totals size mismatch");
  XP_REQUIRE(!spans.empty() && !spans[0].empty(),
             "compose_regions: no pattern regions to fit");
  const std::vector<RegionSpan>& ref = spans[0];
  for (const auto& s : spans) {
    XP_REQUIRE(s.size() == ref.size(),
               "pattern structure differs across thread counts");
    for (std::size_t j = 0; j < s.size(); ++j)
      XP_REQUIRE(s[j].region == ref[j].region && s[j].kind == ref[j].kind &&
                     s[j].parent == ref[j].parent &&
                     s[j].detail == ref[j].detail,
                 "pattern structure differs across thread counts");
  }

  std::map<std::int64_t, int> depth;
  for (const RegionSpan& s : ref)
    depth[s.region] = s.parent == 0 ? 0 : depth.at(s.parent) + 1;

  ComposedModel cm;
  cm.procs = procs;
  std::vector<double> ys(procs.size());
  for (std::size_t j = 0; j < ref.size(); ++j) {
    for (std::size_t k = 0; k < procs.size(); ++k)
      ys[k] = spans[k][j].self.to_us();
    RegionModel rm;
    rm.region = ref[j].region;
    rm.kind = ref[j].kind;
    rm.detail = ref[j].detail;
    rm.parent = ref[j].parent;
    rm.depth = depth.at(ref[j].region);
    const auto it = labels.find(ref[j].region);
    rm.label = it != labels.end()
                   ? it->second
                   : std::string(to_string(ref[j].kind)) + "#" +
                         std::to_string(ref[j].region);
    rm.self_fit = do_fit(procs, ys, opt);
    cm.regions.push_back(std::move(rm));
  }

  // Residual: whole-program time outside every pattern region (prologue,
  // epilogue, inter-region barriers).  Self times telescope to the sum of
  // top-level spans, so total minus all self times is exactly that gap.
  for (std::size_t k = 0; k < procs.size(); ++k) {
    double self_sum = 0;
    for (const RegionSpan& s : spans[k]) self_sum += s.self.to_us();
    ys[k] = std::max(0.0, totals[k].to_us() - self_sum);
  }
  cm.residual_fit = do_fit(procs, ys, opt);
  return cm;
}

ComposedModel compose(const Experiment& e, const ComposeOptions& opt) {
  return compose_regions(e.procs, e.spans, e.totals, opt, e.labels);
}

double ComposedModel::eval(double n) const {
  double t = residual_fit.eval(n);
  for (const RegionModel& r : regions) t += r.self_fit.eval(n);
  return t;
}

fit::FitResult::Band ComposedModel::band(double n) const {
  std::size_t replicas = residual_fit.boot_coeff.size();
  for (const RegionModel& r : regions)
    replicas = std::min(replicas, r.self_fit.boot_coeff.size());
  const double point = eval(n);
  if (replicas == 0) return {point, point};
  // Replica b of the composed curve sums replica b of every part, so the
  // band carries the parts' correlated uncertainty through the sum.
  std::vector<double> evals;
  evals.reserve(replicas);
  for (std::size_t b = 0; b < replicas; ++b) {
    double t = eval_replica(residual_fit, b, n);
    for (const RegionModel& r : regions) t += eval_replica(r.self_fit, b, n);
    evals.push_back(t);
  }
  const double tail = 100.0 * (1.0 - residual_fit.confidence) / 2.0;
  return {util::percentile(evals, tail),
          util::percentile(evals, 100.0 - tail)};
}

std::string ComposedModel::str() const {
  std::ostringstream os;
  os << "composed pattern model (" << regions.size() << " regions, procs "
     << (procs.empty() ? 0 : procs.front()) << ".."
     << (procs.empty() ? 0 : procs.back()) << "):\n";
  for (const RegionModel& r : regions) {
    os << std::string(static_cast<std::size_t>(2 * r.depth + 2), ' ')
       << r.label << " [" << detail_name(r.kind) << "=" << r.detail
       << "] self(n) = " << r.self_fit.model.str() << "\n";
  }
  os << "  residual(n) = " << residual_fit.model.str() << "\n";
  return os.str();
}

}  // namespace xp::pattern
