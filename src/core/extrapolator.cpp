#include "core/extrapolator.hpp"

namespace xp::core {

TranslatedTrace prepare_trace(const trace::Trace& measured) {
  TranslatedTrace tt;
  // Lowering validates the trace, so it runs before anything else reads it.
  tt.compiled = std::make_shared<const CompiledTrace>(lower_measured(measured));
  tt.n_threads = measured.n_threads();
  tt.measured_time = measured.end_time();
  tt.measured_summary = trace::summarize(measured);
  tt.ideal_time = tt.compiled->ideal_time;
  return tt;
}

Prediction predict(const TranslatedTrace& prepared, const SimParams& params,
                   const SimOptions& opts) {
  Prediction p;
  p.n_threads = prepared.n_threads;
  p.measured_time = prepared.measured_time;
  p.measured_summary = prepared.measured_summary;
  p.ideal_time = prepared.ideal_time;
  p.sim = prepared.compiled
              ? simulate_compiled(prepared.compiled, params, opts)
              : simulate(prepared.translated, params, opts);
  p.predicted_time = p.sim.makespan;
  return p;
}

Prediction Extrapolator::extrapolate(rt::Program& prog, int n_threads) const {
  rt::MeasureOptions mo;
  mo.n_threads = n_threads;
  return extrapolate_trace(rt::measure(prog, mo));
}

Prediction Extrapolator::extrapolate_trace(const trace::Trace& measured) const {
  return predict(prepare_trace(measured), params_);
}

}  // namespace xp::core
