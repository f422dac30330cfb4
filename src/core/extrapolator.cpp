#include "core/extrapolator.hpp"

#include "util/parallel.hpp"

namespace xp::core {

TranslatedTrace prepare_trace(const trace::Trace& measured) {
  TranslatedTrace tt;
  // A large trace is summarized on a thread of its own while it lowers
  // (util/parallel.hpp); a small one after.  Lowering validates the trace
  // and its error is the one a bad trace throws: an unjoined group drops
  // the summary's.
  const bool beside = util::parallel_workers(measured.n_threads(),
                                             kParallelMinThreads) > 1;
  util::TaskGroup summary(1, beside ? 2 : 1, [&](std::size_t) {
    tt.measured_summary = trace::summarize(measured);
  });
  tt.compiled = std::make_shared<const CompiledTrace>(lower_measured(measured));
  summary.join();
  tt.n_threads = measured.n_threads();
  tt.measured_time = measured.end_time();
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
