// custom_program — writing your OWN pC++-model program (docs/GUIDE.md §1).
//
// A self-contained example that is not part of the benchmark suite: a 1D
// heat-diffusion stencil with a periodic global convergence check (a
// butterfly all-reduce), written against the public runtime API, verified
// against a sequential reference, and extrapolated to several target
// machines.  Use this file as the template for your own codes.
#include <cmath>
#include <memory>
#include <iostream>
#include <vector>

#include "core/extrapolator.hpp"
#include "metrics/report.hpp"
#include "metrics/timeline.hpp"
#include "model/params_io.hpp"
#include "rt/collection.hpp"
#include "rt/collectives.hpp"
#include "rt/invoke.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

using namespace xp;

namespace {

class HeatProgram : public rt::Program {
 public:
  HeatProgram(std::int64_t cells, int steps, int check_every)
      : cells_(cells), steps_(steps), check_every_(check_every) {}

  std::string name() const override { return "heat1d"; }

  void setup(rt::Runtime& rt) override {
    const int n = rt.n_threads();
    const auto dist = rt::Distribution::d1(rt::Dist::Block, cells_, n);
    u_[0] = std::make_unique<rt::Collection<double>>(rt, dist);
    u_[1] = std::make_unique<rt::Collection<double>>(rt, dist);
    scratch_ = std::make_unique<rt::Collection<double>>(
        rt, rt::Distribution::d1(rt::Dist::Block, n, n));
    pong_ = std::make_unique<rt::Collection<double>>(
        rt, rt::Distribution::d1(rt::Dist::Block, n, n));
    for (std::int64_t i = 0; i < cells_; ++i) {
      u_[0]->init(i) = initial(i);
      u_[1]->init(i) = 0.0;
    }
  }

  void thread_main(rt::Runtime& rt) override {
    int cur = 0;  // double-buffer parity: thread-local, NOT a member
    for (int s = 0; s < steps_; ++s) {
      rt::Collection<double>& src = *u_[cur];
      rt::Collection<double>& dst = *u_[1 - cur];
      rt::parallel_invoke(
          rt, dst,
          [&](double& out, std::int64_t i) {
            const double left = i > 0 ? src.get(i - 1, 8) : src.get(i);
            const double right =
                i + 1 < cells_ ? src.get(i + 1, 8) : src.get(i);
            out = src.get(i) + 0.25 * (left - 2.0 * src.get(i) + right);
          },
          5.0);
      cur = 1 - cur;

      if ((s + 1) % check_every_ == 0 && rt.n_threads() > 1 &&
          (rt.n_threads() & (rt.n_threads() - 1)) == 0) {
        // Global max-delta via a butterfly all-reduce (power-of-two only).
        double local_max = 0.0;
        for (std::int64_t i : u_[cur]->my_elements())
          local_max = std::max(local_max,
                               std::fabs(u_[cur]->get(i) - u_[1 - cur]->get(i)));
        rt.compute_flops(
            2.0 * static_cast<double>(u_[cur]->my_elements().size()));
        const double global_max = rt::allreduce_butterfly(
            rt, *scratch_, *pong_, local_max,
            [](double a, double b) { return std::max(a, b); });
        if (rt.thread_id() == 0) last_delta_ = global_max;
      }
    }
    final_parity_ = cur;
  }

  void verify() override {
    // Sequential reference with identical arithmetic.
    std::vector<double> a(static_cast<std::size_t>(cells_)), b = a;
    for (std::int64_t i = 0; i < cells_; ++i)
      a[static_cast<std::size_t>(i)] = initial(i);
    for (int s = 0; s < steps_; ++s) {
      for (std::int64_t i = 0; i < cells_; ++i) {
        const double c = a[static_cast<std::size_t>(i)];
        const double left = i > 0 ? a[static_cast<std::size_t>(i - 1)] : c;
        const double right =
            i + 1 < cells_ ? a[static_cast<std::size_t>(i + 1)] : c;
        b[static_cast<std::size_t>(i)] = c + 0.25 * (left - 2.0 * c + right);
      }
      a.swap(b);
    }
    for (std::int64_t i = 0; i < cells_; ++i)
      XP_REQUIRE(u_[final_parity_]->init(i) == a[static_cast<std::size_t>(i)],
                 "heat1d: mismatch at cell " + std::to_string(i));
  }

  double last_delta() const { return last_delta_; }

 private:
  static double initial(std::int64_t i) {
    return (i % 32 == 0) ? 100.0 : 0.0;
  }

  std::int64_t cells_;
  int steps_;
  int check_every_;
  std::unique_ptr<rt::Collection<double>> u_[2];
  std::unique_ptr<rt::Collection<double>> scratch_, pong_;
  int final_parity_ = 0;
  double last_delta_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("custom_program",
                       "template: your own program through the pipeline");
  args.add_option("cells", "512", "stencil cells");
  args.add_option("steps", "40", "time steps");
  args.add_option("threads", "8", "thread count (power of two)");
  args.add_option("preset", "cm5", "target environment preset");
  args.add_flag("timeline", "render the predicted execution timeline");
  try {
    if (!args.parse(argc, argv)) return 0;
    HeatProgram prog(args.get_int("cells"),
                     static_cast<int>(args.get_int("steps")), 10);
    core::Extrapolator x(model::preset_by_name(args.get("preset")));
    const int n = static_cast<int>(args.get_int("threads"));
    const core::Prediction p = x.extrapolate(prog, n);
    std::cout << "heat1d on " << n << " simulated processors ("
              << args.get("preset") << "):\n"
              << metrics::render_prediction(p);
    std::cout << "final max step delta: " << prog.last_delta() << '\n';
    if (args.has("timeline"))
      std::cout << '\n'
                << metrics::render_timeline(p.sim.extrapolated(), 64);
    std::cout << "\n(numerics verified against the sequential reference)\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
