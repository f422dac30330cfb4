// Ablation A6 — robustness of the Figure 9 validation to machine noise.
//
// The validation conclusion the paper cares about is RANKING agreement
// ("extrapolation can capture the relative performance ordering of
// algorithm design choices").  This ablation sweeps the machine
// simulator's deterministic jitter magnitudes and reports how the
// prediction errors and the best-distribution agreement degrade —
// quantifying how much real-machine noise the conclusion tolerates.
#include "common.hpp"
#include "util/stats.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout,
                     "Ablation — validation robustness vs machine jitter");
  const auto params = model::cm5_preset();
  const rt::Dist kDists[] = {rt::Dist::Block, rt::Dist::Cyclic,
                             rt::Dist::Whole};
  const std::vector<int> procs{4, 8, 16, 32};
  suite::SuiteConfig cfg;

  // Predictions are jitter-independent: compute once.
  std::vector<std::vector<Time>> pred;  // [dist][proc]
  std::vector<std::string> labels;
  for (rt::Dist a : kDists)
    for (rt::Dist b : kDists) {
      std::vector<Time> row;
      for (int n : procs) {
        auto p = suite::make_matmul(a, b, cfg);
        row.push_back(Extrapolator(params).extrapolate(*p, n).predicted_time);
      }
      pred.push_back(std::move(row));
      labels.push_back(std::string("(") + rt::to_string(a)[0] + "," +
                       rt::to_string(b)[0] + ")");
    }

  util::Table t({"jitter", "mean |err| %", "max |err| %",
                 "best-choice agreement", "worst regret %"});
  double agreement_at_zero = 0, agreement_at_max = 0;
  const double jitters[] = {0.0, 0.01, 0.03, 0.08, 0.15};
  for (double j : jitters) {
    machine::MachineConfig mc = machine::cm5_machine();
    mc.compute_jitter = j;
    mc.wire_jitter = 2 * j;
    util::RunningStat err;
    int agree = 0;
    double worst_regret = 0;
    std::vector<std::vector<Time>> act(pred.size());
    std::size_t d = 0;
    for (rt::Dist a : kDists)
      for (rt::Dist b : kDists) {
        for (int n : procs) {
          auto p = suite::make_matmul(a, b, cfg);
          act[d].push_back(
              machine::run_on_machine(*p, n, mc).exec_time);
        }
        ++d;
      }
    for (std::size_t i = 0; i < pred.size(); ++i)
      for (std::size_t k = 0; k < procs.size(); ++k)
        err.add(100.0 * std::abs(pred[i][k] / act[i][k] - 1.0));
    for (std::size_t k = 0; k < procs.size(); ++k) {
      std::size_t bp = 0, ba = 0;
      for (std::size_t i = 1; i < pred.size(); ++i) {
        if (pred[i][k] < pred[bp][k]) bp = i;
        if (act[i][k] < act[ba][k]) ba = i;
      }
      if (bp == ba) ++agree;
      worst_regret = std::max(
          worst_regret, 100.0 * (act[bp][k] / act[ba][k] - 1.0));
    }
    const double frac = static_cast<double>(agree) /
                        static_cast<double>(procs.size());
    if (j == 0.0) agreement_at_zero = frac;
    agreement_at_max = frac;
    t.add_row({util::Table::fixed(100 * j, 0) + "%",
               util::Table::fixed(err.mean(), 1),
               util::Table::fixed(err.max(), 1),
               std::to_string(agree) + "/" + std::to_string(procs.size()),
               util::Table::fixed(worst_regret, 1)});
  }
  std::cout << t.to_text();

  std::cout << "\nshape checks:\n";
  shape_check("perfect best-choice agreement without jitter",
              agreement_at_zero == 1.0);
  shape_check("ranking conclusion survives substantial (15%) noise",
              agreement_at_max >= 0.75);
  return 0;
}
