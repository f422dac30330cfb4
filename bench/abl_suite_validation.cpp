// Ablation A7 — validation beyond Matmul.
//
// The paper validates extrapolation with one program (Matmul, Figure 9).
// This ablation extends the same predicted-vs-machine comparison to the
// entire Table 2 suite: each code is extrapolated with the Table 3 CM-5
// parameters and compared against the direct-execution machine simulator
// at 4 and 16 processors.  The expectation is looser than Figure 9's —
// diverse codes exercise the models' approximations differently — but
// predictions should stay within a small factor and preserve the ordering
// of the codes by cost.
#include "common.hpp"
#include "util/stats.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout,
                     "Ablation — predicted vs machine across the suite");
  const auto params = model::cm5_preset();
  machine::MachineConfig mc = machine::cm5_machine();

  suite::SuiteConfig cfg;
  // Trimmed sizes keep the direct-execution runs quick.
  cfg.embar_pairs = 1 << 13;
  cfg.cyclic_size = 128;
  cfg.cyclic_width = 16;
  cfg.sparse_size = 512;
  cfg.sparse_iters = 3;
  cfg.grid_blocks = 8;
  cfg.grid_block_points = 16;
  cfg.grid_iters = 8;
  cfg.mgrid_size = 16;
  cfg.mgrid_depth = 8;
  cfg.mgrid_cycles = 1;
  cfg.poisson_size = 32;
  cfg.sort_keys = 2048;

  util::Table t({"benchmark", "procs", "predicted", "machine", "ratio"});
  util::RunningStat ratios;
  std::map<int, std::vector<double>> pred_order, act_order;
  for (const auto& name : suite::benchmark_names()) {
    for (int n : {4, 16}) {
      auto p1 = suite::make_by_name(name, cfg);
      const Time pred =
          Extrapolator(params).extrapolate(*p1, n).predicted_time;
      auto p2 = suite::make_by_name(name, cfg);
      const Time act = machine::run_on_machine(*p2, n, mc).exec_time;
      const double ratio = pred / act;
      ratios.add(ratio);
      pred_order[n].push_back(pred.to_us());
      act_order[n].push_back(act.to_us());
      t.add_row({name, std::to_string(n), pred.str(), act.str(),
                 util::Table::fixed(ratio, 2)});
    }
  }
  std::cout << t.to_text();
  std::cout << "\npred/machine ratio: mean "
            << util::Table::fixed(ratios.mean(), 2) << "  min "
            << util::Table::fixed(ratios.min(), 2) << "  max "
            << util::Table::fixed(ratios.max(), 2) << '\n';

  // Rank agreement: does extrapolation order the codes by cost the way the
  // machine does?  (Spearman-ish: count pairwise inversions.)
  auto inversions = [](const std::vector<double>& a,
                       const std::vector<double>& b) {
    int inv = 0, total = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
      for (std::size_t j = i + 1; j < a.size(); ++j) {
        ++total;
        if ((a[i] < a[j]) != (b[i] < b[j])) ++inv;
      }
    return std::pair<int, int>(inv, total);
  };
  int inv = 0, total = 0;
  for (int n : {4, 16}) {
    const auto [i, t2] = inversions(pred_order[n], act_order[n]);
    inv += i;
    total += t2;
  }
  std::cout << "cost-ordering inversions: " << inv << "/" << total << '\n';

  std::cout << "\nshape checks:\n";
  shape_check("every prediction within a factor of 2 of the machine",
              ratios.min() > 0.5 && ratios.max() < 2.0);
  shape_check("suite cost ordering largely preserved (<15% inversions)",
              total > 0 && static_cast<double>(inv) / total < 0.15);
  return 0;
}
