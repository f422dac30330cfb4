// policy_explorer — runtime-system tuning by extrapolation (§4.1, Fig 8).
//
// "If a polling policy must be used, a port of pC++ requires the choice of
// polling interval.  An optimal choice ... is certainly system and likely
// problem specific.  All of these questions can be explored with
// extrapolation."  This tool sweeps the three service policies and a range
// of polling intervals for any suite benchmark and reports the best
// runtime-system configuration per processor count, using the
// core::choose_service_policy tuner on one prepared trace per count.
#include <iostream>

#include "core/extrapolator.hpp"
#include "core/tuner.hpp"
#include "suite/suite.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace xp;

int main(int argc, char** argv) {
  util::ArgParser args("policy_explorer",
                       "find the best remote-service policy by extrapolation");
  args.add_option("bench", "cyclic", "benchmark to tune (Table 2 name)");
  args.add_option("procs", "2,4,8,16,32", "processor counts to test");
  args.add_option("poll-intervals", "50,100,500,1000",
                  "poll intervals in microseconds");
  args.add_option("startup", "100", "CommStartupTime in microseconds");
  try {
    if (!args.parse(argc, argv)) return 0;

    std::vector<int> procs;
    for (const auto& s : util::split(args.get("procs"), ','))
      procs.push_back(std::stoi(s));
    std::vector<std::string> poll_labels;
    std::vector<util::Time> intervals;
    for (const auto& s : util::split(args.get("poll-intervals"), ',')) {
      const double us = std::stod(s);
      poll_labels.push_back("poll " + util::Table::num(us) + "us");
      intervals.push_back(util::Time::us(us));
    }

    std::vector<std::string> headers{"procs", "no-interrupt", "interrupt"};
    headers.insert(headers.end(), poll_labels.begin(), poll_labels.end());
    headers.push_back("best");
    util::Table t(headers);

    auto params = model::distributed_preset();
    params.comm.comm_startup = util::Time::us(args.get_double("startup"));
    for (int n : procs) {
      // Measure, translate and compile once per processor count; the
      // tuner re-simulates the compiled trace under every policy.
      auto prog = suite::make_by_name(args.get("bench"));
      rt::MeasureOptions mo;
      mo.n_threads = n;
      const core::TranslatedTrace prepared =
          core::prepare_trace(rt::measure(*prog, mo));
      const core::PolicyChoice c =
          core::choose_service_policy(prepared.compiled, params, intervals);

      std::vector<std::string> row{std::to_string(n),
                                   c.no_interrupt_time.str(),
                                   c.interrupt_time.str()};
      for (const auto& [interval, time] : c.poll.tried)
        row.push_back(time.str());
      if (c.policy == model::ServicePolicy::Poll) {
        // The tuner keeps the first of equal minima, as does this search.
        std::size_t i = 0;
        while (c.poll.tried[i].first != c.poll.best_interval) ++i;
        row.push_back(poll_labels[i]);
      } else {
        row.push_back(c.policy == model::ServicePolicy::NoInterrupt
                          ? "no-interrupt"
                          : "interrupt");
      }
      t.add_row(std::move(row));
    }

    std::cout << "benchmark: " << args.get("bench")
              << "  (CommStartupTime = " << args.get("startup") << "us)\n\n"
              << t.to_text()
              << "\nEach row reuses one 1-processor measurement for all "
              << 2 + intervals.size() << " policy simulations.\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
