// whatif_client — talk to a running whatif_server.
//
// Opens one session (an uploaded .xpt/.xptb trace file, or a benchmark by
// name), pipelines a batch of what-if queries over the requested presets
// and MIPS ratios, and prints the predictions as a table.  The daemon does
// the measuring/translating once; every variation after that is pure
// simulation against its warm cache.
//
//   ./whatif_client --socket=/tmp/xp.sock --bench=grid --procs=4
//       --presets=distributed,shared,ideal
//   ./whatif_client --tcp=7070 --trace=run.xptb --procs=4 --mips=1,2,4
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "serve/client.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace xp;

int main(int argc, char** argv) {
  util::ArgParser args("whatif_client",
                       "query a running what-if extrapolation daemon");
  args.add_option("socket", "", "unix-domain socket path of the server");
  args.add_option("tcp", "-1", "loopback TCP port of the server");
  args.add_option("trace", "", "measured trace file to upload (.xpt/.xptb)");
  args.add_option("bench", "", "benchmark-suite program name instead");
  args.add_option("procs", "4", "comma list of target processor counts");
  args.add_option("presets", "distributed",
                  "comma list of machine presets to compare");
  args.add_option("mips", "", "comma list of MIPS ratios (empty = preset's)");
  args.add_flag("stats", "print server statistics after the queries");
  args.add_flag("shutdown", "ask the server to drain and exit afterwards");
  try {
    if (!args.parse(argc, argv)) return 0;

    serve::Client client =
        args.get("socket").empty()
            ? serve::Client::connect_tcp(static_cast<int>(args.get_int("tcp")))
            : serve::Client::connect_unix(args.get("socket"));

    std::uint64_t session = 0;
    if (!args.get("trace").empty()) {
      std::ifstream in(args.get("trace"), std::ios::binary);
      if (!in) {
        std::cerr << "error: cannot open " << args.get("trace") << '\n';
        return 1;
      }
      std::ostringstream bytes;
      bytes << in.rdbuf();
      session = client.load_trace_bytes(bytes.str());
    } else if (!args.get("bench").empty()) {
      session = client.open_bench(args.get("bench"));
    } else if (args.has("shutdown")) {
      // Bare `--shutdown`: no session, just drain the server and exit.
      client.shutdown_server();
      return 0;
    } else {
      std::cerr << "error: need --trace or --bench\n" << args.usage();
      return 1;
    }

    // One pipelined batch: every (preset, procs, mips) combination.
    const auto presets = util::split(args.get("presets"), ',');
    std::vector<double> ratios;
    for (const auto& m : util::split(args.get("mips"), ','))
      if (!m.empty()) ratios.push_back(std::stod(m));
    if (ratios.empty()) ratios.push_back(0.0);  // keep the preset's ratio
    std::vector<serve::Query> queries;
    std::vector<std::string> row_labels;
    for (const auto& procs : util::split(args.get("procs"), ',')) {
      for (const auto& preset : presets) {
        for (double mips : ratios) {
          serve::Query q;
          q.n_procs = std::stoi(procs);
          q.mips_ratio = mips;
          q.params_text = "preset = " + preset;
          queries.push_back(std::move(q));
          std::string label = preset + " n=" + procs;
          if (mips > 0) label += " mips=" + util::Table::fixed(mips, 1);
          row_labels.push_back(std::move(label));
        }
      }
    }
    const auto results = client.query_batch(session, queries);

    util::Table table({"what-if", "predicted ms", "ideal ms", "compute ms",
                       "comm ms", "barrier ms", "msgs"});
    bool any_failed = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const serve::QueryResult& r = results[i];
      if (!r.ok) {
        std::cerr << row_labels[i] << ": " << r.error << '\n';
        any_failed = true;
        continue;
      }
      const auto ms = [](std::int64_t ns) {
        return util::Table::fixed(static_cast<double>(ns) / 1e6, 3);
      };
      table.add_row({row_labels[i], ms(r.predicted_ns), ms(r.ideal_ns),
                     ms(r.compute_ns), ms(r.comm_wait_ns), ms(r.barrier_wait_ns),
                     std::to_string(r.messages)});
    }
    table.print(std::cout);

    if (args.has("stats")) {
      const serve::ServerStats s = client.stats();
      std::cout << "\nserver: " << s.queries_ok << " queries ok, "
                << s.queries_err << " failed, " << s.cache_hits
                << " cache hits / " << s.cache_misses << " misses / "
                << s.cache_evictions << " evictions, "
                << s.cache_bytes / 1024 << " KiB cached across "
                << s.cache_entries << " entries\n"
                << "cpu-s: measure " << util::Table::fixed(s.measure_cpu_s, 3)
                << "  translate " << util::Table::fixed(s.translate_cpu_s, 3)
                << "  simulate " << util::Table::fixed(s.simulate_cpu_s, 3)
                << "\nsimulate:";
      for (const core::SimCounterField& f : core::kSimCounterFields)
        std::cout << ' ' << f.key << '=' << s.sim.*f.member;
      std::cout << '\n';
    }
    client.close_session(session);
    if (args.has("shutdown")) client.shutdown_server();
    if (any_failed) return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
