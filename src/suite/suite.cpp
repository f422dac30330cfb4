#include "suite/suite.hpp"

#include <mutex>

#include "suite/reference.hpp"
#include "util/error.hpp"

namespace xp::suite {

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = {
      "embar", "cyclic", "sparse", "grid", "mgrid", "poisson", "sort"};
  return names;
}

std::unique_ptr<rt::Program> make_by_name(const std::string& name,
                                          const SuiteConfig& cfg) {
  if (name == "embar") return make_embar(cfg);
  if (name == "cyclic") return make_cyclic(cfg);
  if (name == "sparse") return make_sparse(cfg);
  if (name == "grid") return make_grid(cfg);
  if (name == "mgrid") return make_mgrid(cfg);
  if (name == "poisson") return make_poisson(cfg);
  if (name == "sort") return make_sort(cfg);
  if (name == "matmul")
    return make_matmul(rt::Dist::Block, rt::Dist::Block, cfg);
  if (name == "pipestencil") return make_pipestencil(cfg);
  if (name == "mrhist") return make_mrhist(cfg);
  if (name == "taskgraph") return make_taskgraph(cfg);
  throw util::Error("unknown benchmark: " + name);
}

std::string describe(const std::string& name) {
  if (name == "embar") return "NAS \"embarrassingly parallel\" benchmark";
  if (name == "cyclic") return "Cyclic reduction computation";
  if (name == "sparse")
    return "NAS random sparse conjugate gradient benchmark";
  if (name == "grid") return "Poisson equation on a two dimensional grid";
  if (name == "mgrid") return "NAS multigrid solver benchmark";
  if (name == "poisson") return "Fast Poisson solver";
  if (name == "sort") return "Bitonic sort module";
  if (name == "matmul") return "Matrix multiplication (validation program)";
  if (name == "pipestencil")
    return "Pipelined stencil sweep between mapreduce phases (patterns)";
  if (name == "mrhist") return "Histogram by tree-combined mapreduce (patterns)";
  if (name == "taskgraph")
    return "Task-graph traversal as per-level task pools (patterns)";
  throw util::Error("unknown benchmark: " + name);
}

namespace {

struct BuildCounts {
  std::mutex mu;
  std::map<std::string, std::int64_t> by_program;

  static BuildCounts& instance() {
    static BuildCounts c;
    return c;
  }
};

}  // namespace

void detail::note_reference_build(const std::string& program) {
  auto& c = BuildCounts::instance();
  std::lock_guard<std::mutex> lock(c.mu);
  ++c.by_program[program];
}

std::int64_t reference_builds(const std::string& program) {
  auto& c = BuildCounts::instance();
  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.by_program.find(program);
  return it != c.by_program.end() ? it->second : 0;
}

}  // namespace xp::suite
