// The pC++ benchmark suite (Table 2) plus the Matmul validation program.
//
//   Embar   — NAS "embarrassingly parallel": Gaussian deviates by annulus,
//             one terminal reduction; near-linear speedup everywhere.
//   Cyclic  — cyclic reduction of a tridiagonal system; neighbor distance
//             doubles each step, so communication grows over the sweep.
//   Sparse  — NAS-style random sparse conjugate gradient; gathers of the
//             direction vector dominate (communication heavy).
//   Grid    — Poisson equation by Jacobi on a 2D block grid; few barriers,
//             ghost-boundary exchanges; the Figure 5 subject (declared
//             element size 231456 bytes vs 2/128 actual bytes).
//   Mgrid   — multigrid V-cycles; coarse levels leave processors idle and
//             raise the communication/computation ratio.
//   Poisson — fast Poisson solver: local sine transforms + tridiagonal
//             solves with full transposes between (bursty communication).
//   Sort    — bitonic sort over per-thread key blocks; whole-block
//             exchanges, log^2(n) stages.
//   Matmul  — the §4.2 validation program (broadcast row, pointwise
//             multiply, right-to-left row reduction) under any 2D
//             distribution combination.
//
// Every program charges its floating-point work explicitly (deterministic
// virtual time) and verifies its numerical result against a sequential
// reference after the run.  All programs run at any thread count >= 1
// (power-of-two counts for Sort), with total problem size fixed (strong
// scaling), matching the paper's 1..32-processor sweeps.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rt/distribution.hpp"
#include "rt/runtime.hpp"

namespace xp::suite {

/// Problem-size knobs (defaults sized for sub-second experiment sweeps).
struct SuiteConfig {
  // Embar
  std::int64_t embar_pairs = 1 << 17;
  // Cyclic
  std::int64_t cyclic_size = 512;  ///< equations (power of two)
  int cyclic_width = 32;           ///< independent right-hand sides per eq
  // Sparse
  std::int64_t sparse_size = 2048;
  int sparse_nnz_per_row = 8;
  int sparse_iters = 4;
  // Grid
  std::int64_t grid_blocks = 8;         ///< blocks per dimension
  std::int64_t grid_block_points = 64;  ///< points per block dimension
  int grid_iters = 30;
  std::int32_t grid_declared_bytes = 231456;  ///< §4.1's element size
  // Mgrid
  std::int64_t mgrid_size = 32;  ///< finest grid points per dimension (pow2)
  int mgrid_depth = 32;          ///< values per cell (pseudo-3D, as NAS MG)
  int mgrid_cycles = 2;
  // Poisson
  std::int64_t poisson_size = 64;
  // Sort
  std::int64_t sort_keys = 16384;
  // Matmul
  std::int64_t matmul_n = 16;
  // Pattern workloads (pipestencil / mrhist / taskgraph; pattern/pattern.hpp)
  int pipe_stages = 8;            ///< pipeline stages
  std::int64_t pipe_items = 48;   ///< items streamed through the pipeline
  std::int64_t pat_items = 1 << 13;  ///< mapreduce items
  int pat_bins = 8;               ///< histogram bins (<= 16)
  int pat_tasks = 64;             ///< task-pool tasks at the widest level
  int pat_levels = 3;             ///< task-graph BFS levels
};

std::unique_ptr<rt::Program> make_embar(const SuiteConfig& cfg = {});
std::unique_ptr<rt::Program> make_cyclic(const SuiteConfig& cfg = {});
std::unique_ptr<rt::Program> make_sparse(const SuiteConfig& cfg = {});
std::unique_ptr<rt::Program> make_grid(const SuiteConfig& cfg = {});
std::unique_ptr<rt::Program> make_mgrid(const SuiteConfig& cfg = {});
std::unique_ptr<rt::Program> make_poisson(const SuiteConfig& cfg = {});
std::unique_ptr<rt::Program> make_sort(const SuiteConfig& cfg = {});

/// Matmul with the two per-dimension distribution attributes of §4.2.
std::unique_ptr<rt::Program> make_matmul(rt::Dist d_row, rt::Dist d_col,
                                         const SuiteConfig& cfg = {});

// Pattern-composed workloads (xp::pattern trees; patterns.cpp):
//   pipestencil — mapreduce init, software-pipelined stencil sweep,
//                 mapreduce residual check (a Sequence of three nodes);
//   mrhist      — histogram mapreduce with a binary combining tree (a
//                 single leaf node — no nesting);
//   taskgraph   — one task pool per BFS level of a synthetic task DAG,
//                 heterogeneous declared costs, greedy list scheduling.
std::unique_ptr<rt::Program> make_pipestencil(const SuiteConfig& cfg = {});
std::unique_ptr<rt::Program> make_mrhist(const SuiteConfig& cfg = {});
std::unique_ptr<rt::Program> make_taskgraph(const SuiteConfig& cfg = {});

/// The pattern workload names (NOT part of benchmark_names(): Table 2 is
/// the paper's fixed inventory and the tab2 bench iterates it verbatim).
const std::vector<std::string>& pattern_benchmark_names();

/// Region id -> "kind:label" for a pattern benchmark's tree, built without
/// running it (labels composed models and experiment-file callpaths).
/// Throws util::Error for non-pattern names.
std::map<std::int64_t, std::string> pattern_labels(const std::string& name,
                                                   const SuiteConfig& cfg = {});

/// The Table 2 names, in paper order.
const std::vector<std::string>& benchmark_names();

/// Factory by Table 2 name (lowercase); throws util::Error for unknown
/// names.  "matmul" yields the (Block, Block) variant.
std::unique_ptr<rt::Program> make_by_name(const std::string& name,
                                          const SuiteConfig& cfg = {});

/// One-line description per benchmark (Table 2's description column).
std::string describe(const std::string& name);

/// Number of verify() references `program` has built in this process (each
/// is built once per distinct key; suite/reference.hpp).  Exposed for tests.
std::int64_t reference_builds(const std::string& program);

}  // namespace xp::suite
