// The pC++-model runtime interface.
//
// pC++ programs are written against this abstract Runtime: SPMD thread
// bodies that charge computation, synchronize at global barriers, and access
// collection elements (remote when not owned).  Two implementations exist:
//
//  * MeasureRuntime (this module) — the paper's measurement environment:
//    all n threads run on one processor under non-preemptive fibers with a
//    single shared virtual clock, remote accesses are served instantly from
//    the global space, and every interaction is traced (§3.2).
//  * machine::MachineRuntime — the direct-execution machine simulator used
//    for validation, where the same interactions incur modeled costs while
//    the program runs.
//
// A Program bundles one parallel code: collection allocation in setup(),
// the SPMD body in thread_main(), and a post-run numerical check in
// verify().
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "rt/machine.hpp"
#include "trace/trace.hpp"
#include "util/time.hpp"

namespace xp::rt {

using util::Time;

class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual int n_threads() const = 0;
  /// Id of the thread executing the current call; only valid inside
  /// thread_main().
  virtual int thread_id() const = 0;

  /// Charge floating-point work to the current thread (converted to time by
  /// the environment's processor rating).
  virtual void compute_flops(double flops) = 0;
  /// Charge raw time to the current thread.
  virtual void compute_time(Time t) = 0;

  /// Global barrier across all threads (records entry/exit events).
  virtual void barrier() = 0;

  /// User phase markers (appear in traces; ignored by the models).
  virtual void phase_begin(std::int64_t id) = 0;
  virtual void phase_end(std::int64_t id) = 0;

  /// Pattern-region delimiters (xp::pattern).  `pattern_kind` is the
  /// node's pattern::Kind on the wire, `region` its structural region id
  /// (>= 1), `detail` the node's structural size (stages/items/tasks).
  /// Zero-cost markers: the measurement runtime records them as
  /// PatternBegin/PatternEnd trace events; other runtimes may ignore them
  /// (the default implementations are no-ops so direct-execution
  /// environments stay pattern-oblivious).
  virtual void pattern_begin(std::int32_t pattern_kind, std::int64_t region,
                             std::int32_t detail) {
    (void)pattern_kind, (void)region, (void)detail;
  }
  virtual void pattern_end(std::int32_t pattern_kind, std::int64_t region) {
    (void)pattern_kind, (void)region;
  }

  /// Access hooks invoked by Collection<T>.  The data transfer itself is a
  /// direct global-space copy in every implementation; these hooks account
  /// for the interaction (tracing or cost simulation).
  virtual void on_remote_read(int owner, std::int64_t object,
                              std::int32_t declared_bytes,
                              std::int32_t actual_bytes) = 0;
  virtual void on_remote_write(int owner, std::int64_t object,
                               std::int32_t declared_bytes,
                               std::int32_t actual_bytes) = 0;
};

class Program {
 public:
  virtual ~Program() = default;

  virtual std::string name() const = 0;

  /// Runs once before the threads start; allocate collections here.
  virtual void setup(Runtime& rt) = 0;

  /// The SPMD thread body; runs in every thread.
  virtual void thread_main(Runtime& rt) = 0;

  /// Numerical self-check after the run; throw util::Error on failure.
  /// measure() calls it after every run and rethrows a failure as
  /// util::Error naming the program and thread count.  A check may compare
  /// against a reference shared across measurements (suite/reference.hpp);
  /// such a reference must be a pure function of its key — the exact
  /// configuration fields (and thread count, if the result's round-off
  /// depends on it) that it reads.
  virtual void verify() {}
};

/// Options for a measured (1-processor, n-thread) run.
struct MeasureOptions {
  int n_threads = 4;
  HostMachine host;  ///< defaults to the Sun 4 rating
};

/// Execute `prog` with n threads on the 1-processor measurement environment
/// and return the recorded trace (merged, time-ordered, validated).
trace::Trace measure(Program& prog, const MeasureOptions& opt);

/// Event count recorded by the most recent measure() of this (program,
/// n_threads) configuration, or 0 if it has not run in this process.  The
/// next measure() of the same configuration uses it as the tracer capacity
/// hint so a rerun reserves its event log once; exposed for tests.
std::int64_t measured_event_hint(const std::string& program, int n_threads);

}  // namespace xp::rt
