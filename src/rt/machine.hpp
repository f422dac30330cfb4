// Description of the measurement (host) execution environment — the E1 of
// the extrapolation.  The paper measured on a Sun 4 rated at 1.1360 MFLOPS
// by a simple floating-point benchmark; that rating is the default here and
// is what converts a program's charged floating-point work into virtual
// computation time between trace events.
#pragma once

#include <string>

#include "util/time.hpp"

namespace xp::rt {

using util::Time;

struct HostMachine {
  /// Processor rating used to convert charged flops to time:
  /// t [us] = flops / mflops.
  double mflops = 1.1360;

  /// Clock source for event timestamps.
  ///
  ///  * Virtual (default): compute_flops() advances a deterministic clock
  ///    by flops/mflops — traces are bit-reproducible, and the Sun 4
  ///    rating makes them "as measured on the paper's host".
  ///  * HostClock: timestamps come from the real wall clock, exactly as
  ///    the paper measured on its Sun 4 — the benchmark's actual
  ///    computation time (including this machine's cache behaviour and OS
  ///    noise) lands in the trace.  Traces are NOT reproducible run to
  ///    run; instrumentation and switch overheads are real rather than
  ///    modeled, so event_overhead/flush/switch parameters are ignored.
  enum class ClockMode { Virtual, HostClock };
  ClockMode clock_mode = ClockMode::Virtual;

  /// Instrumentation cost added to the virtual clock per recorded event
  /// (models trace perturbation; the translator can remove it again).
  Time event_overhead = Time::zero();

  /// Trace-buffer flushing (§3.2): every `flush_every` recorded events the
  /// runtime writes the buffer out, charging `flush_cost` to the clock.
  /// 0 disables flushing.  The translator removes these charges too.
  std::int64_t flush_every = 0;
  Time flush_cost = Time::zero();

  /// Cost of a fiber context switch at synchronization boundaries.
  Time switch_overhead = Time::zero();

  std::string name = "sun4";
};

/// Rate THIS machine with a simple floating-point benchmark (the way the
/// paper rated the Sun 4 and the CM-5 node), for use with
/// ClockMode::HostClock: the returned MFLOPS becomes the measured
/// environment's processor rating in the MipsRatio calculation.
double calibrate_mflops(int iterations = 5);

}  // namespace xp::rt
