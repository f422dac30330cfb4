// High-level trace events.
//
// These are exactly the event classes the paper's instrumentation records
// (§3.2): barrier entry/exit and remote element accesses, plus begin/end
// markers and optional user phase markers.  The time between two consecutive
// events of one thread is that thread's computation time — the quantity the
// extrapolation reuses.
//
// Every remote access carries BOTH the compiler-declared transfer size (the
// whole collection element, what the paper's original measurement assumed)
// and the actual number of bytes moved (what the optimizing compiler
// really requests).  Keeping both in the trace makes the Figure 5 "Grid"
// investigation a pure simulation-parameter switch.
#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace xp::trace {

using util::Time;

enum class EventKind : std::uint8_t {
  ThreadBegin = 0,   ///< first event of each thread
  ThreadEnd = 1,     ///< last event of each thread
  BarrierEntry = 2,  ///< thread arrived at global barrier #barrier_id
  BarrierExit = 3,   ///< thread released from global barrier #barrier_id
  RemoteRead = 4,    ///< read of element `object` owned by thread `peer`
  RemoteWrite = 5,   ///< write of element `object` owned by thread `peer`
  PhaseBegin = 6,    ///< user-level phase marker (id in `object`)
  PhaseEnd = 7,
  /// Pattern-region delimiters (xp::pattern).  `object` carries the region
  /// id (>= 1, stable across thread counts for one program structure),
  /// `barrier_id` carries the pattern kind (pattern::Kind on the wire) and
  /// — on PatternBegin only — `declared_bytes` carries the node's
  /// structural size (stages / items / tasks) for reports.  Regions nest:
  /// each thread's PatternEnd closes its innermost open PatternBegin.
  PatternBegin = 8,
  PatternEnd = 9,
};

const char* to_string(EventKind k);
bool kind_from_string(const std::string& s, EventKind& out);

constexpr bool is_remote(EventKind k) {
  return k == EventKind::RemoteRead || k == EventKind::RemoteWrite;
}
constexpr bool is_pattern(EventKind k) {
  return k == EventKind::PatternBegin || k == EventKind::PatternEnd;
}

struct Event {
  Time time;                    ///< timestamp in the recording environment
  std::int32_t thread = 0;      ///< issuing thread
  EventKind kind = EventKind::ThreadBegin;
  std::int32_t barrier_id = -1;  ///< barrier instance (per-program counter)
  std::int32_t peer = -1;        ///< owner thread for remote accesses
  std::int64_t object = -1;      ///< global element index / phase id
  std::int32_t declared_bytes = 0;  ///< compiler-declared transfer size
  std::int32_t actual_bytes = 0;    ///< bytes actually moved

  bool operator==(const Event&) const = default;

  std::string str() const;
};

}  // namespace xp::trace
