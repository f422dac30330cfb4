// Extra-P experiment-file export for pattern sweeps.
//
// Writes a gathered pattern Experiment (compose.hpp) in the line-oriented
// text input format of the Extra-P modeling tool (PAPERS.md: Calotoiu et
// al.), so composed sweeps can be cross-checked against the reference
// modeler:
//
//   PARAMETER n
//   POINTS 1 2 4 8
//   EXPERIMENT <name>
//   METRIC time_us
//   CALLPATH main
//   DATA <total(1)> <total(2)> ...
//   CALLPATH main->seq:root#1->pipeline:sweep#2
//   DATA <span(1)> <span(2)> ...
//
// One CALLPATH per pattern region, its path spelling out the nesting from
// the root; DATA values are the region's INCLUSIVE span in microseconds at
// each point (Extra-P convention — it derives exclusive times from the
// call tree itself).  Values print with enough digits to round-trip
// doubles, so exports are bitwise reproducible.
#pragma once

#include <iosfwd>
#include <string>

#include "pattern/compose.hpp"

namespace xp::pattern {

void write_extrap(const Experiment& e, std::ostream& os);

}  // namespace xp::pattern
