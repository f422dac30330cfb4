// Interconnection network topologies.
//
// The remote-data-access model parameterizes the wire time of a message by
// the hop distance between source and destination processors.  Topologies
// here cover the systems the paper targets: a bus / shared-memory backplane
// (uniform single hop), ring, 2D mesh, hypercube, crossbar, and the CM-5's
// 4-ary fat tree (hop count = 2 * level of the least common ancestor).
#pragma once

#include <cstdint>
#include <string>

namespace xp::net {

enum class TopologyKind : std::uint8_t {
  Bus,       ///< every pair 1 hop (also models shared-memory transfer)
  Ring,      ///< bidirectional ring, shortest way round
  Mesh2D,    ///< near-square 2D mesh, dimension-ordered (Manhattan) routing
  Torus2D,   ///< 2D mesh with wraparound links
  Hypercube, ///< hop count = popcount(a xor b)
  FatTree,   ///< 4-ary fat tree (CM-5): 2 * LCA level
  Crossbar,  ///< every distinct pair 1 hop, self 0
};

const char* to_string(TopologyKind k);

class Topology {
 public:
  Topology(TopologyKind kind, int n_procs);

  TopologyKind kind() const { return kind_; }
  int n_procs() const { return n_; }

  /// Number of network hops between two processors (0 for a == b).
  int hops(int a, int b) const;

  /// A rough bisection-width proxy used to normalize the contention model:
  /// the number of messages the network can carry concurrently without
  /// noticeable queueing.
  double capacity() const;

  std::string str() const;

 private:
  TopologyKind kind_;
  int n_;
  int mesh_cols_ = 1;  // for Mesh2D
};

}  // namespace xp::net
