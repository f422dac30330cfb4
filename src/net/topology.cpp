#include "net/topology.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace xp::net {

const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::Bus:
      return "bus";
    case TopologyKind::Ring:
      return "ring";
    case TopologyKind::Mesh2D:
      return "mesh2d";
    case TopologyKind::Torus2D:
      return "torus2d";
    case TopologyKind::Hypercube:
      return "hypercube";
    case TopologyKind::FatTree:
      return "fattree";
    case TopologyKind::Crossbar:
      return "crossbar";
  }
  return "?";
}

Topology::Topology(TopologyKind kind, int n_procs) : kind_(kind), n_(n_procs) {
  XP_REQUIRE(n_ > 0, "topology needs at least one processor");
  if (kind_ == TopologyKind::Mesh2D || kind_ == TopologyKind::Torus2D) {
    // Near-square factorization: columns = ceil(sqrt(n)).
    mesh_cols_ = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n_))));
  }
}

int Topology::hops(int a, int b) const {
  XP_REQUIRE(a >= 0 && a < n_ && b >= 0 && b < n_, "processor id out of range");
  if (a == b) return 0;
  switch (kind_) {
    case TopologyKind::Bus:
    case TopologyKind::Crossbar:
      return 1;
    case TopologyKind::Ring: {
      const int d = std::abs(a - b);
      return std::min(d, n_ - d);
    }
    case TopologyKind::Mesh2D: {
      const int ar = a / mesh_cols_, ac = a % mesh_cols_;
      const int br = b / mesh_cols_, bc = b % mesh_cols_;
      return std::abs(ar - br) + std::abs(ac - bc);
    }
    case TopologyKind::Torus2D: {
      const int rows = (n_ + mesh_cols_ - 1) / mesh_cols_;
      const int ar = a / mesh_cols_, ac = a % mesh_cols_;
      const int br = b / mesh_cols_, bc = b % mesh_cols_;
      const int dr = std::abs(ar - br), dc = std::abs(ac - bc);
      return std::min(dr, rows - dr) + std::min(dc, mesh_cols_ - dc);
    }
    case TopologyKind::Hypercube:
      return std::popcount(static_cast<unsigned>(a ^ b));
    case TopologyKind::FatTree: {
      // 4-ary fat tree: find the level of the least common ancestor.
      unsigned x = static_cast<unsigned>(a), y = static_cast<unsigned>(b);
      int level = 0;
      while (x != y) {
        x /= 4;
        y /= 4;
        ++level;
      }
      return 2 * level;
    }
  }
  return 1;
}

double Topology::capacity() const {
  const double p = static_cast<double>(n_);
  switch (kind_) {
    case TopologyKind::Bus:
      return 1.0;
    case TopologyKind::Ring:
      return 2.0;
    case TopologyKind::Mesh2D:
      return std::sqrt(p);
    case TopologyKind::Torus2D:
      return 2.0 * std::sqrt(p);  // wraparound doubles the bisection
    case TopologyKind::Hypercube:
    case TopologyKind::FatTree:
      return std::max(1.0, p / 2.0);
    case TopologyKind::Crossbar:
      return p;
  }
  return 1.0;
}

std::string Topology::str() const {
  std::ostringstream os;
  os << to_string(kind_) << "(" << n_ << ")";
  return os.str();
}

}  // namespace xp::net
