#include "net/network.hpp"

namespace xp::net {

Network::Network(sim::Engine& engine, const CommParams& comm,
                 const NetworkParams& params, int n_procs)
    : engine_(engine),
      comm_(comm),
      topo_(params.topology, n_procs),
      contention_(params.contention, topo_) {}

Time Network::preview_wire(int src, int dst, std::int64_t bytes) const {
  return wire_time(comm_, topo_.hops(src, dst), bytes,
                   contention_.multiplier());
}

}  // namespace xp::net
