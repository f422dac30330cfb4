#include "net/network.hpp"

#include <utility>

#include "util/error.hpp"

namespace xp::net {

Network::Network(sim::Engine& engine, const CommParams& comm,
                 const NetworkParams& params, int n_procs)
    : engine_(engine),
      comm_(comm),
      topo_(params.topology, n_procs),
      contention_(params.contention, topo_) {}

void Network::send(int src, int dst, std::int64_t bytes,
                   DeliveryFn on_delivery) {
  const Time wire = preview_wire(src, dst, bytes);
  contention_.inject();
  ++messages_;
  bytes_ += bytes;
  engine_.schedule_after(wire, [this, cb = std::move(on_delivery)]() mutable {
    contention_.deliver();
    cb();
  });
}

void Network::replay(std::int64_t messages, std::int64_t bytes,
                     const std::vector<std::int32_t>& samples) {
  messages_ += messages;
  bytes_ += bytes;
  contention_.replay_samples(samples);
}

Time Network::preview_wire(int src, int dst, std::int64_t bytes) const {
  return wire_time(comm_, topo_.hops(src, dst), bytes,
                   contention_.multiplier());
}

}  // namespace xp::net
