// The interconnection network component.
//
// Ties the topology, analytic message costs, and contention tracker to the
// discrete-event engine: send() injects a message now and schedules its
// delivery callback at arrival time.  CPU-side costs (message build,
// start-up, receive handling) are charged by the processor models, not
// here — the network owns only wire time, matching the component split of
// Figure 3.
#pragma once

#include <cstdint>
#include <utility>

#include "net/contention.hpp"
#include "net/message_cost.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace xp::net {

struct NetworkParams {
  TopologyKind topology = TopologyKind::FatTree;
  ContentionParams contention;
};

class Network {
 public:
  Network(sim::Engine& engine, const CommParams& comm,
          const NetworkParams& params, int n_procs);

  /// Inject a message of `bytes` at the current simulation time; the
  /// callable `on_delivery` runs at the delivery instant.  It is built
  /// straight into the engine's inline callback, beside this Network's
  /// pointer, so it must fit the rest of that buffer (a compile error
  /// otherwise) and nothing allocates per message.
  template <class F>
  void send(int src, int dst, std::int64_t bytes, F&& on_delivery) {
    const Time wire = preview_wire(src, dst, bytes);
    contention_.inject();
    bytes_ += bytes;
    engine_.schedule_after(
        wire, [this, cb = std::forward<F>(on_delivery)]() mutable {
          contention_.deliver();
          cb();
        });
  }

  /// Wire time a message would see if injected right now (no injection).
  Time preview_wire(int src, int dst, std::int64_t bytes) const;

  const Topology& topology() const { return topo_; }

  // Aggregate statistics for reports.
  std::int64_t messages_sent() const { return contention_.injections(); }
  std::int64_t bytes_sent() const { return bytes_; }
  /// Sum over every message of the in-flight count it saw at injection.
  std::int64_t load_sum() const { return contention_.load_sum(); }
  /// Mean in-flight messages at injection.
  double avg_inflight() const { return contention_.mean_load(); }
  /// Messages injected and not yet delivered.
  int inflight() const { return contention_.inflight(); }

  /// Account for traffic replayed instead of simulated: `messages`
  /// messages of `bytes` in total whose injection-time in-flight counts
  /// sum to `load_sum`, leaving every statistic as if they had been sent.
  void replay(std::int64_t messages, std::int64_t bytes,
              std::int64_t load_sum) {
    contention_.replay(messages, load_sum);
    bytes_ += bytes;
  }

 private:
  sim::Engine& engine_;
  CommParams comm_;
  Topology topo_;
  ContentionTracker contention_;
  std::int64_t bytes_ = 0;
};

}  // namespace xp::net
