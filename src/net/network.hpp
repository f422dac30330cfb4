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
#include <vector>

#include "net/contention.hpp"
#include "net/message_cost.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "util/inplace_function.hpp"
#include "util/stats.hpp"

namespace xp::net {

struct NetworkParams {
  TopologyKind topology = TopologyKind::FatTree;
  ContentionParams contention;
};

class Network {
 public:
  /// Delivery continuation, stored inline (no allocation per message).
  /// Sized so the engine-side wrapper — a Network* plus this object —
  /// still fits the engine's inline callback buffer exactly.
  static constexpr std::size_t kDeliveryCaptureBytes =
      sim::Engine::kInlineCallbackBytes - sizeof(void*) - 2 * sizeof(void*);
  using DeliveryFn = util::InplaceFunction<void(), kDeliveryCaptureBytes>;

  Network(sim::Engine& engine, const CommParams& comm,
          const NetworkParams& params, int n_procs);

  /// Inject a message of `bytes` at the current simulation time; the
  /// callback runs at the delivery instant.
  void send(int src, int dst, std::int64_t bytes, DeliveryFn on_delivery);

  /// Wire time a message would see if injected right now (no injection).
  Time preview_wire(int src, int dst, std::int64_t bytes) const;

  const Topology& topology() const { return topo_; }

  // Aggregate statistics for reports.
  std::int64_t messages_sent() const { return messages_; }
  std::int64_t bytes_sent() const { return bytes_; }
  const util::RunningStat& load_samples() const {
    return contention_.load_samples();
  }
  /// Messages injected and not yet delivered.
  int inflight() const { return contention_.inflight(); }

  /// While `log` is non-null, append each injection's load sample to it.
  void log_samples(std::vector<std::int32_t>* log) {
    contention_.log_samples(log);
  }
  /// Account for traffic replayed instead of simulated: `messages`
  /// messages of `bytes` in total whose injection-time load samples were
  /// `samples` (as logged), leaving every statistic as if they had been
  /// sent.
  void replay(std::int64_t messages, std::int64_t bytes,
              const std::vector<std::int32_t>& samples);

 private:
  sim::Engine& engine_;
  CommParams comm_;
  Topology topo_;
  ContentionTracker contention_;
  std::int64_t messages_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace xp::net
