// Unit tests for topologies, message costs, contention, and the network.
#include <gtest/gtest.h>

#include "net/contention.hpp"
#include "net/message_cost.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace xp::net {
namespace {

using util::Time;

TEST(Topology, BusAndCrossbarAreSingleHop) {
  for (auto kind : {TopologyKind::Bus, TopologyKind::Crossbar}) {
    const Topology t(kind, 8);
    EXPECT_EQ(t.hops(3, 3), 0);
    EXPECT_EQ(t.hops(0, 7), 1);
  }
}

TEST(Topology, RingShortestWay) {
  const Topology t(TopologyKind::Ring, 8);
  EXPECT_EQ(t.hops(0, 1), 1);
  EXPECT_EQ(t.hops(0, 4), 4);
  EXPECT_EQ(t.hops(0, 7), 1);  // wraps
}

TEST(Topology, Mesh2DManhattan) {
  const Topology t(TopologyKind::Mesh2D, 16);  // 4x4
  EXPECT_EQ(t.hops(0, 3), 3);
  EXPECT_EQ(t.hops(0, 12), 3);
  EXPECT_EQ(t.hops(0, 15), 6);
}

TEST(Topology, Torus2DWrapsAround) {
  const Topology t(TopologyKind::Torus2D, 16);  // 4x4
  EXPECT_EQ(t.hops(0, 3), 1);   // wraps the row: 3 -> 0 is one link
  EXPECT_EQ(t.hops(0, 12), 1);  // wraps the column
  EXPECT_EQ(t.hops(0, 15), 2);
  EXPECT_EQ(t.hops(0, 5), 2);
  // Torus never exceeds the mesh.
  const Topology mesh(TopologyKind::Mesh2D, 16);
  for (int a = 0; a < 16; ++a)
    for (int b = 0; b < 16; ++b) EXPECT_LE(t.hops(a, b), mesh.hops(a, b));
  EXPECT_GT(t.capacity(), mesh.capacity());
}

TEST(Topology, HypercubePopcount) {
  const Topology t(TopologyKind::Hypercube, 8);
  EXPECT_EQ(t.hops(0, 7), 3);
  EXPECT_EQ(t.hops(5, 6), 2);  // 101 ^ 110 = 011
}

TEST(Topology, FatTreeLcaLevels) {
  const Topology t(TopologyKind::FatTree, 32);
  EXPECT_EQ(t.hops(0, 1), 2);    // siblings under one level-1 switch
  EXPECT_EQ(t.hops(0, 4), 4);    // LCA at level 2
  EXPECT_EQ(t.hops(0, 16), 6);   // LCA at level 3
  EXPECT_EQ(t.hops(9, 9), 0);
}

TEST(Topology, CapacityOrdering) {
  // Bus < mesh < fat tree <= crossbar for the same size.
  const int n = 16;
  const double bus = Topology(TopologyKind::Bus, n).capacity();
  const double mesh = Topology(TopologyKind::Mesh2D, n).capacity();
  const double ft = Topology(TopologyKind::FatTree, n).capacity();
  const double xbar = Topology(TopologyKind::Crossbar, n).capacity();
  EXPECT_LT(bus, mesh);
  EXPECT_LT(mesh, ft);
  EXPECT_LE(ft, xbar);
}

TEST(Topology, RejectsBadIds) {
  const Topology t(TopologyKind::Bus, 4);
  EXPECT_THROW(t.hops(-1, 0), util::Error);
  EXPECT_THROW(t.hops(0, 4), util::Error);
  EXPECT_THROW(Topology(TopologyKind::Bus, 0), util::Error);
}

TEST(MessageCost, WireTimeDecomposition) {
  CommParams p;
  p.hop_latency = Time::us(2);
  p.byte_transfer = Time::us(0.1);
  // 3 hops + 100 bytes, no contention: 6 + 10 us.
  EXPECT_EQ(wire_time(p, 3, 100, 1.0), Time::us(16));
  // contention stretches only the bandwidth term.
  EXPECT_EQ(wire_time(p, 3, 100, 2.0), Time::us(26));
  // zero-byte message still pays routing.
  EXPECT_EQ(wire_time(p, 3, 0, 1.0), Time::us(6));
}

TEST(MessageCost, SendCpuTime) {
  CommParams p;
  p.msg_build = Time::us(1.5);
  p.comm_startup = Time::us(10);
  EXPECT_EQ(send_cpu_time(p), Time::us(11.5));
}

TEST(MessageCost, RejectsBadInputs) {
  CommParams p;
  EXPECT_THROW(wire_time(p, -1, 10, 1.0), util::Error);
  EXPECT_THROW(wire_time(p, 1, -10, 1.0), util::Error);
  EXPECT_THROW(wire_time(p, 1, 10, 0.5), util::Error);
}

TEST(Contention, MultiplierGrowsWithLoad) {
  ContentionParams cp;
  cp.factor = 1.0;
  const Topology bus(TopologyKind::Bus, 8);
  ContentionTracker t(cp, bus);
  EXPECT_DOUBLE_EQ(t.multiplier(), 1.0);
  t.inject();
  EXPECT_DOUBLE_EQ(t.multiplier(), 2.0);  // capacity(bus)=1
  t.inject();
  EXPECT_DOUBLE_EQ(t.multiplier(), 3.0);
  t.deliver();
  t.deliver();
  EXPECT_DOUBLE_EQ(t.multiplier(), 1.0);
}

TEST(Contention, HighCapacityTopologyShrugsOffLoad) {
  ContentionParams cp;
  cp.factor = 1.0;
  const Topology xbar(TopologyKind::Crossbar, 32);
  ContentionTracker t(cp, xbar);
  for (int i = 0; i < 8; ++i) t.inject();
  EXPECT_NEAR(t.multiplier(), 1.25, 1e-12);  // 8/32
}

TEST(Contention, DisabledIsUnity) {
  ContentionParams cp;
  cp.enabled = false;
  ContentionTracker t(cp, Topology(TopologyKind::Bus, 2));
  t.inject();
  t.inject();
  EXPECT_DOUBLE_EQ(t.multiplier(), 1.0);
}

TEST(Contention, CapApplies) {
  ContentionParams cp;
  cp.factor = 10.0;
  cp.max_multiplier = 3.0;
  ContentionTracker t(cp, Topology(TopologyKind::Bus, 2));
  for (int i = 0; i < 10; ++i) t.inject();
  EXPECT_DOUBLE_EQ(t.multiplier(), 3.0);
}

TEST(Contention, DeliverWithoutInjectIsBug) {
  ContentionTracker t(ContentionParams{}, Topology(TopologyKind::Bus, 2));
  EXPECT_THROW(t.deliver(), util::Error);
}

TEST(Network, DeliversAtWireTime) {
  sim::Engine eng;
  CommParams comm;
  comm.hop_latency = Time::us(1);
  comm.byte_transfer = Time::us(0.01);
  NetworkParams np;
  np.topology = TopologyKind::Bus;
  np.contention.enabled = false;
  Network net(eng, comm, np, 4);
  Time delivered;
  net.send(0, 1, 100, [&] { delivered = eng.now(); });
  eng.run();
  EXPECT_EQ(delivered, Time::us(2));  // 1 hop + 100 * 0.01
  EXPECT_EQ(net.messages_sent(), 1);
  EXPECT_EQ(net.bytes_sent(), 100);
}

TEST(Network, ConcurrentMessagesSeeContention) {
  sim::Engine eng;
  CommParams comm;
  comm.hop_latency = Time::zero();
  comm.byte_transfer = Time::us(1);
  NetworkParams np;
  np.topology = TopologyKind::Bus;  // capacity 1 -> strong contention
  np.contention.factor = 1.0;
  Network net(eng, comm, np, 4);
  Time t1, t2;
  net.send(0, 1, 10, [&] { t1 = eng.now(); });
  net.send(2, 3, 10, [&] { t2 = eng.now(); });  // sees 1 in flight
  eng.run();
  EXPECT_EQ(t1, Time::us(10));
  EXPECT_EQ(t2, Time::us(20));  // x2 multiplier
  // The two injections saw 0 and 1 messages in flight.
  EXPECT_EQ(net.avg_inflight(), 0.5);
}

TEST(Network, ReplayAddsWhatLiveInjectionWould) {
  // Live: a burst of 3 messages (0, 1, 2 in flight at injection), drained,
  // then a burst of 4 (0, 1, 2, 3): 7 messages, load sum 9.
  auto burst = [](sim::Engine& eng, Network& net, int k) {
    for (int i = 0; i < k; ++i) net.send(0, 1, 64, [] {});
    eng.run();
  };
  sim::Engine live_eng;
  Network live(live_eng, CommParams{}, NetworkParams{}, 4);
  burst(live_eng, live, 3);
  burst(live_eng, live, 4);
  EXPECT_EQ(live.messages_sent(), 7);
  EXPECT_EQ(live.load_sum(), 9);
  EXPECT_EQ(live.avg_inflight(), 9.0 / 7.0);

  // Replayed: the first burst live, the second as its counts.
  sim::Engine eng;
  Network net(eng, CommParams{}, NetworkParams{}, 4);
  burst(eng, net, 3);
  net.replay(4, 4 * 64, 0 + 1 + 2 + 3);
  EXPECT_EQ(net.messages_sent(), live.messages_sent());
  EXPECT_EQ(net.bytes_sent(), live.bytes_sent());
  EXPECT_EQ(net.load_sum(), live.load_sum());
  EXPECT_EQ(net.avg_inflight(), live.avg_inflight());
  EXPECT_EQ(net.inflight(), 0);
}

TEST(Network, PreviewDoesNotInject) {
  sim::Engine eng;
  Network net(eng, CommParams{}, NetworkParams{}, 4);
  const Time w = net.preview_wire(0, 1, 128);
  EXPECT_GT(w, Time::zero());
  EXPECT_EQ(net.messages_sent(), 0);
}

}  // namespace
}  // namespace xp::net
