// Unit tests for the model layer: parameters, presets (Table 3!), barrier
// plans, analytic release, poll chunking, processor mapping.
#include <gtest/gtest.h>

#include "model/barrier_model.hpp"
#include "model/params.hpp"
#include "model/processor_model.hpp"
#include "model/remote_model.hpp"
#include "util/error.hpp"

namespace xp::model {
namespace {

TEST(Params, DefaultsValidate) {
  SimParams p;
  EXPECT_NO_THROW(p.validate(8));
}

TEST(Params, RejectsBadValues) {
  SimParams p;
  EXPECT_THROW(p.validate(0), util::ParamError);
  p.proc.mips_ratio = 0;
  EXPECT_THROW(p.validate(4), util::ParamError);
  p = SimParams{};
  p.proc.policy = ServicePolicy::Poll;
  p.proc.poll_interval = Time::zero();
  EXPECT_THROW(p.validate(4), util::ParamError);
  p = SimParams{};
  p.proc.n_procs = 9;
  EXPECT_THROW(p.validate(4), util::ParamError);
  p = SimParams{};
  p.comm.comm_startup = Time::us(-1);
  EXPECT_THROW(p.validate(4), util::ParamError);
  p = SimParams{};
  p.barrier.msg_size = -1;
  EXPECT_THROW(p.validate(4), util::ParamError);
}

TEST(Params, Cm5PresetMatchesTable3) {
  const SimParams p = cm5_preset();
  EXPECT_EQ(p.barrier.model_time, Time::us(5.0));
  EXPECT_EQ(p.comm.comm_startup, Time::us(10.0));
  EXPECT_EQ(p.comm.byte_transfer, Time::us(0.118));
  EXPECT_DOUBLE_EQ(p.proc.mips_ratio, 0.41);
  EXPECT_EQ(p.network.topology, net::TopologyKind::FatTree);
  EXPECT_NO_THROW(p.validate(32));
}

TEST(Params, DistributedPresetIs20MBps) {
  const SimParams p = distributed_preset();
  // 20 MB/s = 0.05 us per byte.
  EXPECT_EQ(p.comm.byte_transfer, Time::us(0.05));
  EXPECT_GE(p.comm.comm_startup, Time::us(50.0));  // "high overheads"
  EXPECT_TRUE(p.barrier.by_msgs);
  EXPECT_NO_THROW(p.validate(32));
}

TEST(Params, SharedPresetIs200MBps) {
  const SimParams p = shared_memory_preset();
  EXPECT_EQ(p.comm.byte_transfer, Time::us(0.005));
  EXPECT_FALSE(p.barrier.by_msgs);
  EXPECT_NO_THROW(p.validate(32));
}

TEST(Params, IdealPresetIsFree) {
  const SimParams p = ideal_preset();
  EXPECT_TRUE(p.comm.comm_startup.is_zero());
  EXPECT_TRUE(p.comm.byte_transfer.is_zero());
  EXPECT_TRUE(p.barrier.entry_time.is_zero());
  EXPECT_TRUE(p.barrier.model_time.is_zero());
  EXPECT_FALSE(p.network.contention.enabled);
  EXPECT_NO_THROW(p.validate(32));
}

TEST(Params, ExtensionPresetsAreValidAndDistinct) {
  const SimParams paragon = paragon_preset();
  const SimParams sp1 = sp1_preset();
  const SimParams sgi = sgi_shared_preset();
  EXPECT_NO_THROW(paragon.validate(32));
  EXPECT_NO_THROW(sp1.validate(32));
  EXPECT_NO_THROW(sgi.validate(32));
  // Characteristic choices: Paragon rides a mesh, SP-1 polls, the SGI bus
  // saturates (capped contention).
  EXPECT_EQ(paragon.network.topology, net::TopologyKind::Mesh2D);
  EXPECT_EQ(sp1.proc.policy, ServicePolicy::Poll);
  EXPECT_EQ(sgi.network.topology, net::TopologyKind::Bus);
  EXPECT_GT(sgi.network.contention.max_multiplier, 1.0);
  // All use actual transfer sizes (post-§4.1 configuration).
  EXPECT_EQ(paragon.size_mode, TransferSizeMode::Actual);
  // Faster nodes than the Sun 4 measurement host.
  EXPECT_LT(paragon.proc.mips_ratio, 1.0);
  EXPECT_LT(sp1.proc.mips_ratio, paragon.proc.mips_ratio);
}

TEST(Params, StrMentionsPolicyAndRatio) {
  SimParams p;
  p.proc.mips_ratio = 0.41;
  p.proc.policy = ServicePolicy::Poll;
  const std::string s = p.str();
  EXPECT_NE(s.find("0.41"), std::string::npos);
  EXPECT_NE(s.find("poll"), std::string::npos);
}

// --- barrier plans ---------------------------------------------------------

TEST(BarrierPlan, LinearAllNotifyMaster) {
  const BarrierPlan p = make_plan(BarrierAlg::Linear, 5);
  EXPECT_EQ(p.root, 0);
  EXPECT_EQ(p.notify[0], -1);
  for (int t = 1; t < 5; ++t) EXPECT_EQ(p.notify[static_cast<size_t>(t)], 0);
  EXPECT_EQ(p.children[0].size(), 4u);
  EXPECT_TRUE(p.children[1].empty());
}

TEST(BarrierPlan, LogTreeIsBinary) {
  const BarrierPlan p = make_plan(BarrierAlg::LogTree, 7);
  EXPECT_EQ(p.notify[1], 0);
  EXPECT_EQ(p.notify[2], 0);
  EXPECT_EQ(p.notify[3], 1);
  EXPECT_EQ(p.notify[6], 2);
  EXPECT_EQ(p.children[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(p.children[1], (std::vector<int>{3, 4}));
  EXPECT_TRUE(p.children[3].empty());
}

TEST(BarrierPlan, TreeCoversEveryThreadOnce) {
  for (auto alg : {BarrierAlg::Linear, BarrierAlg::LogTree}) {
    const BarrierPlan p = make_plan(alg, 13);
    std::vector<int> seen(13, 0);
    seen[static_cast<size_t>(p.root)]++;
    for (const auto& kids : p.children)
      for (int k : kids) seen[static_cast<size_t>(k)]++;
    for (int c : seen) EXPECT_EQ(c, 1);
  }
}

TEST(BarrierPlan, HardwareHasNoMessages) {
  const BarrierPlan p = make_plan(BarrierAlg::Hardware, 4);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(p.notify[static_cast<size_t>(t)], -1);
    EXPECT_TRUE(p.children[static_cast<size_t>(t)].empty());
  }
}

TEST(BarrierPlan, SingleThread) {
  const BarrierPlan p = make_plan(BarrierAlg::Linear, 1);
  EXPECT_TRUE(p.children[0].empty());
  EXPECT_EQ(p.notify[0], -1);
}

// --- analytic release --------------------------------------------------------

TEST(AnalyticRelease, Table1Semantics) {
  BarrierParams b;
  b.check_time = Time::us(2);
  b.model_time = Time::us(10);
  b.exit_check_time = Time::us(3);
  b.exit_time = Time::us(5);
  const std::vector<Time> arrivals{Time::us(100), Time::us(40), Time::us(70)};
  // lowered = 100 + 2*2 + 10 = 114; every exit = 114 + 3 + 5 = 122.
  EXPECT_EQ(analytic_release(b, arrivals), Time::us(122));
}

TEST(AnalyticRelease, SingleThreadNoChecks) {
  BarrierParams b;
  EXPECT_EQ(analytic_release(b, {Time::us(50)}),
            Time::us(50) + b.model_time + b.exit_check_time + b.exit_time);
}

// --- processor model -------------------------------------------------------

TEST(ProcessorModel, ScaleCompute) {
  ProcessorParams p;
  p.mips_ratio = 0.41;
  EXPECT_EQ(scale_compute(p, Time::us(100)), Time::us(41));
  p.mips_ratio = 2.0;
  EXPECT_EQ(scale_compute(p, Time::us(100)), Time::us(200));
}

TEST(ProcessorModel, PollChunksSplitExactly) {
  ProcessorParams p;
  p.policy = ServicePolicy::Poll;
  p.poll_interval = Time::us(100);
  const Time scaled = Time::us(250);
  ASSERT_EQ(poll_boundaries(p, scaled), 2);
  EXPECT_EQ(poll_chunk(p, scaled, 0), Time::us(100));
  EXPECT_EQ(poll_chunk(p, scaled, 1), Time::us(100));
  EXPECT_EQ(poll_chunk(p, scaled, 2), Time::us(50));
  Time sum;
  for (std::int64_t j = 0; j <= poll_boundaries(p, scaled); ++j)
    sum += poll_chunk(p, scaled, j);
  EXPECT_EQ(sum, Time::us(250));
}

TEST(ProcessorModel, PollChunkExactMultiple) {
  ProcessorParams p;
  p.policy = ServicePolicy::Poll;
  p.poll_interval = Time::us(100);
  ASSERT_EQ(poll_boundaries(p, Time::us(200)), 1);
  EXPECT_EQ(poll_chunk(p, Time::us(200), 1), Time::us(100));
}

TEST(ProcessorModel, NonPollIsSingleChunk) {
  ProcessorParams p;
  p.policy = ServicePolicy::Interrupt;
  ASSERT_EQ(poll_boundaries(p, Time::us(500)), 0);
  EXPECT_EQ(poll_chunk(p, Time::us(500), 0), Time::us(500));
  p.policy = ServicePolicy::Poll;  // an empty interval has no boundary
  EXPECT_EQ(poll_boundaries(p, Time::zero()), 0);
}

TEST(ProcessorModel, ThreadToProcMapping) {
  ProcessorParams p;
  EXPECT_EQ(effective_procs(p, 8), 8);  // n_procs = 0 -> one per thread
  for (int t = 0; t < 8; ++t) EXPECT_EQ(proc_of_thread(p, t, 8), t);
  p.n_procs = 3;
  EXPECT_EQ(effective_procs(p, 8), 3);
  EXPECT_EQ(proc_of_thread(p, 0, 8), 0);
  EXPECT_EQ(proc_of_thread(p, 4, 8), 1);
  EXPECT_EQ(proc_of_thread(p, 7, 8), 1);
}

// --- remote model -------------------------------------------------------

TEST(RemoteModel, SizeModeSelectsBytes) {
  EXPECT_EQ(reply_payload_bytes(TransferSizeMode::Declared, 231456, 128),
            231456);
  EXPECT_EQ(reply_payload_bytes(TransferSizeMode::Actual, 231456, 128), 128);
  EXPECT_THROW(reply_payload_bytes(TransferSizeMode::Actual, 8, 64),
               util::Error);
}

TEST(RemoteModel, ReplyIncludesHeader) {
  net::CommParams comm;
  comm.reply_header_bytes = 16;
  EXPECT_EQ(reply_message_bytes(comm, TransferSizeMode::Actual, 100, 32),
            48);
}

TEST(RemoteModel, ServiceCpuTimeSumsComponents) {
  net::CommParams comm;
  comm.recv_overhead = Time::us(2);
  comm.msg_build = Time::us(1);
  comm.comm_startup = Time::us(10);
  ProcessorParams proc;
  proc.request_service = Time::us(3);
  EXPECT_EQ(service_cpu_time(comm, proc), Time::us(16));
}

TEST(Names, ToStringCoverage) {
  EXPECT_STREQ(to_string(BarrierAlg::Linear), "linear");
  EXPECT_STREQ(to_string(BarrierAlg::LogTree), "logtree");
  EXPECT_STREQ(to_string(BarrierAlg::Hardware), "hardware");
  EXPECT_STREQ(to_string(ServicePolicy::NoInterrupt), "no-interrupt");
  EXPECT_STREQ(to_string(ServicePolicy::Interrupt), "interrupt");
  EXPECT_STREQ(to_string(ServicePolicy::Poll), "poll");
  EXPECT_STREQ(to_string(TransferSizeMode::Declared), "declared");
  EXPECT_STREQ(to_string(TransferSizeMode::Actual), "actual");
}

}  // namespace
}  // namespace xp::model
