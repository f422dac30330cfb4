// Trace invariance of the Table-2 suite under kernel rewrites.
//
// A measured trace records analytic compute(flops) charges, remote accesses
// and barriers; it never depends on how fast or in which instruction order a
// program's numerics run.  A rewrite of a suite kernel (an interior/boundary
// split, a hoisted Collection lookup, an integer LCG) must therefore leave
// every measured trace byte-identical.  This test pins that: the FNV-1a
// digest of trace_io::write_binary of each code's measurement at
// n in {1,2,3,4,5,7,8,16,32,64} (powers of two only for sort) must equal the
// table below.  Every measurement also runs the code's verify(), so the
// numerics are checked against their sequential references on the way.
//
// A second table pins the simulator's output the same way: the FNV-1a
// digest of trace_io::write_binary of the extrapolated trace, plus the
// makespan, of every code at n in {1,4,16} under five configurations that
// reach every replay path (message barriers with the epoch memo, segment
// collapse with and without demoted segments, the sampled epoch path, poll
// chunking).  Both SimMode::EventDriven and SimMode::Auto must reproduce
// each row, so a bug shared by every mode (in the trace materializer, say)
// cannot hide behind a mode-against-mode comparison.
//
// A mismatch prints the replacement table row.  Regenerate the measured
// table only after an intentional change to the tracer or to what a code
// charges, and the extrapolated table only after an intentional change to
// the simulator's model.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "core/extrapolator.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"

namespace xp::suite {
namespace {

struct Digest {
  const char* code;
  int n;
  std::uint64_t fnv;
};

// clang-format off
constexpr Digest kDigests[] = {
    {"embar", 1, 0xd92e3397f84a1d2aull},
    {"embar", 2, 0x4e062da8bd770157ull},
    {"embar", 3, 0x71d30e175392a951ull},
    {"embar", 4, 0x8e0c7742241a0052ull},
    {"embar", 5, 0xd68fdf948adb8598ull},
    {"embar", 7, 0x2c33cd310b2836ceull},
    {"embar", 8, 0xc0c42aa137de1ef4ull},
    {"embar", 16, 0x5c81eca1d58c95a5ull},
    {"embar", 32, 0x9e281a7d76901725ull},
    {"embar", 64, 0xb195ac6137ea8919ull},
    {"cyclic", 1, 0x767bc7cf1aafe77cull},
    {"cyclic", 2, 0x4ace6f4c06c95e4dull},
    {"cyclic", 3, 0xed2e7443b2854d31ull},
    {"cyclic", 4, 0x7c46cd5959112527ull},
    {"cyclic", 5, 0x0ccc298624e4c25bull},
    {"cyclic", 7, 0xabc5657870585b7dull},
    {"cyclic", 8, 0x5a94d389f544c9c0ull},
    {"cyclic", 16, 0x2e7182cc35a8652bull},
    {"cyclic", 32, 0x2b80e6fe72d3e117ull},
    {"cyclic", 64, 0x91ca69014f22c7caull},
    {"sparse", 1, 0xe3d2f3bf71159fe1ull},
    {"sparse", 2, 0x7bd823ac08d6a29bull},
    {"sparse", 3, 0xe428e40fc2ede918ull},
    {"sparse", 4, 0xd898e708cdb13956ull},
    {"sparse", 5, 0xb7062821d89f5a47ull},
    {"sparse", 7, 0xcf72cbaae593b942ull},
    {"sparse", 8, 0x232717e39d75be29ull},
    {"sparse", 16, 0x2612ed143755e327ull},
    {"sparse", 32, 0x2c9e28fac65b4d80ull},
    {"sparse", 64, 0x3be9366bc06e8cbfull},
    {"grid", 1, 0xc40299640767238full},
    {"grid", 2, 0x8ef3db5d14bed45cull},
    {"grid", 3, 0xf36045f83a3fb484ull},
    {"grid", 4, 0x64b877bbb1669275ull},
    {"grid", 5, 0x8baf7629a7b6c41eull},
    {"grid", 7, 0x8b282bec09d79658ull},
    {"grid", 8, 0xe687bd3e34f0a1d6ull},
    {"grid", 16, 0xe31af93e5480836bull},
    {"grid", 32, 0xbf8970b50aa69a8eull},
    {"grid", 64, 0x4b65b5486a744693ull},
    {"mgrid", 1, 0x18bff1a34e2470a2ull},
    {"mgrid", 2, 0xf9c9505bb9b43fc5ull},
    {"mgrid", 3, 0x99b1068c05582309ull},
    {"mgrid", 4, 0x20fd9a4e767c42c8ull},
    {"mgrid", 5, 0xcd342db3901094e2ull},
    {"mgrid", 7, 0x24208a3f93df593dull},
    {"mgrid", 8, 0x0f8346bda9f8bcc4ull},
    {"mgrid", 16, 0xff6cebdb2820baf5ull},
    {"mgrid", 32, 0xc9f6a115773a0318ull},
    {"mgrid", 64, 0x022c903255dd5013ull},
    {"poisson", 1, 0x882b9f57f280e669ull},
    {"poisson", 2, 0xf1bcbf7b94bab271ull},
    {"poisson", 3, 0x6f3d3f3e6eab3eb2ull},
    {"poisson", 4, 0x851de6949152fff2ull},
    {"poisson", 5, 0xf7528abc033992adull},
    {"poisson", 7, 0x32dd1a446d426ef0ull},
    {"poisson", 8, 0x6bb8e853b3aa237aull},
    {"poisson", 16, 0x48bdbc7bfa0d6ecdull},
    {"poisson", 32, 0x52e8ca5a87c1c198ull},
    {"poisson", 64, 0x386cca38e4cba0aaull},
    {"sort", 1, 0xa69d96fb5831c516ull},
    {"sort", 2, 0x73292fc643151538ull},
    {"sort", 4, 0x031ec04d426cc9cdull},
    {"sort", 8, 0xfafea3a40d9a0796ull},
    {"sort", 16, 0xfb2eb40a581fd70cull},
    {"sort", 32, 0x9f5c4c5acf502be1ull},
    {"sort", 64, 0x00f0fc1af2115bf4ull},
};
// clang-format on

struct SimDigest {
  const char* code;
  int n;
  const char* config;
  std::uint64_t fnv;
  std::int64_t makespan_ns;
};

// clang-format off
constexpr SimDigest kSimDigests[] = {
    {"embar", 1, "distributed", 0x7ecb135cc2456dc1ull, 2730416760},
    {"embar", 1, "cm5", 0x8a7dc8eeb00ceba6ull, 1119472472},
    {"embar", 1, "shared/1cluster", 0x9100ac8be6c5463bull, 2730385760},
    {"embar", 1, "shared", 0x9100ac8be6c5463bull, 2730385760},
    {"embar", 1, "ideal/1cluster/poll", 0x5782ebf065f7d412ull, 2730376760},
    {"embar", 4, "distributed", 0x5b6cf9d1932e1f2aull, 685300173},
    {"embar", 4, "cm5", 0x4093a4ed55defe05ull, 280602220},
    {"embar", 4, "shared/1cluster", 0x2ff5161ec0dee47dull, 683812213},
    {"embar", 4, "shared", 0x47ddcb59a236aeb9ull, 683847553},
    {"embar", 4, "ideal/1cluster/poll", 0xc298df18744105e4ull, 683800213},
    {"embar", 16, "distributed", 0x07dc0398152d171eull, 178447526},
    {"embar", 16, "cm5", 0x46b7dba6d6ccbef8ull, 71436736},
    {"embar", 16, "shared/1cluster", 0xd2ebb8798108328bull, 171584926},
    {"embar", 16, "shared", 0x8e18e881685772dbull, 171761626},
    {"embar", 16, "ideal/1cluster/poll", 0xfcd035f5230b0b23ull, 171560926},
    {"cyclic", 1, "distributed", 0x03fe3cf82dd23ea7ull, 559995232},
    {"cyclic", 1, "cm5", 0xf9984cb43f68a6d7ull, 229606848},
    {"cyclic", 1, "shared/1cluster", 0x6c4ffb9ea017473dull, 559824732},
    {"cyclic", 1, "shared", 0x6c4ffb9ea017473dull, 559824732},
    {"cyclic", 1, "ideal/1cluster/poll", 0x213d82ead5897d97ull, 559775232},
    {"cyclic", 4, "distributed", 0x175ba5553df79ba4ull, 324708723},
    {"cyclic", 4, "cm5", 0xf1d84bd72c37a91bull, 118224971},
    {"cyclic", 4, "shared/1cluster", 0x33e490acd9236c84ull, 141541008},
    {"cyclic", 4, "shared", 0xb371a49bcf4fbf8aull, 150738981},
    {"cyclic", 4, "ideal/1cluster/poll", 0x751ea5cabce4eaccull, 141475008},
    {"cyclic", 16, "distributed", 0xbfc5a17142f7392full, 141149943},
    {"cyclic", 16, "cm5", 0x4e183f019acf2dacull, 47751958},
    {"cyclic", 16, "shared/1cluster", 0xebde2ac141230d86ull, 35804352},
    {"cyclic", 16, "shared", 0x9edc4c2ce7ad2742ull, 40869697},
    {"cyclic", 16, "ideal/1cluster/poll", 0xff484816cedaaa22ull, 35672352},
    {"sparse", 1, "distributed", 0xa9cc3a39c8d23411ull, 191650178},
    {"sparse", 1, "cm5", 0xd7ecf9cd4853fb35ull, 78600575},
    {"sparse", 1, "shared/1cluster", 0x8dc587b05be5e66aull, 191185178},
    {"sparse", 1, "shared", 0x8dc587b05be5e66aull, 191185178},
    {"sparse", 1, "ideal/1cluster/poll", 0x257db558916126c5ull, 191050178},
    {"sparse", 4, "distributed", 0xe49af21f09485317ull, 78082402},
    {"sparse", 4, "cm5", 0x2091297a7b681fbaull, 37824333},
    {"sparse", 4, "shared/1cluster", 0x1800059657410721ull, 48280484},
    {"sparse", 4, "shared", 0x8db62349662d5948ull, 49132396},
    {"sparse", 4, "ideal/1cluster/poll", 0xf77249cf79042a4full, 48100484},
    {"sparse", 16, "distributed", 0xabc8fc98d562bacfull, 138591096},
    {"sparse", 16, "cm5", 0x26d84a0e90235510ull, 41851250},
    {"sparse", 16, "shared/1cluster", 0xa77482355d93b054ull, 12947340},
    {"sparse", 16, "shared", 0xe374c6c019411848ull, 17199185},
    {"sparse", 16, "ideal/1cluster/poll", 0x511530f3599d54e9ull, 12587340},
    {"grid", 1, "distributed", 0x2f6db7b55199c31dull, 41537521760},
    {"grid", 1, "cm5", 0x7654ba7ba3c112dfull, 17030408730},
    {"grid", 1, "shared/1cluster", 0x71cf6a24c7f1d7f3ull, 41537041260},
    {"grid", 1, "shared", 0x71cf6a24c7f1d7f3ull, 41537041260},
    {"grid", 1, "ideal/1cluster/poll", 0x49f57ecdc40a6ea1ull, 41536901760},
    {"grid", 4, "distributed", 0x7269f65fe0ca2fe1ull, 17410609240},
    {"grid", 4, "cm5", 0xf2f234f42bbe14f6ull, 4307701596},
    {"grid", 4, "shared/1cluster", 0xa97db28ae9c9e3daull, 10662428940},
    {"grid", 4, "shared", 0x65dc54c13a92ce7aull, 10770167640},
    {"grid", 4, "ideal/1cluster/poll", 0x6b0dec408e7242e6ull, 10662242940},
    {"grid", 16, "distributed", 0x490817974d839595ull, 9329200160},
    {"grid", 16, "cm5", 0x5ed2a71d728d32e2ull, 1116188836},
    {"grid", 16, "shared/1cluster", 0x27be34c589c43eaeull, 2874445860},
    {"grid", 16, "shared", 0x214425942eba0c9cull, 2975079390},
    {"grid", 16, "ideal/1cluster/poll", 0xabb24d979643af16ull, 2874073860},
    {"mgrid", 1, "distributed", 0x77e620af89e21d02ull, 2290597466},
    {"mgrid", 1, "cm5", 0x5a7da1880dcc02c7ull, 939185768},
    {"mgrid", 1, "shared/1cluster", 0xad7a40a54151a76dull, 2289806966},
    {"mgrid", 1, "shared", 0xad7a40a54151a76dull, 2289806966},
    {"mgrid", 1, "ideal/1cluster/poll", 0x0dd965f6f1e2b14eull, 2289577466},
    {"mgrid", 4, "distributed", 0x09b58b1b4695b479ull, 790054968},
    {"mgrid", 4, "cm5", 0x7958dbf00a5b6185ull, 300508126},
    {"mgrid", 4, "shared/1cluster", 0xe951816ebf45008cull, 574050128},
    {"mgrid", 4, "shared", 0x99cde850a15933e4ull, 583737848},
    {"mgrid", 4, "ideal/1cluster/poll", 0x5a75f4a7f8ccbe64ull, 573744128},
    {"mgrid", 16, "distributed", 0x578a74749dcb4ca5ull, 409115490},
    {"mgrid", 16, "cm5", 0xd119533143554987ull, 128881036},
    {"mgrid", 16, "shared/1cluster", 0x0b35fcb18ad5b624ull, 145060350},
    {"mgrid", 16, "shared", 0xcc364640f687f693ull, 154624150},
    {"mgrid", 16, "ideal/1cluster/poll", 0x9875a31359849b42ull, 144448350},
    {"poisson", 1, "distributed", 0x8435c00765b51f1full, 955612992},
    {"poisson", 1, "cm5", 0x71aaf6c88c16de5full, 391806126},
    {"poisson", 1, "shared/1cluster", 0x1bdc3223ccbf9dcbull, 955519992},
    {"poisson", 1, "shared", 0x1bdc3223ccbf9dcbull, 955519992},
    {"poisson", 1, "ideal/1cluster/poll", 0x4dd98c67855362bfull, 955492992},
    {"poisson", 4, "distributed", 0x8233acd8ce667cb7ull, 280887648},
    {"poisson", 4, "cm5", 0x4d6343ecdc07879aull, 105169423},
    {"poisson", 4, "shared/1cluster", 0xed1b1fedb9531851ull, 239251008},
    {"poisson", 4, "shared", 0x0e4b0541a385689dull, 241190008},
    {"poisson", 4, "ideal/1cluster/poll", 0x2875bea248471d91ull, 239215008},
    {"poisson", 16, "distributed", 0x7bc5342534166c2eull, 136605312},
    {"poisson", 16, "cm5", 0x8412009bd15b3c31ull, 35261269},
    {"poisson", 16, "shared/1cluster", 0xd47ed937b67af9f6ull, 60217512},
    {"poisson", 16, "shared", 0xf318a92238d87250ull, 64421004},
    {"poisson", 16, "ideal/1cluster/poll", 0x5f71af40b7111b66ull, 60145512},
    {"sort", 1, "distributed", 0xeb3cbc3cfb1e609aull, 403850986},
    {"sort", 1, "cm5", 0xfa96e2277ab25608ull, 165579704},
    {"sort", 1, "shared/1cluster", 0x2759ec354bbc2b0aull, 403835486},
    {"sort", 1, "shared", 0x2759ec354bbc2b0aull, 403835486},
    {"sort", 1, "ideal/1cluster/poll", 0xfa8b1d089f1910e4ull, 403830986},
    {"sort", 4, "distributed", 0xfea2b8ea7c4d6649ull, 144685216},
    {"sort", 4, "cm5", 0x875a4bf5de94a890ull, 82616602},
    {"sort", 4, "shared/1cluster", 0xeea2ca2793524142ull, 130321336},
    {"sort", 4, "shared", 0xd4a6739424803d9full, 130541086},
    {"sort", 4, "ideal/1cluster/poll", 0x4fcbba7e1be9b3d6ull, 130297336},
    {"sort", 16, "distributed", 0x7ffd9ee000635f93ull, 84212509},
    {"sort", 16, "cm5", 0x7c596af71327305full, 52834157},
    {"sort", 16, "shared/1cluster", 0xd96e137efa030c24ull, 54636109},
    {"sort", 16, "shared", 0x6ee853936b3767feull, 54946289},
    {"sort", 16, "ideal/1cluster/poll", 0xdeccd18ac4a68f04ull, 54504109},
};
// clang-format on

const int kProcs[] = {1, 2, 3, 4, 5, 7, 8, 16, 32, 64};

bool measured_at(const std::string& code, int n) {
  return code != "sort" || (n & (n - 1)) == 0;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

trace::Trace measure(const std::string& code, int n) {
  auto prog = make_by_name(code);
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return rt::measure(*prog, mo);
}

std::uint64_t trace_digest(const trace::Trace& t) {
  std::ostringstream os(std::ios::binary);
  trace::write_binary(t, os);
  return fnv1a(os.str());
}

std::uint64_t measured_digest(const std::string& code, int n) {
  return trace_digest(measure(code, n));
}

const int kSimProcs[] = {1, 4, 16};

model::SimParams single_cluster(model::SimParams p) {
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

model::SimParams sim_config(const std::string& name) {
  if (name == "distributed") return model::distributed_preset();
  if (name == "cm5") return model::cm5_preset();
  if (name == "shared/1cluster")
    return single_cluster(model::shared_memory_preset());
  if (name == "shared") return model::shared_memory_preset();
  model::SimParams p = single_cluster(model::ideal_preset());
  p.proc.policy = model::ServicePolicy::Poll;
  return p;
}

const char* const kSimConfigs[] = {"distributed", "cm5", "shared/1cluster",
                                   "shared", "ideal/1cluster/poll"};

// The table covers exactly every Table-2 code at every measured n, so a code
// cannot drop out of the check unnoticed.
TEST(SuiteDigest, TableCoversEveryCodeAndProcessorCount) {
  std::set<std::pair<std::string, int>> want, have;
  for (const std::string& code : benchmark_names())
    for (int n : kProcs)
      if (measured_at(code, n)) want.emplace(code, n);
  for (const Digest& d : kDigests)
    EXPECT_TRUE(have.emplace(d.code, d.n).second)
        << "duplicate row " << d.code << " n=" << d.n;
  EXPECT_EQ(have, want);
}

TEST(SuiteDigest, MeasuredTracesAreByteIdentical) {
  for (const Digest& d : kDigests) {
    const std::uint64_t got = measured_digest(d.code, d.n);
    char row[96];
    std::snprintf(row, sizeof row, "{\"%s\", %d, 0x%016" PRIx64 "ull},",
                  d.code, d.n, got);
    EXPECT_EQ(got, d.fnv) << "measured trace moved; new row: " << row;
  }
}

TEST(SuiteDigest, SimTableCoversEveryCodeCountAndConfig) {
  std::set<std::tuple<std::string, int, std::string>> want, have;
  for (const std::string& code : benchmark_names())
    for (int n : kSimProcs)
      for (const char* config : kSimConfigs) want.emplace(code, n, config);
  for (const SimDigest& d : kSimDigests)
    EXPECT_TRUE(have.emplace(d.code, d.n, d.config).second)
        << "duplicate row " << d.code << " n=" << d.n << " " << d.config;
  EXPECT_EQ(have, want);
}

TEST(SuiteDigest, ExtrapolatedTracesAreByteIdenticalInEveryMode) {
  std::string prepared_key;
  core::TranslatedTrace prepared;
  // Auto cells per fast path, to show the configurations reach each one.
  int memo = 0, mixed = 0, sampled = 0;
  for (const SimDigest& d : kSimDigests) {
    const std::string key = std::string(d.code) + "/" + std::to_string(d.n);
    if (key != prepared_key) {
      prepared = core::prepare_trace(measure(d.code, d.n));
      prepared_key = key;
    }
    for (const core::SimMode mode :
         {core::SimMode::EventDriven, core::SimMode::Auto}) {
      const core::Prediction p =
          core::predict(prepared, sim_config(d.config), {mode, true});
      const std::uint64_t got = trace_digest(p.sim.extrapolated());
      const std::int64_t makespan = p.sim.makespan.count_ns();
      char row[160];
      std::snprintf(row, sizeof row,
                    "{\"%s\", %d, \"%s\", 0x%016" PRIx64 "ull, %" PRId64 "},",
                    d.code, d.n, d.config, got, makespan);
      EXPECT_TRUE(got == d.fnv && makespan == d.makespan_ns)
          << core::to_string(mode) << ": extrapolated trace moved; new row: "
          << row;
      if (mode == core::SimMode::Auto) {
        memo += p.sim.hybrid.memo_hits > 0;
        mixed += p.sim.hybrid.path == core::HybridStats::Path::Mixed;
        sampled += p.sim.sampling.active;
      }
    }
  }
  EXPECT_GT(memo, 0);
  EXPECT_GT(mixed, 0);
  EXPECT_GT(sampled, 0);
}

}  // namespace
}  // namespace xp::suite
