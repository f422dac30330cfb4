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
// A mismatch prints the replacement table row.  Regenerate the table only
// after an intentional change to the tracer or to what a code charges.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <utility>

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

std::uint64_t measured_digest(const std::string& code, int n) {
  auto prog = make_by_name(code);
  rt::MeasureOptions mo;
  mo.n_threads = n;
  std::ostringstream os(std::ios::binary);
  trace::write_binary(rt::measure(*prog, mo), os);
  return fnv1a(os.str());
}

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

}  // namespace
}  // namespace xp::suite
