// Sort — bitonic sort module.
//
// Each thread owns one block of keys (kept sorted ascending).  The bitonic
// network over blocks runs log2(n) * (log2(n)+1) / 2 merge-split steps; in
// each step a thread reads its partner's whole block (one large remote
// transfer) and keeps the lower or upper half of the merge, per the
// standard bitonic direction rule.  Communication volume grows with the
// thread count while per-thread computation shrinks — the communication-
// limited profile Figure 4 shows for Sort.
#include <algorithm>
#include <cmath>
#include <vector>

#include "rt/collection.hpp"
#include "suite/reference.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xp::suite {

namespace {

struct KeyBlock {
  std::vector<double> keys;
};

std::vector<double> make_keys(std::int64_t total) {
  std::vector<double> keys(static_cast<std::size_t>(total));
  util::Xoshiro256ss rng(0x5027ull);
  for (auto& k : keys) k = rng.uniform(0.0, 1e6);
  return keys;
}

// The field the verify() reference reads.
struct SortKey {
  static constexpr const char* kProgram = "sort";
  std::int64_t keys;
  auto operator<=>(const SortKey&) const = default;
};

// The input keys, sorted sequentially.
std::vector<double> sorted_reference(const SortKey& key) {
  std::vector<double> keys = make_keys(key.keys);
  std::sort(keys.begin(), keys.end());
  return keys;
}

class SortProgram final : public rt::Program {
 public:
  explicit SortProgram(const SuiteConfig& cfg) : total_(cfg.sort_keys) {
    XP_REQUIRE(total_ >= 2, "sort needs at least two keys");
  }

  std::string name() const override { return "sort"; }

  void setup(rt::Runtime& rt) override {
    n_ = rt.n_threads();
    XP_REQUIRE((n_ & (n_ - 1)) == 0, "bitonic sort needs a power-of-two "
                                     "thread count");
    XP_REQUIRE(total_ % n_ == 0, "sort keys must divide evenly");
    per_ = total_ / n_;
    block_bytes_ = static_cast<std::int32_t>(per_ * 8);
    const auto dist = rt::Distribution::d1(rt::Dist::Block, n_, n_);
    for (auto& b : bufs_)
      b = std::make_unique<rt::Collection<KeyBlock>>(rt, dist, block_bytes_);
    const std::vector<double> keys = make_keys(total_);
    for (int t = 0; t < n_; ++t) {
      bufs_[0]->init(t).keys.assign(
          keys.begin() + static_cast<std::ptrdiff_t>(t * per_),
          keys.begin() + static_cast<std::ptrdiff_t>((t + 1) * per_));
      bufs_[1]->init(t).keys.assign(static_cast<std::size_t>(per_), 0.0);
    }
  }

  void thread_main(rt::Runtime& rt) override {
    const int me = rt.thread_id();
    int cur = 0;

    // Local sort (n log n comparisons charged).
    {
      auto& mine = bufs_[cur]->local(me).keys;
      std::sort(mine.begin(), mine.end());
      rt.compute_flops(2.0 * static_cast<double>(per_) *
                       std::max(1.0, std::log2(static_cast<double>(per_))));
    }
    rt.barrier();

    // Merge-split network.
    for (int k = 2; k <= n_; k <<= 1) {
      for (int j = k >> 1; j > 0; j >>= 1) {
        const int partner = me ^ j;
        const bool up = (me & k) == 0;
        const bool keep_low = (me < partner) == up;

        const KeyBlock& theirs = bufs_[cur]->get(partner, block_bytes_);
        const KeyBlock& mine = bufs_[cur]->get(me);
        KeyBlock& out = bufs_[1 - cur]->local(me);
        merge_keep(mine.keys, theirs.keys, keep_low, out.keys);
        rt.compute_flops(4.0 * static_cast<double>(per_));

        cur = 1 - cur;
        rt.barrier();
      }
    }
    final_ = cur;
  }

  void verify() override {
    std::vector<double> got;
    got.reserve(static_cast<std::size_t>(total_));
    for (int t = 0; t < n_; ++t) {
      const auto& blk = bufs_[final_]->init(t).keys;
      got.insert(got.end(), blk.begin(), blk.end());
    }
    XP_REQUIRE(std::is_sorted(got.begin(), got.end()),
               "sort: output is not globally sorted");
    const auto expect = shared_reference(SortKey{total_}, sorted_reference);
    XP_REQUIRE(got == *expect, "sort: output is not a permutation of input");
  }

 private:
  // Merge two ascending blocks, keep the lower or upper half (ascending).
  static void merge_keep(const std::vector<double>& a,
                         const std::vector<double>& b, bool keep_low,
                         std::vector<double>& out) {
    const std::size_t n = a.size();
    out.resize(n);
    if (keep_low) {
      std::size_t ia = 0, ib = 0;
      for (std::size_t o = 0; o < n; ++o)
        out[o] = (ib >= n || (ia < n && a[ia] <= b[ib])) ? a[ia++] : b[ib++];
    } else {
      std::size_t ia = n, ib = n;
      for (std::size_t o = n; o-- > 0;) {
        if (ib == 0 || (ia > 0 && a[ia - 1] > b[ib - 1]))
          out[o] = a[--ia];
        else
          out[o] = b[--ib];
      }
    }
  }

  std::int64_t total_;
  int n_ = 1;
  std::int64_t per_ = 0;
  std::int32_t block_bytes_ = 0;
  std::unique_ptr<rt::Collection<KeyBlock>> bufs_[2];
  int final_ = 0;
};

}  // namespace

std::unique_ptr<rt::Program> make_sort(const SuiteConfig& cfg) {
  return std::make_unique<SortProgram>(cfg);
}

}  // namespace xp::suite
