// Parameterized CowTree sweeps: oracle agreement and snapshot isolation
// across workload shapes (insert-heavy, delete-heavy, overwrite-heavy) —
// each stresses a different COW path (fresh nodes, tombstones, in-place
// value stores vs clones).
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <tuple>

#include "baselines/snaptree/cow_tree.h"
#include "common/random.h"

namespace kiwi::baselines {
namespace {

struct Mix {
  const char* name;
  double put;
  double remove;
  double scan;
};

// Without this, GetParam() prints Mix's raw bytes, name pointer included:
// the discovered ctest names would then change with every build and run.
void PrintTo(const Mix& mix, std::ostream* os) { *os << mix.name; }

class CowTreeMix : public ::testing::TestWithParam<std::tuple<Mix, int>> {};

TEST_P(CowTreeMix, OracleAgreementUnderMix) {
  const auto [mix, seed] = GetParam();
  CowTree tree;
  std::map<Key, Value> oracle;
  Xoshiro256 rng(seed * 7919 + 3);
  std::vector<CowTree::Entry> out;
  for (int i = 0; i < 10000; ++i) {
    const Key key = static_cast<Key>(rng.NextBounded(700));
    const double draw = rng.NextDouble();
    if (draw < mix.put) {
      tree.Put(key, i);
      oracle[key] = i;
    } else if (draw < mix.put + mix.remove) {
      tree.Remove(key);
      oracle.erase(key);
    } else {
      // Scan bumps the generation: subsequent writes exercise COW cloning.
      const Key to = key + static_cast<Key>(rng.NextBounded(100));
      tree.Scan(key, to, out);
      auto it = oracle.lower_bound(key);
      std::size_t index = 0;
      for (; it != oracle.end() && it->first <= to; ++it, ++index) {
        ASSERT_LT(index, out.size());
        ASSERT_EQ(out[index].first, it->first);
        ASSERT_EQ(out[index].second, it->second);
      }
      ASSERT_EQ(out.size(), index);
    }
  }
  tree.Scan(0, 700, out);
  ASSERT_EQ(out.size(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, CowTreeMix,
    ::testing::Combine(
        ::testing::Values(Mix{"insert_heavy", 0.8, 0.05, 0.15},
                          Mix{"delete_heavy", 0.4, 0.45, 0.15},
                          Mix{"scan_heavy", 0.3, 0.1, 0.6}),
        ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CowTreeClones, CloneCountScalesWithSnapshotFrequency) {
  // More snapshots between writes → more frozen paths → more clones.
  const auto clones_for = [](int scans_per_round) {
    CowTree tree;
    for (Key k = 0; k < 256; ++k) tree.Put(k, 0);
    std::vector<CowTree::Entry> out;
    for (int round = 0; round < 40; ++round) {
      for (int s = 0; s < scans_per_round; ++s) tree.Scan(0, 255, out);
      for (Key k = 0; k < 256; ++k) tree.Put(k, round);
    }
    return tree.CowClones();
  };
  const std::uint64_t rare = clones_for(0);
  const std::uint64_t frequent = clones_for(1);
  EXPECT_EQ(rare, 0u);  // no snapshots -> never a frozen node
  EXPECT_GT(frequent, 1000u);
}

}  // namespace
}  // namespace kiwi::baselines
