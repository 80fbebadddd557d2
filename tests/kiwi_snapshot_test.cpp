// Tests for the Snapshot view extension: multiple queries at one pinned
// read point, isolation from concurrent writers, interplay with rebalance
// compaction (a pinned version must block version eviction).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/kiwi_map.h"

namespace kiwi::core {
namespace {

TEST(KiWiSnapshot, SeesStateAtCreation) {
  KiWiMap map;
  for (Key k = 0; k < 100; ++k) map.Put(k, 1);
  KiWiMap::Snapshot snapshot(map);
  // Mutate after the snapshot: updates, deletes, inserts.
  for (Key k = 0; k < 100; ++k) map.Put(k, 2);
  map.Remove(50);
  map.Put(1000, 3);
  // The view is frozen...
  EXPECT_EQ(snapshot.Get(0).value_or(-1), 1);
  EXPECT_EQ(snapshot.Get(50).value_or(-1), 1);
  EXPECT_FALSE(snapshot.Get(1000).has_value());
  std::vector<KiWiMap::Entry> out;
  EXPECT_EQ(snapshot.Scan(0, 2000, out), 100u);
  for (const auto& [k, v] : out) EXPECT_EQ(v, 1);
  // ...while the live map moved on.
  EXPECT_EQ(map.Get(0).value_or(-1), 2);
  EXPECT_FALSE(map.Get(50).has_value());
  EXPECT_EQ(map.Get(1000).value_or(-1), 3);
}

TEST(KiWiSnapshot, MultipleQueriesShareOneLinearizationPoint) {
  // The whole point of the extension: two range reads through one snapshot
  // are mutually consistent even with a writer in between.
  constexpr Key kKeys = 200;
  KiWiMap map(KiWiConfig{.chunk_capacity = 32});
  for (Key k = 0; k < kKeys; ++k) map.Put(k, 0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (Value round = 1; !stop.load(std::memory_order_acquire); ++round) {
      for (Key k = 0; k < kKeys; ++k) map.Put(k, round);
    }
  });
  for (int i = 0; i < 200; ++i) {
    KiWiMap::Snapshot snapshot(map);
    // Read the two halves separately, writer running in between.
    std::vector<KiWiMap::Entry> left;
    std::vector<KiWiMap::Entry> right;
    snapshot.Scan(0, kKeys / 2 - 1, left);
    snapshot.Scan(kKeys / 2, kKeys - 1, right);
    ASSERT_EQ(left.size() + right.size(), static_cast<std::size_t>(kKeys));
    // Concatenated halves must satisfy the sweep invariant ACROSS the two
    // separate queries — impossible without a shared read point.
    Value previous = left.front().second;
    for (const auto& [k, v] : left) {
      ASSERT_LE(v, previous);
      previous = v;
    }
    for (const auto& [k, v] : right) {
      ASSERT_LE(v, previous) << "snapshot halves disagree at key " << k;
      previous = v;
    }
    ASSERT_LE(left.front().second - right.back().second, 1);
    // Point reads agree with the ranges too.
    ASSERT_EQ(snapshot.Get(0).value_or(-1), left.front().second);
    ASSERT_EQ(snapshot.Get(kKeys - 1).value_or(-1), right.back().second);
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(KiWiSnapshot, PinsVersionsAgainstCompaction) {
  KiWiMap map(KiWiConfig{.chunk_capacity = 32});
  for (Key k = 0; k < 500; ++k) map.Put(k, 1);
  KiWiMap::Snapshot snapshot(map);
  // Overwrite everything repeatedly and force full compactions: the
  // snapshot's versions must survive.
  for (Value round = 2; round <= 5; ++round) {
    for (Key k = 0; k < 500; ++k) map.Put(k, round);
    map.CompactAll();
  }
  std::vector<KiWiMap::Entry> out;
  ASSERT_EQ(snapshot.Scan(0, 499, out), 500u);
  for (const auto& [k, v] : out) {
    ASSERT_EQ(v, 1) << "compaction evicted a pinned version at key " << k;
  }
  EXPECT_EQ(map.Get(250).value_or(-1), 5);  // live side unaffected
}

TEST(KiWiSnapshot, PinnedSnapshotRetainsVersionRunLongerThanAChunk) {
  // Regression: a snapshot pins every later version of one hot key, and a
  // key's version run is never split across chunks.  Once the run neared
  // the default 1024-cell capacity, every rebalance rebuilt the same full
  // chunk and Put spun forever (at small capacities the build aborted on
  // "one key's version run exceeds a whole chunk").  That chunk now gets an
  // oversized cell capacity.  The scan after each put advances the global
  // version, so every put lands at a distinct version.
  KiWiMap map;
  for (Key k = 1; k <= 100; ++k) map.Put(k, 0);
  KiWiMap::Snapshot snapshot(map);
  constexpr Value kVersions = 1100;
  std::vector<KiWiMap::Entry> out;
  for (Value i = 1; i <= kVersions; ++i) {
    map.Put(50, i);
    out.clear();
    map.Scan(50, 50, out);
    ASSERT_EQ(out.size(), 1u);
  }
  EXPECT_EQ(snapshot.Get(50).value_or(-1), 0);
  EXPECT_EQ(map.Get(50).value_or(-1), kVersions);
  EXPECT_EQ(map.Size(), 100u);
  map.CheckInvariants();
}

TEST(KiWiSnapshot, ReleaseUnpinsCompaction) {
  KiWiMap map(KiWiConfig{.chunk_capacity = 32});
  for (Key k = 0; k < 200; ++k) map.Put(k, 1);
  {
    KiWiMap::Snapshot snapshot(map);
    for (Key k = 0; k < 200; ++k) map.Put(k, 2);
    map.CompactAll();
    // Both versions alive while pinned.
    EXPECT_EQ(snapshot.Get(0).value_or(-1), 1);
  }
  // Unpinned: compaction may now drop the old versions entirely.
  map.CompactAll();
  map.DrainReclamation();
  EXPECT_EQ(map.Get(0).value_or(-1), 2);
  EXPECT_EQ(map.Size(), 200u);
  map.CheckInvariants();
}

TEST(KiWiSnapshot, DeletionsRespectReadPoint) {
  KiWiMap map(KiWiConfig{.chunk_capacity = 16});
  for (Key k = 0; k < 100; ++k) map.Put(k, 7);
  KiWiMap::Snapshot before_delete(map);
  for (Key k = 0; k < 100; k += 2) map.Remove(k);
  KiWiMap::Snapshot after_delete(map);
  // Compaction must keep tombstones new enough for `before_delete`.
  map.CompactAll();
  std::vector<KiWiMap::Entry> out;
  EXPECT_EQ(before_delete.Scan(0, 99, out), 100u);
  EXPECT_EQ(after_delete.Scan(0, 99, out), 50u);
  for (const auto& [k, v] : out) EXPECT_EQ(k % 2, 1);
}

TEST(KiWiSnapshot, ScansDoNotDisplaceAnOpenSnapshot) {
  // The hazard a separate snapshot PSA prevents: a transient Scan by the
  // same thread must not clobber the snapshot's pinned version.
  KiWiMap map(KiWiConfig{.chunk_capacity = 32});
  for (Key k = 0; k < 300; ++k) map.Put(k, 1);
  KiWiMap::Snapshot snapshot(map);
  for (Key k = 0; k < 300; ++k) map.Put(k, 2);
  std::vector<KiWiMap::Entry> out;
  map.Scan(0, 299, out);  // same thread, live scan (uses the scan PSA)
  EXPECT_EQ(out.front().second, 2);
  map.CompactAll();  // would evict version 1 were the pin displaced
  EXPECT_EQ(snapshot.Scan(0, 299, out), 300u);
  for (const auto& [k, v] : out) ASSERT_EQ(v, 1);
}

TEST(KiWiSnapshot, UpToLimitSnapshotsPerThread) {
  KiWiMap map;
  map.Put(1, 10);
  // Each additional snapshot sees the state at its own creation.
  std::vector<std::unique_ptr<KiWiMap::Snapshot>> open;
  for (std::size_t i = 0; i < KiWiMap::kMaxSnapshotsPerThread; ++i) {
    open.push_back(std::make_unique<KiWiMap::Snapshot>(map));
    map.Put(1, 10 + static_cast<Value>(i) + 1);
  }
  for (std::size_t i = 0; i < open.size(); ++i) {
    EXPECT_EQ(open[i]->Get(1).value_or(-1),
              10 + static_cast<Value>(i));
  }
  // Releasing one frees its sub-slot for reuse.
  open.pop_back();
  KiWiMap::Snapshot fresh(map);
  EXPECT_EQ(fresh.Get(1).value_or(-1),
            10 + static_cast<Value>(KiWiMap::kMaxSnapshotsPerThread));
}

TEST(KiWiSnapshotDeathTest, ExceedingSnapshotLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KiWiMap map;
  map.Put(1, 10);
  std::vector<std::unique_ptr<KiWiMap::Snapshot>> open;
  for (std::size_t i = 0; i < KiWiMap::kMaxSnapshotsPerThread; ++i) {
    open.push_back(std::make_unique<KiWiMap::Snapshot>(map));
  }
  EXPECT_DEATH({ KiWiMap::Snapshot one_too_many(map); },
               "kMaxSnapshotsPerThread");
}

TEST(KiWiSnapshot, PerThreadSnapshotsCoexist) {
  constexpr int kThreads = 4;
  KiWiMap map;
  for (Key k = 0; k < 100; ++k) map.Put(k, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KiWiMap::Snapshot snapshot(map);
      const Version point = snapshot.ReadPoint();
      for (int i = 0; i < 200; ++i) {
        map.Put(1000 + t, static_cast<Value>(point));  // churn out of range
        std::vector<KiWiMap::Entry> out;
        snapshot.Scan(0, 99, out);
        ASSERT_EQ(out.size(), 100u);
        for (const auto& [k, v] : out) {
          // All in-range data predates every snapshot in this test.
          ASSERT_EQ(v, 0);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

}  // namespace
}  // namespace kiwi::core
