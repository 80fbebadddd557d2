// KiWiByteMap correctness: the byte-string instantiation against a
// std::map<std::string, std::string> oracle, plus targeted edge cases the
// arena scheme introduces — prefix-colliding keys (first 8 bytes equal, so
// lookups must fall through to the arena memcmp), empty values, duplicate
// puts, arena exhaustion triggering rebalance, snapshots, PutBatch and the
// bulk-load constructor.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/byte_map.h"
#include "common/random.h"
#include "obs/census.h"

namespace kiwi::api {
namespace {

using Entry = KiWiByteMap::Entry;

// Key material mixing three shapes: short keys (prefix decides alone),
// long keys sharing an 8+ byte prefix (every comparison memcmps the arena),
// and keys with embedded NULs / high bytes (memcmp order, not strcmp).
std::string MakeKey(Xoshiro256& rng) {
  switch (rng.NextBounded(4)) {
    case 0:  // short: fits entirely in the cell prefix
      return std::string(1 + rng.NextBounded(7), 'a' + rng.NextBounded(4));
    case 1: {  // shared long prefix + short suffix: prefix always ties
      std::string key = "sharedprefix!";
      key += static_cast<char>('a' + rng.NextBounded(6));
      if (rng.NextBounded(2)) key += static_cast<char>('0' + rng.NextBounded(3));
      return key;
    }
    case 2: {  // embedded NUL and high bytes
      std::string key = "nul";
      key += '\0';
      key += static_cast<char>(rng.NextBounded(256));
      return key;
    }
    default: {  // medium random
      std::string key(8 + rng.NextBounded(24), '\0');
      for (char& c : key) c = static_cast<char>('A' + rng.NextBounded(26));
      return key;
    }
  }
}

std::string MakeValue(Xoshiro256& rng, int i) {
  if (rng.NextBounded(8) == 0) return "";  // empty values are legal
  std::string value = "v" + std::to_string(i) + ":";
  value.append(rng.NextBounded(48), 'x');
  return value;
}

TEST(KiWiByteMap, RandomOpsAgreeWithStdMap) {
  core::KiWiConfig config;
  config.chunk_capacity = 64;             // stress rebalancing
  config.bytes.arena_bytes_per_cell = 48; // and arena exhaustion
  KiWiByteMap map(config);
  std::map<std::string, std::string> oracle;
  Xoshiro256 rng(20260808);
  std::vector<Entry> out;

  for (int i = 0; i < 12000; ++i) {
    const std::string key = MakeKey(rng);
    switch (rng.NextBounded(100)) {
      default: {  // 0-49: put
        const std::string value = MakeValue(rng, i);
        map.Put(key, value);
        oracle[key] = value;
        break;
      }
      case 50 ... 69:  // remove
        map.Remove(key);
        oracle.erase(key);
        break;
      case 70 ... 89: {  // get
        const auto got = map.Get(key);
        const auto it = oracle.find(key);
        if (it == oracle.end()) {
          ASSERT_FALSE(got.has_value()) << "phantom key " << key;
        } else {
          ASSERT_TRUE(got.has_value()) << "lost key " << key;
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 90 ... 99: {  // range scan [key, key + suffix]
        const std::string to = key + "zzzz";
        map.Scan(key, to, out);
        auto it = oracle.lower_bound(key);
        std::size_t index = 0;
        for (; it != oracle.end() && it->first <= to; ++it, ++index) {
          ASSERT_LT(index, out.size());
          ASSERT_EQ(out[index].first, it->first);
          ASSERT_EQ(out[index].second, it->second);
        }
        ASSERT_EQ(out.size(), index);
        break;
      }
    }
  }

  // Final full comparison through the unbounded scan.
  out.clear();
  map.ScanFrom(ByteMapMinKey(), [&out](std::string_view k, std::string_view v) {
    out.emplace_back(k, v);
  });
  ASSERT_EQ(out.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : out) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
  map.CheckInvariants();
}

TEST(KiWiByteMap, PrefixCollidingKeysAreDistinct) {
  KiWiByteMap map;
  // All 26 keys share the same 12-byte prefix: every comparison ties on the
  // cell prefix and must resolve through the arena memcmp.
  for (char c = 'a'; c <= 'z'; ++c) {
    map.Put(std::string("sameprefix--") + c, std::string(1, c));
  }
  for (char c = 'a'; c <= 'z'; ++c) {
    const auto got = map.Get(std::string("sameprefix--") + c);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, std::string(1, c));
  }
  // A key that is a strict prefix of another sorts first.
  map.Put("sameprefix--", "bare");
  std::vector<Entry> out;
  map.Scan("sameprefix--", "sameprefix--b", out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, "sameprefix--");
  EXPECT_EQ(out[1].first, "sameprefix--a");
  EXPECT_EQ(out[2].first, "sameprefix--b");
}

TEST(KiWiByteMap, EmptyValueAndTombstoneAreDistinguished) {
  KiWiByteMap map;
  map.Put("k", "");
  auto got = map.Get("k");
  ASSERT_TRUE(got.has_value()) << "empty value must not read as absent";
  EXPECT_EQ(*got, "");
  map.Remove("k");
  EXPECT_FALSE(map.Get("k").has_value());
  map.Put("k", "back");
  EXPECT_EQ(map.Get("k").value_or(""), "back");
}

TEST(KiWiByteMap, ArenaExhaustionTriggersRebalance) {
  core::KiWiConfig config;
  config.chunk_capacity = 256;
  config.bytes.arena_bytes_per_cell = 16;  // tiny arena, roomy cell array
  KiWiByteMap map(config);
  // Values far above arena_bytes_per_cell: the arena fills long before the
  // cell array, so progress requires the arena-full rebalance trigger.
  const std::string fat(200, 'F');
  for (int i = 0; i < 2000; ++i) {
    map.Put("key" + std::to_string(i), fat);
  }
  for (int i = 0; i < 2000; ++i) {
    const auto got = map.Get("key" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << "key" << i;
    ASSERT_EQ(*got, fat);
  }
  map.CheckInvariants();
}

TEST(KiWiByteMap, PutBatchShortRunsSurviveArenaExhaustion) {
  // Regression: a short PutBatch run whose first entry no longer fit the
  // chunk's remaining arena (while arena_used was still below capacity)
  // used to retry the per-op path forever — PutRunPerOp claimed nothing,
  // PutBatch's "full" check only fired at arena_used >= capacity, and with
  // a healthy batched prefix ShouldTrigger is deterministically false, so
  // no rebalance was ever dispatched.  Bulk-loading builds exactly that
  // healthy prefix; the fat puts then exhaust the arena bytes long before
  // the batched ratio turns unhealthy.
  core::KiWiConfig config;
  config.chunk_capacity = 64;              // bulk threshold 8 > run size 1
  config.bytes.arena_bytes_per_cell = 64;  // 4 KiB arena, 1 KiB max entry
  std::vector<Entry> seed;
  for (int i = 0; i < 64; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "k%02d", i);
    seed.emplace_back(buf, "v");  // 4 arena bytes each: cells fill first
  }
  KiWiByteMap map{std::span<const Entry>(seed), config};
  // Eight ~900-byte entries aimed at the first chunk: its arena (~129 of
  // 4096 bytes used, 32 batched cells) exhausts after four of them while
  // allocated cells are still far below both capacity and the unbalanced-
  // prefix threshold.
  const std::string fat(900, 'B');
  std::vector<Entry> batch;
  for (int i = 0; i < 8; ++i) {
    batch.assign({{"k0" + std::to_string(i) + "fat", fat}});
    map.PutBatch(batch);  // single-entry run: always the per-op path
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(map.Get("k0" + std::to_string(i) + "fat").value_or(""), fat)
        << i;
  }
  map.CheckInvariants();
}

TEST(KiWiByteMap, PinnedSnapshotRetainsOversizedVersionRun) {
  // Regression: with a snapshot pinning every later version of one key,
  // rebalance used to die on a fatal assert once the key's retained
  // version run outgrew a whole chunk's arena (a key run is never split
  // across chunks).  It now gives that one replacement chunk an oversized
  // arena instead.  The interleaved scans advance the global version so
  // every put lands at a distinct version — same-version overwrites are
  // superseded ties that compaction may (correctly) collapse.
  core::KiWiConfig config;
  config.chunk_capacity = 64;
  config.bytes.arena_bytes_per_cell = 64;  // 4 KiB arena, 1 KiB max entry
  KiWiByteMap map(config);
  map.Put("pinned", "v0");
  KiWiByteMap::Snapshot snap(map);
  // Each write adds a version the snapshot keeps alive; 12 x 900 bytes is
  // more than double one chunk's arena, so the arena-full rebalances along
  // the way must carry the whole run into a single oversized chunk.
  std::string last;
  for (int i = 0; i < 12; ++i) {
    last = std::string(900, static_cast<char>('a' + i));
    map.Put("pinned", last);
    map.Scan("pinned", "pinned~", [](std::string_view, std::string_view) {});
  }
  EXPECT_EQ(snap.Get("pinned").value_or(""), "v0");
  EXPECT_EQ(map.Get("pinned").value_or(""), last);
  map.CheckInvariants();
}

TEST(KiWiByteMap, PinnedSnapshotRetainsVersionRunLongerThanAChunk) {
  // The cell-count form of the test above: small versions, so the run
  // outgrows the default 1024-cell capacity long before the arena.  Put
  // used to spin forever once the run neared a whole chunk; the chunk
  // holding the run now gets an oversized cell capacity.
  KiWiByteMap map;
  for (int k = 0; k < 100; ++k) map.Put("key:" + std::to_string(k), "v0");
  KiWiByteMap::Snapshot snap(map);
  constexpr int kVersions = 1100;
  for (int i = 1; i <= kVersions; ++i) {
    map.Put("key:50", "v" + std::to_string(i));
    std::size_t seen = 0;
    map.Scan("key:50", "key:50",
             [&seen](std::string_view, std::string_view) { ++seen; });
    ASSERT_EQ(seen, 1u);
  }
  EXPECT_EQ(snap.Get("key:50").value_or(""), "v0");
  EXPECT_EQ(map.Get("key:50").value_or(""), "v" + std::to_string(kVersions));
  EXPECT_EQ(map.Size(), 100u);
  map.CheckInvariants();
}

TEST(KiWiByteMap, PutBatchMatchesPutSemantics) {
  KiWiByteMap map;
  std::vector<Entry> batch;
  for (int i = 0; i < 3000; ++i) {
    batch.emplace_back("batch:" + std::to_string(i % 1000),
                       "v" + std::to_string(i));
  }
  map.PutBatch(batch);  // duplicates: last occurrence wins
  for (int k = 0; k < 1000; ++k) {
    const auto got = map.Get("batch:" + std::to_string(k));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "v" + std::to_string(2000 + k));
  }
  EXPECT_EQ(map.Size(), 1000u);
}

TEST(KiWiByteMap, BulkLoadConstructor) {
  std::vector<Entry> sorted;
  for (int i = 0; i < 5000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "key%06d", i);
    sorted.emplace_back(buf, "value" + std::to_string(i));
  }
  KiWiByteMap map{std::span<const Entry>(sorted)};
  EXPECT_EQ(map.Size(), sorted.size());
  EXPECT_EQ(map.Get("key000000").value_or(""), "value0");
  EXPECT_EQ(map.Get("key004999").value_or(""), "value4999");
  map.CheckInvariants();
}

TEST(KiWiByteMap, SnapshotIsolatesFromLaterWrites) {
  KiWiByteMap map;
  for (int i = 0; i < 100; ++i) {
    map.Put("s" + std::to_string(i), "old");
  }
  KiWiByteMap::Snapshot snap(map);
  for (int i = 0; i < 100; ++i) {
    map.Put("s" + std::to_string(i), "new");
  }
  map.Remove("s0");
  EXPECT_EQ(snap.Get("s0").value_or(""), "old");
  EXPECT_EQ(snap.Get("s99").value_or(""), "old");
  EXPECT_EQ(map.Get("s99").value_or(""), "new");
  std::vector<Entry> out;
  snap.Scan("s", "szzz", out);
  EXPECT_EQ(out.size(), 100u);
  for (const auto& [k, v] : out) EXPECT_EQ(v, "old");
}

TEST(KiWiByteMap, ConcurrentPutsAndScansStayConsistent) {
  core::KiWiConfig config;
  config.chunk_capacity = 128;
  KiWiByteMap map(config);
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 800;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&map, w] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        map.Put("w" + std::to_string(w) + ":" + std::to_string(i),
                "payload-" + std::to_string(w * kKeysPerWriter + i));
      }
    });
  }
  // Concurrent scanner: every observed snapshot must be sorted and
  // duplicate-free (atomicity of the scan itself).
  threads.emplace_back([&map] {
    for (int round = 0; round < 20; ++round) {
      std::string prev;
      map.ScanFrom(ByteMapMinKey(),
                   [&prev](std::string_view k, std::string_view) {
                     ASSERT_LT(prev, std::string(k));
                     prev = std::string(k);
                   });
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(map.Size(),
            static_cast<std::size_t>(kWriters) * kKeysPerWriter);
  map.CheckInvariants();
}

TEST(KiWiByteMap, CensusReportsArenaColumns) {
  KiWiByteMap map;
  for (int i = 0; i < 500; ++i) {
    map.Put("census" + std::to_string(i), std::string(40, 'c'));
  }
  const obs::ChunkCensus census = map.Census();
  EXPECT_GT(census.arena_capacity_bytes, 0u);
  EXPECT_GT(census.arena_used_bytes, 0u);
  EXPECT_LE(census.arena_used_bytes, census.arena_capacity_bytes);
  std::uint64_t hist_total = 0;
  for (const auto bucket : census.arena_hist) hist_total += bucket;
  EXPECT_EQ(hist_total, census.chunks);
  EXPECT_NE(census.ToJson().find("\"arena_used_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace kiwi::api
