// Tests for PutBatch: run splitting, the bulk-build path, duplicate
// semantics, input lifetime, and batches racing rebalances
// (docs/INGEST.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/byte_map.h"
#include "api/map_interface.h"
#include "common/random.h"
#include "common/test_hooks.h"
#include "core/kiwi_map.h"

namespace kiwi::core {
namespace {

using Entry = KiWiMap::Entry;
using api::ByteMapMinKey;
using api::KiWiByteMap;

std::vector<Entry> MakeAscending(Key first, std::size_t count,
                                 Key stride = 1) {
  std::vector<Entry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Key k = first + static_cast<Key>(i) * stride;
    entries.emplace_back(k, static_cast<Value>(k) * 7);
  }
  return entries;
}

TEST(KiWiBatch, EmptyBatchIsANoOp) {
  KiWiMap map;
  map.PutBatch({});
  EXPECT_EQ(map.Size(), 0u);
  map.CheckInvariants();
}

TEST(KiWiBatch, SingleEntryBehavesLikePut) {
  KiWiMap map;
  const Entry entry{42, 420};
  map.PutBatch(std::span<const Entry>(&entry, 1));
  EXPECT_EQ(map.Get(42).value_or(-1), 420);
  EXPECT_EQ(map.Size(), 1u);
  map.CheckInvariants();
}

TEST(KiWiBatch, UnsortedInputIsSortedInternally) {
  KiWiMap map;
  std::vector<Entry> entries = MakeAscending(1, 500);
  Xoshiro256 rng(17);
  for (std::size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.NextBounded(i)]);
  }
  map.PutBatch(entries);
  EXPECT_EQ(map.Size(), 500u);
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_EQ(map.Get(k).value_or(-1), static_cast<Value>(k) * 7);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, DuplicateKeysLastOccurrenceWins) {
  KiWiMap map;
  const std::vector<Entry> entries{
      {5, 100}, {7, 200}, {5, 101}, {9, 300}, {5, 102}, {7, 201}};
  map.PutBatch(entries);
  EXPECT_EQ(map.Get(5).value_or(-1), 102);
  EXPECT_EQ(map.Get(7).value_or(-1), 201);
  EXPECT_EQ(map.Get(9).value_or(-1), 300);
  EXPECT_EQ(map.Size(), 3u);
  map.CheckInvariants();
}

TEST(KiWiBatch, BatchOverwritesExistingKeys) {
  KiWiMap map;
  for (Key k = 1; k <= 200; ++k) map.Put(k, -static_cast<Value>(k));
  map.PutBatch(std::vector<Entry>(MakeAscending(50, 100)));
  for (Key k = 1; k <= 200; ++k) {
    const Value expected =
        (k >= 50 && k < 150) ? static_cast<Value>(k) * 7 : -static_cast<Value>(k);
    ASSERT_EQ(map.Get(k).value_or(0), expected) << "key " << k;
  }
  EXPECT_EQ(map.Size(), 200u);
  map.CheckInvariants();
}

TEST(KiWiBatch, SpansManyChunks) {
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  // Seed enough keys to split the map into several chunks, then batch
  // across the full range so the run splitter must walk chunk to chunk.
  for (Key k = 1; k <= 2000; k += 2) map.Put(k, 0);
  map.PutBatch(std::vector<Entry>(MakeAscending(1, 2000)));
  EXPECT_EQ(map.Size(), 2000u);
  std::vector<Entry> out;
  map.Scan(kMinUserKey, kMaxUserKey, out);
  ASSERT_EQ(out.size(), 2000u);
  for (Key k = 1; k <= 2000; ++k) {
    ASSERT_EQ(out[static_cast<std::size_t>(k - 1)],
              (Entry{k, static_cast<Value>(k) * 7}));
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, PresortedIngestTakesBulkPath) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  map.PutBatch(std::vector<Entry>(MakeAscending(1, 10000)));
  EXPECT_EQ(map.Size(), 10000u);
  const auto report = map.DebugReport();
  if (report.stats_enabled) {
    EXPECT_EQ(report.counters.put_batches, 1u);
    EXPECT_EQ(report.counters.batch_entries, 10000u);
    // A large presorted batch into a near-empty map must build chunks
    // directly, not trickle through the per-op PPA path.
    EXPECT_GT(report.counters.batch_bulk_entries, 9000u);
  }
  // Bulk-built chunks carry sorted prefixes the scan fast-path can use.
  EXPECT_GT(map.Report().avg_batched_ratio, 0.5);
  map.CheckInvariants();
}

TEST(KiWiBatch, SmallRunsUsePerOpPath) {
  KiWiConfig config;
  config.chunk_capacity = 128;
  config.batch_bulk_min_run = 1000;  // effectively disable bulk builds
  KiWiMap map(config);
  map.PutBatch(std::vector<Entry>(MakeAscending(1, 500)));
  EXPECT_EQ(map.Size(), 500u);
  const auto report = map.DebugReport();
  if (report.stats_enabled) {
    // Runs are capped by chunk boundaries (< 1000), so nothing bulk-built
    // until a chunk fills and rebalance splits carry entries through.
    EXPECT_EQ(report.counters.put_batches, 1u);
  }
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_EQ(map.Get(k).value_or(-1), static_cast<Value>(k) * 7);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, PresortedBatchWithDuplicatesKeepsLastValue) {
  // Presorted input skips the sort, so the dedup pass alone must apply the
  // keep-last rule — on the per-op path (short runs) and the bulk path.
  KiWiMap map;
  const std::vector<Entry> small{{1, 10}, {2, 20}, {2, 21},
                                 {3, 30}, {3, 31}, {3, 32}};
  map.PutBatch(small);
  EXPECT_EQ(map.Get(1).value_or(-1), 10);
  EXPECT_EQ(map.Get(2).value_or(-1), 21);
  EXPECT_EQ(map.Get(3).value_or(-1), 32);
  std::vector<Entry> big;
  for (Key k = 100; k < 2100; ++k) {
    big.emplace_back(k, static_cast<Value>(k));
    big.emplace_back(k, static_cast<Value>(k) * 7);
  }
  map.PutBatch(big);
  for (Key k = 100; k < 2100; ++k) {
    ASSERT_EQ(map.Get(k).value_or(-1), static_cast<Value>(k) * 7) << k;
  }
  EXPECT_EQ(map.Size(), 2003u);
  map.CheckInvariants();
}

// Regression: a per-op run reused its PPA slot without re-reading the chunk
// status.  FreezePpa skips a slot that already holds a version, so a
// rebalance that froze the chunk while entry t was linking left the slot
// open once cleared, and entry t+1 linked into the frozen chunk after the
// rebalance had harvested it: a completed write was lost.  The hook
// rebalances every chunk exactly at that point, once.
KiWiMap* g_compact_once = nullptr;

void CompactOnce() {
  if (KiWiMap* map = std::exchange(g_compact_once, nullptr)) {
    map->CompactAll();
  }
}

TEST(KiWiBatch, FreezeBetweenRunEntriesLosesNoWrite) {
  KiWiMap map;
  const std::vector<Entry> batch = MakeAscending(1, 4);  // one short run
  g_compact_once = &map;
  {
    TestHooks::Scoped hook(TestHooks::put_run_after_link, &CompactOnce);
    map.PutBatch(batch);
  }
  ASSERT_EQ(g_compact_once, nullptr) << "the hook never fired";
  for (const Entry& entry : batch) {
    EXPECT_EQ(map.Get(entry.first).value_or(-1), entry.second)
        << "key " << entry.first << " lost";
  }
  EXPECT_EQ(map.Size(), batch.size());
  const auto report = map.DebugReport();
  if (report.stats_enabled) {
    EXPECT_EQ(report.counters.batch_bulk_entries, 0u) << "not the per-op path";
  }
  map.CheckInvariants();
}

TEST(KiWiByteBatch, InputMayBeOverwrittenAndFreedAfterReturn) {
  // Normalization sorts views into the caller's entries.  Every byte must
  // reach a chunk arena before PutBatch returns: the caller then scribbles
  // over its strings and frees them (heap-allocated, so a retained view
  // would be a use-after-free under ASAN, or a wrong value without it).
  KiWiByteMap map;
  std::map<std::string, std::string> oracle;
  const auto key_of = [](std::uint64_t series, std::uint64_t ts) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "tenant:0001/sensor:%05llu/ts:%010llu",
                  static_cast<unsigned long long>(series),
                  static_cast<unsigned long long>(ts));
    return std::string(buf);
  };
  const auto ingest = [&](std::vector<KiWiByteMap::Entry> batch) {
    map.PutBatch(batch);
    for (const auto& [k, v] : batch) oracle[k] = v;
    for (auto& [k, v] : batch) {
      std::fill(k.begin(), k.end(), 'X');
      std::fill(v.begin(), v.end(), 'Y');
    }
    batch.clear();
    batch.shrink_to_fit();
  };
  // Presorted bursts (bulk path), then scattered bursts with duplicates
  // (sort + per-op runs across the chunks the first bursts built).
  for (std::uint64_t series = 0; series < 4; ++series) {
    std::vector<KiWiByteMap::Entry> burst;
    for (std::uint64_t ts = 0; ts < 1000; ++ts) {
      burst.emplace_back(key_of(series, ts),
                         "reading " + std::to_string(series * ts) +
                             std::string(24, 'r'));
    }
    ingest(std::move(burst));
  }
  Xoshiro256 rng(5);
  for (int round = 0; round < 20; ++round) {
    std::vector<KiWiByteMap::Entry> burst;
    for (int i = 0; i < 100; ++i) {
      burst.emplace_back(key_of(rng.NextBounded(5), rng.NextBounded(1200)),
                         "late " + std::to_string(round) + ":" +
                             std::to_string(i) + std::string(20, 'l'));
    }
    ingest(std::move(burst));
  }
  std::vector<KiWiByteMap::Entry> out;
  map.ScanFrom(ByteMapMinKey(), [&out](std::string_view k, std::string_view v) {
    out.emplace_back(std::string(k), std::string(v));
  });
  ASSERT_EQ(out.size(), oracle.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), oracle.begin(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  map.CheckInvariants();
}

TEST(KiWiBatch, MatchesPerOpSemanticsOnRandomMix) {
  // Oracle check: interleave batches and single puts; final state must
  // equal replaying the same operations through a std::map.
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  std::map<Key, Value> oracle;
  Xoshiro256 rng(23);
  for (int round = 0; round < 50; ++round) {
    std::vector<Entry> batch;
    const std::size_t n = 1 + rng.NextBounded(120);
    for (std::size_t i = 0; i < n; ++i) {
      batch.emplace_back(static_cast<Key>(1 + rng.NextBounded(800)),
                         static_cast<Value>(rng.Next() >> 8 | 1));
    }
    map.PutBatch(batch);
    for (const auto& [k, v] : batch) oracle[k] = v;
    const Key solo = static_cast<Key>(1 + rng.NextBounded(800));
    map.Put(solo, round + 1);
    oracle[solo] = round + 1;
  }
  std::vector<Entry> out;
  map.Scan(kMinUserKey, kMaxUserKey, out);
  ASSERT_EQ(out.size(), oracle.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), oracle.begin(),
                         [](const Entry& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  map.CheckInvariants();
}

// Sparse batches over full batched prefixes: one key every ~50 positions
// spread across several chunks, so each chunk's run (~20 entries) stays far
// below the bulk threshold (128 at the default capacity) and every entry
// takes the per-op path, whose insertion search gallops over the batched
// prefix between consecutive run keys.  Half the keys are new (odd
// positions between the loaded even ones), half overwrite loaded or
// earlier-batched keys; without scans the global version stands still, so
// repeat overwrites also take the {key, version} tie path.
template <typename Map, typename MakeKey, typename MakeValue>
void CheckSparseBatchesAgainstOracle(MakeKey make_key, MakeValue make_value) {
  using MapEntry = typename Map::Entry;
  constexpr int kPositions = 8000;
  std::vector<MapEntry> loaded;
  for (int i = 0; i < kPositions; i += 2) {
    loaded.emplace_back(make_key(i), make_value(i));
  }
  Map map{std::span<const MapEntry>(loaded)};
  std::map<typename MapEntry::first_type, typename MapEntry::second_type>
      oracle(loaded.begin(), loaded.end());
  Xoshiro256 rng(41);
  // 10 rounds keep each chunk's batched prefix above the policy's 0.625
  // share of its cells, so no rebalance (and no bulk build) is triggered.
  for (int round = 1; round <= 10; ++round) {
    std::vector<MapEntry> batch;
    for (int i = static_cast<int>(rng.NextBounded(50)); i < kPositions;
         i += 40 + static_cast<int>(rng.NextBounded(21))) {
      batch.emplace_back(make_key(i), make_value(round * kPositions + i));
    }
    std::reverse(batch.begin(), batch.end());  // PutBatch sorts
    map.PutBatch(batch);
    for (const auto& [key, value] : batch) oracle[key] = value;
  }
  const auto report = map.DebugReport();
  if (report.stats_enabled) {
    EXPECT_EQ(report.counters.put_batches, 10u);
    EXPECT_EQ(report.counters.batch_bulk_entries, 0u)
        << "every run must stay on the per-op path";
  }
  std::vector<MapEntry> out;
  map.Scan(make_key(0), make_key(kPositions), out);
  ASSERT_EQ(out.size(), oracle.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), oracle.begin(),
                         [](const MapEntry& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  for (const auto& [key, value] : oracle) {
    ASSERT_EQ(map.Get(key), value);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, SparseRunsMatchOracle) {
  CheckSparseBatchesAgainstOracle<KiWiMap>(
      [](int i) { return static_cast<Key>(i + 1); },
      [](int v) { return static_cast<Value>(v) * 3 + 1; });
}

TEST(KiWiByteBatch, SparseRunsMatchOracle) {
  // One shared 8-byte prefix: every compare falls through to memcmp.
  CheckSparseBatchesAgainstOracle<KiWiByteMap>(
      [](int i) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "series:%06d", i);
        return std::string(buf);
      },
      [](int v) { return "value-" + std::to_string(v); });
}

TEST(KiWiBatch, ConcurrentBatchesOnDisjointRanges) {
  // Batches racing each other and the rebalances they trigger: every
  // thread's partition must land completely, and the structure must stay
  // coherent under CheckInvariants.
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  constexpr int kThreads = 4;
  constexpr Key kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const auto entries =
          MakeAscending(static_cast<Key>(t) * kPerThread + 1, kPerThread);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Split into bursts so batches from different threads interleave.
      for (std::size_t off = 0; off < entries.size(); off += 512) {
        const std::size_t n = std::min<std::size_t>(512, entries.size() - off);
        map.PutBatch(std::span<const Entry>(entries.data() + off, n));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (Key k = 1; k <= kThreads * kPerThread; k += 37) {
    ASSERT_EQ(map.Get(k).value_or(-1), static_cast<Value>(k) * 7);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, ConcurrentBatchesOnOverlappingKeys) {
  // All threads batch the same key range with distinct values; afterwards
  // every key must hold *some* thread's value for it (each entry linearized
  // individually — no torn or lost updates).
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  constexpr int kThreads = 4;
  constexpr Key kKeys = 3000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<Entry> entries;
      for (Key k = 1; k <= kKeys; ++k) {
        entries.emplace_back(k, static_cast<Value>(t + 1) * 1000000 + k);
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t off = 0; off < entries.size(); off += 256) {
        const std::size_t n = std::min<std::size_t>(256, entries.size() - off);
        map.PutBatch(std::span<const Entry>(entries.data() + off, n));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kKeys));
  for (Key k = 1; k <= kKeys; ++k) {
    const Value v = map.Get(k).value_or(-1);
    const Value owner = v / 1000000;
    ASSERT_GE(owner, 1);
    ASSERT_LE(owner, kThreads);
    ASSERT_EQ(v % 1000000, k);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, BatchRacingScans) {
  // A scan cutting through an in-flight batch must see a consistent cut:
  // for an ascending batch, once it observes entry i it observes every
  // j < i from the same batch (entries linearize in key order within the
  // covering chunks; weaker property — monotone count — checked here).
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < 20; ++round) {
      map.PutBatch(std::vector<Entry>(
          MakeAscending(static_cast<Key>(round) * 1000 + 1, 1000)));
    }
    done.store(true, std::memory_order_release);
  });
  std::size_t last = 0;
  while (!done.load(std::memory_order_acquire)) {
    std::vector<Entry> out;
    map.Scan(kMinUserKey, kMaxUserKey, out);
    ASSERT_GE(out.size(), last) << "scan went backwards";
    ASSERT_TRUE(std::is_sorted(out.begin(), out.end()));
    last = out.size();
  }
  writer.join();
  EXPECT_EQ(map.Size(), 20000u);
  map.CheckInvariants();
}

TEST(ApiBatch, AdapterDispatchesAndFallbackMatches) {
  // KiWi routes through the native PutBatch; skiplist (no native batch)
  // falls back to the Put loop.  Same input -> same contents.
  const std::vector<api::IOrderedMap::Entry> entries{
      {3, 30}, {1, 10}, {2, 20}, {1, 11}};
  auto kiwi_map = api::MakeMap(api::MapKind::kKiWi);
  auto skip_map = api::MakeMap(api::MapKind::kSkipList);
  kiwi_map->PutBatch(entries);
  skip_map->PutBatch(entries);
  std::vector<api::IOrderedMap::Entry> kiwi_out, skip_out;
  kiwi_map->Scan(kMinUserKey, kMaxUserKey, kiwi_out);
  skip_map->Scan(kMinUserKey, kMaxUserKey, skip_out);
  EXPECT_EQ(kiwi_out, skip_out);
  ASSERT_EQ(kiwi_out.size(), 3u);
  EXPECT_EQ(kiwi_map->Get(1).value_or(-1), 11);  // last occurrence won
}

}  // namespace
}  // namespace kiwi::core
