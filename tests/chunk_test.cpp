// Unit tests for the chunk data structure: PPA word packing, batched-prefix
// binary search, intra-chunk list operations, versioned reads, freezing,
// helping, and harvest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_registry.h"
#include "core/chunk.h"
#include "reclaim/pool.h"

namespace kiwi::core {
namespace {

using Item = Chunk::Item;

// Chunks are slab-allocated through a SlabPool; tests share one and own the
// result through a Destroy-ing unique_ptr.
using ChunkPtr = std::unique_ptr<Chunk, decltype(&Chunk::Destroy)>;

reclaim::SlabPool& TestPool() {
  static reclaim::SlabPool pool;
  return pool;
}

ChunkPtr MakeChunkWith(std::vector<Item> items, std::uint32_t capacity = 64) {
  return ChunkPtr(Chunk::Create(TestPool(), kMinUserKey, capacity, nullptr,
                                Chunk::Status::kNormal, items),
                  &Chunk::Destroy);
}

TEST(PpaWord, PackRoundTrips) {
  const std::uint64_t word = Chunk::PackPpa(0x123456789ABCull, 0x321);
  EXPECT_EQ(Chunk::PpaVer(word), 0x123456789ABCull);
  EXPECT_EQ(Chunk::PpaIdx(word), 0x321u);
}

TEST(PpaWord, SpecialValuesDistinct) {
  EXPECT_EQ(Chunk::PpaVer(Chunk::kPpaIdle), Chunk::kPpaVerBottom);
  EXPECT_EQ(Chunk::PpaIdx(Chunk::kPpaIdle), Chunk::kPpaNoIdx);
  EXPECT_NE(Chunk::kPpaVerFrozen, Chunk::kPpaVerBottom);
  EXPECT_GT(Chunk::kPpaVerFrozen, kMaxReadVersion);
}

TEST(ChunkBatched, ConstructorSeedsSortedPrefix) {
  std::vector<Item> items;
  for (int i = 0; i < 10; ++i) {
    items.push_back(Item{100 + i * 10, 1, 0, i});
  }
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  EXPECT_EQ(chunk.batched_count, 10u);
  EXPECT_EQ(chunk.AllocatedCells(), 10u);
  // Walk the linked list: sequential 1..10 with correct payloads.
  std::int32_t curr = chunk.k[0].next.load();
  int seen = 0;
  while (curr != Chunk::kNullIdx) {
    EXPECT_EQ(chunk.k[curr].key, 100 + seen * 10);
    EXPECT_EQ(chunk.v[chunk.k[curr].val_ptr.load()], seen);
    curr = chunk.k[curr].next.load();
    ++seen;
  }
  EXPECT_EQ(seen, 10);
}

TEST(ChunkBatched, BinarySearchFindsStrictPredecessor) {
  std::vector<Item> items;
  for (int i = 0; i < 16; ++i) items.push_back(Item{10 * (i + 1), 1, 0, i});
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  EXPECT_EQ(chunk.BatchedPredecessor(5), 0);     // sentinel
  EXPECT_EQ(chunk.BatchedPredecessor(10), 0);    // strict: 10 not < 10
  EXPECT_EQ(chunk.BatchedPredecessor(11), 1);
  EXPECT_EQ(chunk.BatchedPredecessor(100), 9);
  EXPECT_EQ(chunk.BatchedPredecessor(10000), 16);
}

TEST(ChunkBatched, VersionsDescendWithinKey) {
  // Two versions of key 50, newest first.
  std::vector<Item> items{{50, 7, 0, 700}, {50, 3, 1, 300}, {60, 1, 2, 600}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  // Latest at unbounded read point: version 7.
  auto latest = chunk.FindLatest(50, kMaxReadVersion);
  ASSERT_TRUE(latest.found);
  EXPECT_EQ(latest.version, 7u);
  EXPECT_EQ(latest.value, 700);
  // A scan with read point 5 sees version 3.
  latest = chunk.FindLatest(50, 5);
  ASSERT_TRUE(latest.found);
  EXPECT_EQ(latest.version, 3u);
  EXPECT_EQ(latest.value, 300);
  // A scan with read point 2 sees nothing.
  EXPECT_FALSE(chunk.FindLatest(50, 2).found);
}

TEST(ChunkFind, ReportsInsertionPoint) {
  std::vector<Item> items{{10, 1, 0, 0}, {30, 1, 1, 0}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  std::int32_t pred = -2, succ = -2;
  // Missing key between the two: pred = cell(10), succ = cell(30).
  EXPECT_EQ(chunk.FindCell(20, 1, &pred, &succ), Chunk::kNullIdx);
  EXPECT_EQ(chunk.k[pred].key, 10);
  EXPECT_EQ(chunk.k[succ].key, 30);
  // Exact {key, version} hit.
  const std::int32_t hit = chunk.FindCell(30, 1, &pred, &succ);
  ASSERT_NE(hit, Chunk::kNullIdx);
  EXPECT_EQ(chunk.k[hit].key, 30);
  // Same key, different version: miss, positioned after version 1?  A
  // *newer* version (5 > 1) belongs before the existing cell.
  EXPECT_EQ(chunk.FindCell(30, 5, &pred, &succ), Chunk::kNullIdx);
  EXPECT_EQ(chunk.k[pred].key, 10);
  EXPECT_EQ(chunk.k[succ].key, 30);
}

TEST(ChunkPpa, PendingPutVisibleThroughFindLatest) {
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  // Simulate the put protocol up to version acquisition: value + cell.
  chunk.v[0] = 4242;
  chunk.k[1].key = 77;
  chunk.k[1].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(9, 1));  // version 9, cell 1
  const auto latest = chunk.FindLatest(77, kMaxReadVersion);
  ASSERT_TRUE(latest.found);
  EXPECT_EQ(latest.value, 4242);
  EXPECT_EQ(latest.version, 9u);
  // Bounded read below the pending version misses it.
  EXPECT_FALSE(chunk.FindLatest(77, 8).found);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkPpa, VersionlessEntryIgnoredByReadsButHelped) {
  GlobalVersion gv;
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  chunk.v[0] = 1;
  chunk.k[1].key = 55;
  chunk.k[1].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(Chunk::kPpaVerBottom, 1));
  // Unversioned pending puts are invisible (they ordered after us)...
  EXPECT_FALSE(chunk.FindLatest(55, kMaxReadVersion).found);
  // ...until helping installs the current GV.
  chunk.HelpPendingPuts(gv, 0, 100);
  const std::uint64_t word = chunk.ppa[slot].load();
  EXPECT_EQ(Chunk::PpaVer(word), gv.Load());
  EXPECT_TRUE(chunk.FindLatest(55, kMaxReadVersion).found);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkPpa, HelpRespectsKeyRange) {
  GlobalVersion gv;
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  chunk.k[1].key = 500;
  chunk.k[1].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(Chunk::kPpaVerBottom, 1));
  chunk.HelpPendingPuts(gv, 0, 100);  // range misses key 500
  EXPECT_EQ(Chunk::PpaVer(chunk.ppa[slot].load()), Chunk::kPpaVerBottom);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkPpa, FreezeBlocksVersionlessEntries) {
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  // One versionless pending put and one already-versioned entry.
  chunk.ppa[slot].store(Chunk::PackPpa(Chunk::kPpaVerBottom, 3));
  const std::size_t other = (slot + 1) % kMaxThreads;
  chunk.ppa[other].store(Chunk::PackPpa(12, 4));
  chunk.FreezePpa();
  EXPECT_EQ(Chunk::PpaVer(chunk.ppa[slot].load()), Chunk::kPpaVerFrozen);
  EXPECT_EQ(Chunk::PpaVer(chunk.ppa[other].load()), 12u);  // untouched
  // A put's version CAS (⊥ -> gv) must now fail.
  std::uint64_t expected = Chunk::PackPpa(Chunk::kPpaVerBottom, 3);
  EXPECT_FALSE(chunk.ppa[slot].compare_exchange_strong(
      expected, Chunk::PackPpa(1, 3)));
  chunk.ppa[slot].store(Chunk::kPpaIdle);
  chunk.ppa[other].store(Chunk::kPpaIdle);
}

TEST(ChunkHarvest, CollectMergesListAndPpa) {
  std::vector<Item> items{{10, 2, 0, 100}, {20, 2, 1, 200}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  // A versioned pending put for a new key 15.
  chunk.v[2] = 150;
  chunk.k[3].key = 15;
  chunk.k[3].val_ptr.store(2);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(5, 3));
  std::vector<Item> harvested;
  chunk.CollectItems(harvested);
  ASSERT_EQ(harvested.size(), 3u);
  EXPECT_EQ(harvested[0].key, 10);
  EXPECT_EQ(harvested[1].key, 15);
  EXPECT_EQ(harvested[1].version, 5u);
  EXPECT_EQ(harvested[1].value, 150);
  EXPECT_EQ(harvested[2].key, 20);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkHarvest, DuplicateKeyVersionKeepsLargerValPtr) {
  // List holds {50, v3, valPtr 0}; PPA publishes {50, v3, valPtr 1}: the
  // larger location wins (paper's tie break), exactly once in the harvest.
  std::vector<Item> items{{50, 3, 0, 111}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  chunk.v[1] = 222;
  chunk.k[2].key = 50;
  chunk.k[2].val_ptr.store(1);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(3, 2));
  std::vector<Item> harvested;
  chunk.CollectItems(harvested);
  ASSERT_EQ(harvested.size(), 1u);
  EXPECT_EQ(harvested[0].val_ptr, 1);
  EXPECT_EQ(harvested[0].value, 222);
  // FindLatest applies the same tie break.
  const auto latest = chunk.FindLatest(50, kMaxReadVersion);
  EXPECT_EQ(latest.value, 222);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkGeometry, CoversKeyUsesNextMinKey) {
  ChunkPtr low_owner(Chunk::Create(TestPool(), kMinUserKey, 8, nullptr,
                                   Chunk::Status::kNormal),
                     &Chunk::Destroy);
  ChunkPtr high_owner(Chunk::Create(TestPool(), 1000, 8, nullptr,
                                    Chunk::Status::kNormal),
                      &Chunk::Destroy);
  Chunk& low = *low_owner;
  Chunk& high = *high_owner;
  low.next.Store(MarkedPtr<Chunk>(&high, false));
  EXPECT_TRUE(low.CoversKey(kMinUserKey));
  EXPECT_TRUE(low.CoversKey(999));
  EXPECT_FALSE(low.CoversKey(1000));
  EXPECT_TRUE(high.CoversKey(1000));
  EXPECT_TRUE(high.CoversKey(kMaxUserKey));
  EXPECT_FALSE(high.CoversKey(5));
  EXPECT_GT(low.MemoryFootprint(), 8 * sizeof(Chunk::Cell));
}

// ---- byte-layout arenas --------------------------------------------------

using ByteChunk = ChunkT<ByteLayout>;
using ByteItem = ByteChunk::Item;
using ByteChunkPtr = std::unique_ptr<ByteChunk, decltype(&ByteChunk::Destroy)>;

TEST(ByteChunkArena, MakePrefixOrderMatchesLexicographicOrder) {
  // The normalized prefix must order exactly like the first-8-byte
  // truncation of the key, on any host endianness (the >= 8 branch packs
  // via memcpy + conditional bswap; this cross-checks it against the
  // byte-at-a-time construction the short-key branch uses).
  const std::vector<std::string> keys = {
      std::string(1, '\0'), "a", "abcdefgh", "abcdefgi", "abcdefghzzz",
      "abcdefgh\x01", std::string("\x00\xff" "abcdef", 8),
      std::string(8, '\xff'), std::string(9, '\xff'), "zzzzzzz"};
  for (const std::string& a : keys) {
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(a.size(), 8); ++i) {
      expected |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(a[i]))
                  << (56 - 8 * i);
    }
    EXPECT_EQ(ByteLayout::MakePrefix(a), expected) << a;
    for (const std::string& b : keys) {
      const std::string ta = a.substr(0, 8);
      const std::string tb = b.substr(0, 8);
      if (ta < tb) {
        EXPECT_LT(ByteLayout::MakePrefix(a), ByteLayout::MakePrefix(b));
      } else if (ta == tb) {
        EXPECT_EQ(ByteLayout::MakePrefix(a), ByteLayout::MakePrefix(b));
      }
    }
  }
}

TEST(ByteChunkArena, ClaimsAreExclusiveAndBounded) {
  ByteChunkPtr owner(ByteChunk::Create(TestPool(), ByteLayout::MinUserKey(),
                                       8, nullptr, ByteChunk::Status::kNormal,
                                       {}, /*arena_capacity=*/64),
                     &ByteChunk::Destroy);
  ByteChunk& chunk = *owner;
  EXPECT_EQ(chunk.ArenaUsed(), 1u);  // the min_key ("\0") copy
  std::uint32_t a = 0, b = 0;
  ASSERT_TRUE(chunk.ClaimArena(30, &a));
  ASSERT_TRUE(chunk.ClaimArena(33, &b));  // 1 + 30 + 33 == 64 exactly
  EXPECT_NE(a, b);
  EXPECT_EQ(chunk.ArenaUsed(), 64u);
  std::uint32_t c = 0;
  EXPECT_FALSE(chunk.ClaimArena(1, &c)) << "arena exhausted";
  // The failed claim's dead reservation clamps in ArenaUsed.
  EXPECT_EQ(chunk.ArenaUsed(), 64u);
}

TEST(ByteChunkArena, BuildCopyCompactsDeadReservations) {
  // A source chunk whose arena is fragmented: live entries interleaved with
  // dead reservations (obsolete versions and a failed claim).
  ByteChunkPtr src_owner(
      ByteChunk::Create(TestPool(), ByteLayout::MinUserKey(), 16, nullptr,
                        ByteChunk::Status::kNormal, {}, 512),
      &ByteChunk::Destroy);
  ByteChunk& src = *src_owner;
  std::uint32_t waste = 0;
  ASSERT_TRUE(src.ClaimArena(100, &waste));  // dead: an abandoned claim
  // Install two live entries by hand at claimed offsets, linked via cell 1
  // and 2 (sorted order).
  const std::string_view keys[2] = {"alpha", "beta"};
  const std::string_view vals[2] = {"AAAA", "BBBBBBBB"};
  for (int i = 0; i < 2; ++i) {
    std::uint32_t off = 0;
    const std::uint32_t need =
        static_cast<std::uint32_t>(keys[i].size() + vals[i].size());
    ASSERT_TRUE(src.ClaimArena(need, &off));
    std::memcpy(src.a + off, keys[i].data(), keys[i].size());
    std::memcpy(src.a + off + keys[i].size(), vals[i].data(), vals[i].size());
    src.k[i + 1].key = ByteLayout::CellKey{
        ByteLayout::MakePrefix(keys[i]), off,
        static_cast<std::uint32_t>(keys[i].size())};
    src.k[i + 1].version = 1;
    src.k[i + 1].val_ptr.store(i);
    src.v[i] = ByteLayout::StoredValue{
        static_cast<std::uint32_t>(off + keys[i].size()),
        static_cast<std::uint32_t>(vals[i].size())};
  }
  src.k[0].next.store(1);
  src.k[1].next.store(2);
  src.k[2].next.store(ByteChunk::kNullIdx);
  src.k_counter.store(3);
  src.v_counter.store(2);
  const std::uint32_t fragmented = src.ArenaUsed();

  // Rebalance's build step: harvest and copy into a fresh chunk.  The copy
  // IS the compaction — dead reservations do not travel.
  std::vector<ByteItem> items;
  src.CollectItems(items);
  ASSERT_EQ(items.size(), 2u);
  ByteChunkPtr dst_owner(
      ByteChunk::Create(TestPool(), ByteLayout::MinUserKey(), 16, nullptr,
                        ByteChunk::Status::kInfant,
                        std::span<const ByteItem>(items), 512),
      &ByteChunk::Destroy);
  ByteChunk& dst = *dst_owner;
  const std::uint32_t live_bytes = static_cast<std::uint32_t>(
      1 +  // min_key "\0"
      keys[0].size() + vals[0].size() + keys[1].size() + vals[1].size());
  EXPECT_EQ(dst.ArenaUsed(), live_bytes);
  EXPECT_LT(dst.ArenaUsed(), fragmented) << "compaction reclaimed dead bytes";
  // The copied entries read back through the normal lookup path.
  const auto alpha = dst.FindLatest("alpha", kMaxReadVersion);
  ASSERT_TRUE(alpha.found);
  EXPECT_EQ(alpha.value, "AAAA");
  const auto beta = dst.FindLatest("beta", kMaxReadVersion);
  ASSERT_TRUE(beta.found);
  EXPECT_EQ(beta.value, "BBBBBBBB");
}

TEST(ByteChunkArena, TombstonesCarryNoArenaBytes) {
  std::vector<ByteItem> items;
  items.push_back(ByteItem{"gone", 2, 0, ByteLayout::TombstoneValue()});
  ByteChunkPtr owner(
      ByteChunk::Create(TestPool(), ByteLayout::MinUserKey(), 8, nullptr,
                        ByteChunk::Status::kNormal,
                        std::span<const ByteItem>(items), 128),
      &ByteChunk::Destroy);
  ByteChunk& chunk = *owner;
  EXPECT_EQ(chunk.ArenaUsed(), 1u + 4u);  // min_key + the key only
  const auto latest = chunk.FindLatest("gone", kMaxReadVersion);
  ASSERT_TRUE(latest.found);
  EXPECT_TRUE(latest.is_tombstone);
}

// ---- merge-based harvest, both layouts ------------------------------------

// Hand-builds a chunk whose versioned PPA entries interleave with its list
// cells.  Reference() harvests the raw items the plain way — walk the list,
// scan every PPA slot, sort everything, drop {key, version} duplicates — so
// CollectItems' merge is checked against an independent implementation.
template <typename Layout>
class HarvestBuilder {
 public:
  using C = ChunkT<Layout>;
  using I = typename C::Item;

  HarvestBuilder() {
    // Materialized up front so every view stays valid.
    for (int i = 0; i < 64; ++i) {
      if constexpr (Layout::kHasArena) {
        // One shared 8-byte prefix: every compare falls through to memcmp.
        char buf[24];
        std::snprintf(buf, sizeof(buf), "harvest:%04d", i);
        keys_.push_back(buf);
        values_.push_back("value-" + std::to_string(i));
      } else {
        keys_.push_back(i);
        values_.push_back(1000 + i);
      }
    }
  }

  typename Layout::KeyView Key(int i) const { return keys_[i]; }
  typename Layout::ValueView Val(int i) const { return values_[i]; }

  /// The batched prefix: cell i + 1 holds batched[i] with val_ptr i.
  void Create(const std::vector<I>& batched) {
    chunk_.reset(C::Create(TestPool(), Layout::MinUserKey(), 32, nullptr,
                           C::Status::kNormal, batched,
                           Layout::kHasArena ? 4096 : 0));
    next_cell_ = static_cast<std::uint32_t>(batched.size()) + 1;
    next_value_ = static_cast<std::uint32_t>(batched.size());
  }

  /// Writes a fresh unlinked cell {key, version} -> value; returns its index.
  std::int32_t NewCell(int key, Version version, int value) {
    const std::int32_t idx = static_cast<std::int32_t>(next_cell_++);
    C& c = *chunk_;
    c.k[idx].key = StoreKey(Key(key));
    c.k[idx].version = version;
    SetValue(idx, next_value_++, value);
    c.k_counter.store(next_cell_);
    c.v_counter.store(next_value_);
    return idx;
  }

  /// Points cell `idx` at value slot `j`, which now holds `value`.
  void SetValue(std::int32_t idx, std::uint32_t j, int value) {
    C& c = *chunk_;
    if constexpr (Layout::kHasArena) {
      const std::string_view v = Val(value);
      std::uint32_t off = 0;
      ASSERT_TRUE(c.ClaimArena(static_cast<std::uint32_t>(v.size()), &off));
      std::memcpy(c.a + off, v.data(), v.size());
      c.v[j] = typename Layout::StoredValue{
          off, static_cast<std::uint32_t>(v.size())};
    } else {
      c.v[j] = Val(value);
    }
    c.k[idx].val_ptr.store(static_cast<std::int32_t>(j));
  }

  void Link(std::int32_t idx, std::int32_t pred) {
    chunk_->k[idx].next.store(chunk_->k[pred].next.load());
    chunk_->k[pred].next.store(idx);
  }

  void Publish(std::size_t slot, std::int32_t idx, Version version) {
    chunk_->ppa[slot].store(
        C::PackPpa(version, static_cast<std::uint32_t>(idx)));
  }

  std::vector<I> Reference() const {
    const C& c = *chunk_;
    std::vector<I> ref;
    for (std::int32_t i = c.k[0].next.load(); i != C::kNullIdx;
         i = c.k[i].next.load()) {
      ref.push_back(ItemOf(i, c.k[i].version));
    }
    for (const auto& slot : c.ppa) {
      const std::uint64_t word = slot.load();
      const Version ver = C::PpaVer(word);
      if (ver == C::kPpaVerBottom || ver == C::kPpaVerFrozen) continue;
      ref.push_back(ItemOf(static_cast<std::int32_t>(C::PpaIdx(word)), ver));
    }
    std::sort(ref.begin(), ref.end(), C::ItemBefore);
    ref.erase(std::unique(ref.begin(), ref.end(),
                          [](const I& x, const I& y) {
                            return Layout::KeyEq(x.key, y.key) &&
                                   x.version == y.version;
                          }),
              ref.end());
    return ref;
  }

  C& chunk() { return *chunk_; }

 private:
  using Stored =
      std::conditional_t<Layout::kHasArena, std::string, std::int64_t>;

  typename Layout::CellKey StoreKey(typename Layout::KeyView key) {
    if constexpr (Layout::kHasArena) {
      std::uint32_t off = 0;
      EXPECT_TRUE(
          chunk_->ClaimArena(static_cast<std::uint32_t>(key.size()), &off));
      std::memcpy(chunk_->a + off, key.data(), key.size());
      return {Layout::MakePrefix(key), off,
              static_cast<std::uint32_t>(key.size())};
    } else {
      return key;
    }
  }

  I ItemOf(std::int32_t idx, Version version) const {
    const C& c = *chunk_;
    const std::int32_t val_ptr = c.k[idx].val_ptr.load();
    return I{Layout::CellKeyView(c.a, c.k[idx].key), version, val_ptr,
             Layout::LoadValue(c.a, c.v[val_ptr])};
  }

  std::vector<Stored> keys_;
  std::vector<Stored> values_;
  std::unique_ptr<C, decltype(&C::Destroy)> chunk_{nullptr, &C::Destroy};
  std::uint32_t next_cell_ = 1;
  std::uint32_t next_value_ = 0;
};

template <typename Layout>
class ChunkMergeHarvest : public ::testing::Test {};
using HarvestLayouts = ::testing::Types<Int64Layout, ByteLayout>;
TYPED_TEST_SUITE(ChunkMergeHarvest, HarvestLayouts);

TYPED_TEST(ChunkMergeHarvest, MatchesReferenceSortAndDedup) {
  using Layout = TypeParam;
  using C = ChunkT<Layout>;
  using I = typename C::Item;
  HarvestBuilder<Layout> b;
  // List: 10@3, 20@4, 20@2, 30@6, 40@5 as the batched prefix (cells 1-5),
  // plus 25@1 linked behind the prefix (after 20@2, cell 3).
  b.Create({I{b.Key(10), 3, 0, b.Val(1)}, I{b.Key(20), 4, 0, b.Val(2)},
            I{b.Key(20), 2, 0, b.Val(3)}, I{b.Key(30), 6, 0, b.Val(4)},
            I{b.Key(40), 5, 0, b.Val(5)}});
  b.Link(b.NewCell(25, 1, 6), 3);
  // Versioned PPA entries interleaving with the list.
  b.Publish(0, b.NewCell(5, 9, 7), 9);    // before the head
  b.Publish(1, b.NewCell(15, 7, 8), 7);   // between list cells
  b.Publish(2, b.NewCell(15, 8, 9), 8);   // same key, newer version
  b.Publish(3, 2, 4);                     // exact duplicate of linked 20@4
  b.Publish(4, b.NewCell(30, 6, 10), 6);  // {key, version} tie: PPA wins
  // {key, version} tie the list wins: 40@5 moves to a larger value slot
  // than the PPA cell's.
  b.Publish(5, b.NewCell(40, 5, 11), 5);
  b.SetValue(5, 20, 12);
  b.Publish(6, b.NewCell(50, 1, 13), 1);  // after the tail
  // Pending (unversioned) and frozen entries are not harvested.
  b.Publish(7, b.NewCell(35, 0, 14), C::kPpaVerBottom);
  b.Publish(8, b.NewCell(45, 0, 15), C::kPpaVerFrozen);

  const std::vector<I> reference = b.Reference();
  // 10 distinct {key, version} pairs; PPA wins 30@6, the list wins 40@5.
  ASSERT_EQ(reference.size(), 10u);
  EXPECT_TRUE(reference[7].value == b.Val(10));
  EXPECT_TRUE(reference[8].value == b.Val(12));
  // CollectItems appends: a pre-existing entry must stay untouched.
  std::vector<I> harvested{I{b.Key(1), 1, 0, b.Val(0)}};
  b.chunk().CollectItems(harvested);
  ASSERT_EQ(harvested.size(), reference.size() + 1);
  EXPECT_TRUE(Layout::KeyEq(harvested[0].key, b.Key(1)));
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const I& got = harvested[i + 1];
    EXPECT_TRUE(Layout::KeyEq(got.key, reference[i].key)) << "item " << i;
    EXPECT_EQ(got.version, reference[i].version) << "item " << i;
    EXPECT_EQ(got.val_ptr, reference[i].val_ptr) << "item " << i;
    EXPECT_TRUE(got.value == reference[i].value) << "item " << i;
  }
  for (std::size_t slot = 0; slot < 9; ++slot) {
    b.chunk().ppa[slot].store(C::kPpaIdle);
  }
}

// ---- run search (FindCellFrom), both layouts --------------------------------

template <typename Layout>
class ChunkFindFrom : public ::testing::Test {};
TYPED_TEST_SUITE(ChunkFindFrom, HarvestLayouts);

TYPED_TEST(ChunkFindFrom, EveryLegalStartAndCursorMatchesFindCell) {
  using Layout = TypeParam;
  using C = ChunkT<Layout>;
  using I = typename C::Item;
  HarvestBuilder<Layout> b;
  // A batched prefix (cells 1-10), including one key with three versions.
  b.Create({I{b.Key(4), 5, 0, b.Val(0)}, I{b.Key(8), 3, 0, b.Val(1)},
            I{b.Key(12), 7, 0, b.Val(2)}, I{b.Key(12), 4, 0, b.Val(3)},
            I{b.Key(12), 2, 0, b.Val(4)}, I{b.Key(20), 1, 0, b.Val(5)},
            I{b.Key(28), 6, 0, b.Val(6)}, I{b.Key(36), 1, 0, b.Val(7)},
            I{b.Key(44), 2, 0, b.Val(8)}, I{b.Key(52), 1, 0, b.Val(9)}});
  C& c = b.chunk();
  // Cells linked behind the prefix: before its head, inside a batched
  // key's version run, a dense stretch between two batched cells, a newer
  // version ahead of a batched one, and past its tail.
  const std::pair<int, Version> linked[] = {
      {2, 1},  {10, 9}, {12, 3}, {16, 1}, {17, 1}, {18, 1},
      {20, 5}, {24, 5}, {40, 1}, {56, 8}, {60, 1}};
  int value = 10;
  for (const auto& [key, version] : linked) {
    std::int32_t pred = C::kNullIdx;
    ASSERT_EQ(c.FindCell(b.Key(key), version, &pred, nullptr), C::kNullIdx);
    b.Link(b.NewCell(key, version, value++), pred);
  }
  std::vector<std::int32_t> list{0};
  for (std::int32_t i = c.k[0].next.load(); i != C::kNullIdx;
       i = c.k[i].next.load()) {
    list.push_back(i);
  }
  ASSERT_EQ(list.size(), 22u);

  std::size_t checked = 0;
  for (int key = 0; key < 64; ++key) {
    const auto probe = Layout::MakeProbe(b.Key(key));
    // Versions 1, 3 and 5 hit existing {key, version} cells (ties) as well
    // as miss between versions of one key.
    for (const Version version : {Version{1}, Version{3}, Version{5},
                                  Version{9}}) {
      std::int32_t want_pred = -2;
      std::int32_t want_succ = -2;
      const std::int32_t want_hit =
          c.FindCell(b.Key(key), version, &want_pred, &want_succ);
      // Legal starts: no hint, or any list cell ahead of {key, version}.
      std::vector<std::int32_t> starts{C::kNullIdx};
      for (const std::int32_t cell : list) {
        const int cmp = cell == 0 ? -1 : Layout::CompareCell(c.a, c.k[cell].key,
                                                             probe);
        if (cmp < 0 || (cmp == 0 && c.k[cell].version > version)) {
          starts.push_back(cell);
        }
      }
      for (const std::int32_t start : starts) {
        // Legal cursors: the sentinel or any batched cell below the key.
        for (std::uint32_t cursor = 0; cursor <= c.batched_count; ++cursor) {
          if (cursor != 0 &&
              Layout::CompareCell(c.a, c.k[cursor].key, probe) >= 0) {
            break;
          }
          std::uint32_t moved = cursor;
          std::int32_t pred = -2;
          std::int32_t succ = -2;
          const std::int32_t hit =
              c.FindCellFrom(start, &moved, b.Key(key), version, &pred, &succ);
          ASSERT_EQ(hit, want_hit) << key << "@" << version << " start "
                                   << start << " cursor " << cursor;
          ASSERT_EQ(pred, want_pred) << key << "@" << version << " start "
                                     << start << " cursor " << cursor;
          ASSERT_EQ(succ, want_succ) << key << "@" << version << " start "
                                     << start << " cursor " << cursor;
          ASSERT_EQ(moved, static_cast<std::uint32_t>(c.BatchedPredecessorProbe(
                               probe)))
              << "cursor must land on the batched predecessor";
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 5000u);
}

}  // namespace
}  // namespace kiwi::core
