// KiWiMap — the paper's contribution: a linearizable ordered key-value map
// with wait-free gets and scans and lock-free puts (paper §3).
//
//   KiWiMap map;
//   map.Put(17, 1);
//   map.Scan(0, 100, [](Key k, Value v) { ... });   // atomic snapshot
//
// Design recap:
//  * Data lives in chunks (contiguous key ranges) strung on a sorted linked
//    list behind a lazy index; see chunk.h.
//  * Scans drive multi-versioning: a scan fetch-and-increments the global
//    version GV and reads at that version; puts reuse the current GV value,
//    overwriting same-version data in place, so version bookkeeping costs
//    fall on (long, rare) scans instead of (short, frequent) puts.
//  * Scans/gets help pending puts acquire versions through the per-chunk
//    PPA, making put ordering consistent across readers.
//  * A background-free rebalance procedure (triggered by puts, executed by
//    whoever trips it, helped by anyone who bumps into it) compacts, splits
//    and merges chunks in seven idempotent stages (§3.3.2).
//  * Disconnected chunks are reclaimed through epoch-based reclamation.
//
// The map is templated on a key/value Layout (core/layout.h):
// `KiWiMap` = KiWiMapT<Int64Layout> is the original fixed-width map (every
// trait call is an identity, so it compiles to the pre-template hot paths);
// KiWiMapT<ByteLayout> stores variable-length byte strings through per-chunk
// arenas and is surfaced to users as api::KiWiByteMap (src/api/byte_map.h).
//
// Thread safety: all public methods may be called from any number of threads
// concurrently (at most kMaxThreads distinct threads over the map lifetime
// at once).  Get/Scan are wait-free, Put/Remove lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/random.h"
#include "core/chunk.h"
#include "core/policy.h"
#include "core/rebalance_object.h"
#include "core/version.h"
#include "index/chunk_index.h"
#include "obs/report.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"

namespace kiwi::obs {
struct ChunkCensus;
class MetricsPump;
struct MetricsPumpOptions;
}  // namespace kiwi::obs

namespace kiwi::core {

/// Operational counters, exposed for tests, benches and curiosity.  A
/// digest of the per-thread obs::StatsRegistry (see src/obs/) kept for API
/// stability; new code should prefer DebugReport() / Observability().
/// All fields read zero in a KIWI_STATS=OFF build.
struct KiWiStats {
  std::uint64_t rebalances = 0;        // rebalance executions (incl. helpers)
  std::uint64_t rebalance_wins = 0;    // replace-stage CAS wins
  std::uint64_t put_restarts = 0;      // puts restarted by rebalance
  std::uint64_t chunks_created = 0;
  std::uint64_t chunks_retired = 0;
  std::uint64_t puts_piggybacked = 0;  // puts completed inside a rebalance
  std::uint64_t puts_helped = 0;       // version installed by a scan/get
};

template <typename Layout>
class KiWiMapT {
 public:
  // In-class spellings: inside this template, `Chunk`, `Psa` and `PsaEntry`
  // refer to this layout's instantiations (shadowing the int64 aliases), so
  // the implementation reads like the fixed-width original.
  using Chunk = ChunkT<Layout>;
  using PsaKey = typename Layout::PsaKey;
  using Psa = PsaT<PsaKey>;
  using PsaEntry = PsaEntryT<PsaKey>;
  using KeyView = typename Layout::KeyView;
  using ValueView = typename Layout::ValueView;
  using OwnedKey = typename Layout::OwnedKey;
  using OwnedValue = typename Layout::OwnedValue;
  /// What the collecting Scan / bulk-load ctor traffic in.  For int64 this
  /// is pair<Key, Value>, exactly as before; for bytes pair<string, string>.
  using Entry = std::pair<OwnedKey, OwnedValue>;

  explicit KiWiMapT(KiWiConfig config = {});

  /// Bulk-load construction: builds chunks directly from `sorted_entries`
  /// (strictly ascending keys, no tombstones) without going through Put —
  /// O(n) instead of O(n log n) with rebalance churn.  Useful for loading
  /// datasets before a benchmark or restoring a backup.
  explicit KiWiMapT(std::span<const Entry> sorted_entries,
                    KiWiConfig config = {});

  ~KiWiMapT();
  KiWiMapT(const KiWiMapT&) = delete;
  KiWiMapT& operator=(const KiWiMapT&) = delete;

  /// Insert or overwrite.  Lock-free.  `key` must be a user key (int64:
  /// >= kMinUserKey; bytes: non-empty) and `value` must not be the reserved
  /// tombstone (int64: kTombstoneValue; bytes: any value is legal).  For
  /// byte layouts key + value must fit Config().bytes.max_entry_bytes; the
  /// map copies both, so callers keep ownership of the viewed buffers.
  void Put(KeyView key, ValueView value);

  /// Insert or overwrite every pair of `entries` — equivalent to calling
  /// Put for each in order (duplicate keys: the last occurrence wins), but
  /// amortized: the batch is sorted once, the chunk list is walked once,
  /// and each chunk absorbs its covered run in one pass (two index claims
  /// per run instead of per key).  Long presorted runs are installed by
  /// building replacement chunks directly from the batch through the
  /// rebalance machinery, bypassing the per-key PPA round trip entirely.
  ///
  /// NOT atomic as a whole: each entry linearizes individually somewhere
  /// inside the call, exactly as a sequence of Puts would, so concurrent
  /// scans may observe any prefix-consistent subset.  Lock-free.  Keys and
  /// values obey the same rules as Put.  See docs/INGEST.md for the full
  /// walkthrough.
  void PutBatch(std::span<const Entry> entries);

  /// Remove `key` (puts the tombstone, paper's put(⊥)).  Lock-free.
  void Remove(KeyView key);

  /// Latest value of `key`, or nullopt.  Wait-free, linearizable.
  std::optional<OwnedValue> Get(KeyView key);

  /// Atomic snapshot of [from_key, to_key] (inclusive), in ascending key
  /// order.  Wait-free, linearizable.  Returns the number of pairs yielded.
  /// The views handed to `yield` are valid only for the duration of the
  /// callback (they point into chunk storage pinned by the scan's guard).
  std::size_t Scan(KeyView from_key, KeyView to_key,
                   const std::function<void(KeyView, ValueView)>& yield);

  /// Convenience overload collecting into a vector (cleared first).
  std::size_t Scan(KeyView from_key, KeyView to_key, std::vector<Entry>& out);

  /// Atomic snapshot of every key at or above `from_key` — a Scan with no
  /// upper bound.  Byte keys have no maximum key, so this is the only way
  /// to scan a byte map to the end; for int64 it equals Scan(from_key,
  /// kMaxUserKey, ...).
  std::size_t ScanFrom(KeyView from_key,
                       const std::function<void(KeyView, ValueView)>& yield);

  /// A consistent read view: one scan read-point held open across any
  /// number of gets and range reads (an extension the paper's design makes
  /// natural — a snapshot IS a pinned PSA entry).  All queries through one
  /// Snapshot observe the same linearization point; writers proceed
  /// unimpeded but their updates are invisible to the view.  The pinned
  /// version blocks compaction of data the view may still need, so keep
  /// snapshots shorter than, say, minutes under heavy overwrite load.
  ///
  /// Thread safety: a Snapshot must be created and destroyed by the same
  /// thread and used only by it; each thread may hold up to
  /// kMaxSnapshotsPerThread simultaneously open snapshots per map.
  class Snapshot {
   public:
    explicit Snapshot(KiWiMapT& map);
    ~Snapshot();
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// Value of `key` as of the snapshot's read point.
    std::optional<OwnedValue> Get(KeyView key);

    /// Range read at the snapshot's read point.
    std::size_t Scan(KeyView from_key, KeyView to_key,
                     const std::function<void(KeyView, ValueView)>& yield);
    std::size_t Scan(KeyView from_key, KeyView to_key,
                     std::vector<Entry>& out);

    /// The pinned version (diagnostics).
    Version ReadPoint() const { return read_point_; }

   private:
    KiWiMapT& map_;
    Version read_point_;
    std::uint64_t seq_;
    std::size_t slot_;
    std::size_t sub_slot_;
  };

  /// Simultaneously open Snapshot views allowed per thread.
  static constexpr std::size_t kMaxSnapshotsPerThread = 4;

  /// Number of live keys — O(n), implemented as a full scan.
  std::size_t Size();

  /// Approximate bytes held by chunks + index (Figure 5 metric).
  std::size_t MemoryFootprint();

  /// Number of chunks currently in the list (incl. sentinel).  O(#chunks).
  std::size_t ChunkCount();

  /// Snapshot of operational counters (sums over threads; approximate
  /// under concurrency).
  KiWiStats Stats() const;

  /// Full observability snapshot: counters, latency histograms and
  /// structural-health gauges, renderable as text or one-line JSON.  See
  /// docs/OBSERVABILITY.md.  Concurrent callers get a consistent-enough
  /// estimate; quiescent callers exact numbers.
  obs::DebugReport DebugReport();

  /// Chunk-health census: one O(chunks) epoch-guarded walk of the list,
  /// reporting per-chunk fill factor, sorted-prefix vs linked-suffix ratio,
  /// arena fill (byte layouts), pending-rebalance state and age, aggregated
  /// into distribution histograms.  Live regardless of KIWI_STATS (like the
  /// gauges).  Defined in obs/census.cpp so core objects carry no obs
  /// references.
  obs::ChunkCensus Census();

  /// Start the continuous-telemetry pump: a background thread snapshotting
  /// DebugReport + Census every `options.interval`, computing deltas/rates,
  /// appending JSONL and serving Prometheus text exposition.  At most one
  /// pump per map; returns false if one is already running.  Defined in
  /// obs/export.cpp; see docs/OBSERVABILITY.md ("Continuous telemetry").
  bool StartMetricsPump(const obs::MetricsPumpOptions& options);

  /// StartMetricsPump configured from KIWI_METRICS / KIWI_METRICS_PROM
  /// (e.g. KIWI_METRICS=1s:/tmp/kiwi.jsonl).  No-op (false) when unset.
  bool StartMetricsPumpFromEnv();

  /// Stop and join the pump, flushing a final sample.  Safe to call with no
  /// pump running; the destructor calls it first thing.
  void StopMetricsPump();

#if KIWI_OBS_ENABLED
  /// Direct access to the counter shards and latency histograms (tests,
  /// custom exporters).  Absent in KIWI_STATS=OFF builds.
  obs::StatsRegistry& Observability() const { return obs_; }
#endif

  /// Structural report over the current chunk list (quiescent callers get
  /// exact numbers; concurrent callers a consistent-enough estimate).
  struct StructureReport {
    std::size_t data_chunks = 0;
    std::size_t allocated_cells = 0;   // cells handed out across chunks
    std::size_t batched_cells = 0;     // cells in sorted prefixes
    double avg_fill = 0;               // allocated / capacity, averaged
    double avg_batched_ratio = 0;      // batched / allocated, averaged
  };
  StructureReport Report();

  const KiWiConfig& Config() const { return policy_.config(); }

  /// Per-chunk arena bytes for this layout (0 for fixed-width layouts).
  std::uint32_t ArenaCapacity() const { return arena_capacity_; }

  /// Test/diagnostic hook: run a full rebalance over every chunk, forcing
  /// compaction of obsolete versions.  Quiescent callers only.
  void CompactAll();

  /// Validate structural invariants (sorted chunk list, in-chunk order,
  /// ranges).  Quiescent callers only; aborts on violation.  Test hook.
  void CheckInvariants();

  /// Quiescent-only: release every retired chunk (the paper's "full GC"
  /// point before measuring RAM, Figure 5).  Retired slabs land in the pool
  /// as reusable stock; use Pool().GetStats() to separate live from pooled
  /// bytes, or TrimPool() to hand the stock back to the OS.
  void DrainReclamation() { ebr_.CollectAllQuiescent(); }

  /// Quiescent-only: release the pool's idle slabs to the OS.
  std::size_t TrimPool() { return pool_.Trim(); }

  /// Reclamation diagnostics.
  const reclaim::Ebr& Reclaimer() const { return ebr_; }

  /// Slab-pool diagnostics (hit/miss counters, live vs pooled bytes).
  const reclaim::SlabPool& Pool() const { return pool_; }

 private:
  using RebalanceObject = RebalanceObjectT<Layout>;
  using Item = typename Chunk::Item;

  /// Shared body of Put and Remove (a remove is a put of the tombstone).
  void PutImpl(KeyView key, ValueView value);

  /// Shared body of the bounded/unbounded scans.  `to_key` == nullptr
  /// means "no upper bound" (ScanFrom); the PSA publication covers the
  /// layout's whole upper prefix domain in that case.
  std::size_t ScanImpl(KeyView from_key, const KeyView* to_key,
                       const std::function<void(KeyView, ValueView)>& yield);

  /// PutBatch's amortized per-op path: install a sorted run of distinct
  /// keys (all covered by `chunk`) through the normal PPA protocol, but
  /// with the cell/value-slot claims batched into two fetch-adds and the
  /// list position plus a batched-prefix cursor carried forward between
  /// keys (Chunk::FindCellFrom, O(log gap) per key).  Returns
  /// how many leading entries were installed; fewer than run.size() means
  /// the chunk filled or froze mid-run and the caller must re-locate.
  /// Items carry {key, value} views only (version/val_ptr ignored).
  std::size_t PutRunPerOp(Chunk* chunk, std::span<const Item> run,
                          std::size_t slot);

  struct BuiltSection {
    Chunk* first = nullptr;
    Chunk* last = nullptr;
    std::uint32_t count = 0;
    std::uint32_t puts_included = 0;
  };

  /// Chunk that currently covers `key` (index lookup + list walk).
  /// Must be called under an EBR guard.
  Chunk* LocateChunk(KeyView key) const;

  /// Paper's checkRebalance (Algorithm 3).  Returns true if the put must be
  /// restarted or was completed; *put_done reports completion (piggyback).
  bool CheckRebalance(Chunk* chunk, KeyView key, ValueView value,
                      bool* put_done);

  /// Paper's rebalance (Algorithm 4 stages 1-5 + normalize).  Returns true
  /// iff this call's (key, value) was inserted by the rebalance.  Thin
  /// wrapper over the span form; the piggyback config gate lives here.
  bool Rebalance(Chunk* chunk, KeyView key, ValueView value, bool has_put);

  /// Span form: runs the full rebalance of `chunk`'s sector and merges
  /// `puts` (sorted by key, distinct keys; only {key, value} views are
  /// read) into the replacement section during the build stage.  Returns
  /// the number of entries installed — every put covered by the sector
  /// when our built section won consensus, 0 otherwise (the caller
  /// re-locates and retries; each loss implies another thread's section
  /// was spliced, so retries are lock-free).  Entries linearize at the
  /// splice CAS with the GV current at build time, exactly like the
  /// single-put piggyback.
  std::size_t Rebalance(Chunk* chunk, std::span<const Item> puts);

  /// Stage 1: agree on the engaged set; returns the rebalance object and
  /// the last engaged chunk.
  RebalanceObject* Engage(Chunk* chunk, Chunk** last_out);

  /// Recompute the last engaged chunk of a sealed rebalance object.
  Chunk* FindLastEngaged(RebalanceObject* ro) const;

  /// Stage 3: minimal read point any pending/future scan may use, helping
  /// pending scans whose range overlaps [from, to_exclusive) acquire
  /// versions.  `bounded` = false means the range extends to +inf.
  Version ComputeMinVersion(KeyView from, KeyView to_exclusive, bool bounded);

  /// Stage 4: build the replacement section from the engaged chunks,
  /// merging the sector-covered subset of `puts` (sorted, distinct keys)
  /// into the compacted data at the current GV.
  BuiltSection BuildSection(RebalanceObject* ro, Chunk* last,
                            Version min_version, std::span<const Item> puts);

  /// Stage 5: consensus + splice.  Returns true once the (agreed)
  /// replacement section is reachable; *i_won reports whether this thread's
  /// splice CAS succeeded (the winner retires the old section).
  bool Replace(RebalanceObject* ro, Chunk* last, bool* i_won);

  /// Stages 6-7 (paper's normalize): fix the index, then flip infants to
  /// normal.
  void Normalize(RebalanceObject* ro);

  /// Find the live predecessor of `target` in the chunk list, or nullptr if
  /// `target` is no longer reachable.
  Chunk* FindListPredecessor(Chunk* target) const;

  /// Destroy a built-but-never-published section (consensus loser).
  static void DiscardSection(Chunk* first);

  /// Emit one chunk's contribution to a scan (`to` == nullptr: unbounded).
  void EmitChunkRange(Chunk* chunk, KeyView from, const KeyView* to,
                      Version read_point,
                      const std::function<void(KeyView, ValueView)>& yield,
                      std::size_t* emitted);

  /// Compact a sorted, deduplicated item run according to `min_version`
  /// (keep everything newer, plus the newest version at-or-below it unless
  /// that is a tombstone).  Appends survivors of [begin, end) to `out`.
  static void CompactKeyRun(const std::vector<Item>& items, std::size_t begin,
                            std::size_t end, Version min_version,
                            std::vector<Item>& out);

  Xoshiro256& ThreadRng();

  RebalancePolicy policy_;
  /// Slab stock for chunks and rebalance objects.  Declared before ebr_ so
  /// it outlives it: EBR's destructor drains retired chunks, whose deleters
  /// return slabs here.
  mutable reclaim::SlabPool pool_;
  mutable reclaim::Ebr ebr_;
  index::ChunkIndexT<Layout> index_;
  GlobalVersion gv_;
  Psa psa_;
  /// Snapshot views pin their read points here, separately from transient
  /// scans, so a Scan on the same thread cannot clobber an open Snapshot's
  /// pin.  One array per snapshot sub-slot; ComputeMinVersion consults all.
  Psa snapshot_psa_[kMaxSnapshotsPerThread];
  Chunk* sentinel_;  // permanent list head, never engaged
  /// Arena bytes per chunk (chunk_capacity * bytes.arena_bytes_per_cell for
  /// byte layouts, 0 for fixed-width) and the clamped per-entry byte cap.
  std::uint32_t arena_capacity_ = 0;
  std::uint32_t max_entry_bytes_ = 0;

  /// Owned by Start/StopMetricsPump (both defined in obs/export.cpp, so
  /// this stays an opaque pointer here and core objects stay obs-free).
  obs::MetricsPump* pump_ = nullptr;

#if KIWI_OBS_ENABLED
  // Counters (sharded by thread slot, off the hot path's shared state) and
  // latency histograms.  Compiled out entirely with KIWI_STATS=OFF.
  mutable obs::StatsRegistry obs_;
#endif

  friend class KiWiTestPeer;
  // Directed fuzz scenarios (src/fuzz/scenario.cpp) drive Rebalance at
  // hand-built chunk layouts to pin consensus races deterministically.
  friend class FuzzScenarioPeer;
};

/// The fixed-width map — the original spelling and compiled hot paths.
using KiWiMap = KiWiMapT<Int64Layout>;

}  // namespace kiwi::core

// Member definitions (all but the obs-bound members, which live in
// src/obs/*.cpp so core objects carry no obs code):
#include "core/kiwi_map_impl.h"   // IWYU pragma: keep
#include "core/rebalance_impl.h"  // IWYU pragma: keep

namespace kiwi::core {
extern template class KiWiMapT<Int64Layout>;
extern template class KiWiMapT<ByteLayout>;
}  // namespace kiwi::core
