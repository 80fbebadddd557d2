#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/random.h"
#include "core/version.h"
#include "index/chunk_index.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"

namespace perfbench {
namespace {

using kiwi::Xoshiro256;
namespace core = kiwi::core;
namespace obs = kiwi::obs;

template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

constexpr int kProbeReps = 11;

/// Median over kProbeReps repetitions of the mean cost of `body(i)` for
/// i in [0, n).  Single-threaded, so it measures a layer's uncontended cost.
template <typename Body>
double NsPerCall(std::size_t n, Body&& body) {
  std::vector<double> reps;
  for (int r = 0; r < kProbeReps; ++r) {
    const std::uint64_t t0 = NowNs();
    for (std::size_t i = 0; i < n; ++i) body(i);
    reps.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(n));
  }
  return Median(reps);
}

Metric Measured(std::string name, double value, std::string unit,
             std::string samples = "") {
  return Metric{std::move(name), value, std::move(unit), std::move(samples), ""};
}
Metric NotApplicable(std::string name, std::string unit, std::string why) {
  return Metric{std::move(name), 0, std::move(unit), "", std::move(why)};
}
Metric Ratio(std::string name, double num, double den, std::string unit,
             std::string why_if_none) {
  if (den <= 0) return NotApplicable(std::move(name), std::move(unit), why_if_none);
  return Measured(std::move(name), num / den, std::move(unit));
}

/// A standalone chunk shaped like the run's average chunk: `allocated`
/// cells of which the first `batched` form the sorted prefix and the rest
/// are linked in random order, as puts leave them.
template <typename Layout>
class ProbeChunk {
 public:
  using Chunk = core::ChunkT<Layout>;
  using Item = typename Chunk::Item;
  using KeyView = typename Layout::KeyView;
  using OwnedKey = typename Layout::OwnedKey;

  ProbeChunk(kiwi::reclaim::SlabPool& pool, std::span<const OwnedKey> keys,
             std::size_t batched, typename Layout::ValueView value,
             std::uint32_t capacity, std::uint32_t arena_capacity,
             Xoshiro256& rng) {
    // Every other key goes to the prefix until it holds `batched`; the rest
    // are linked afterwards with a newer version.
    std::vector<Item> prefix;
    std::vector<KeyView> linked;
    // The prefix's bytes must fit the arena (after the min key).
    std::size_t arena_budget =
        arena_capacity - Layout::KeyArenaBytes(Layout::ViewKey(keys.front()));
    const double stride = static_cast<double>(keys.size()) /
                          static_cast<double>(std::max<std::size_t>(batched, 1));
    double next = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const KeyView key = Layout::ViewKey(keys[i]);
      const std::size_t need = Layout::EntryArenaBytes(key, value);
      if (prefix.size() < batched && static_cast<double>(i) >= next &&
          need <= arena_budget) {
        if constexpr (Layout::kHasArena) arena_budget -= need;
        prefix.push_back(Item{key, 1, static_cast<std::int32_t>(prefix.size()), value});
        next += stride;
      } else {
        linked.push_back(key);
      }
    }
    for (std::size_t i = linked.size(); i > 1; --i) {
      std::swap(linked[i - 1], linked[rng.NextBounded(i)]);
    }
    chunk_ = Chunk::Create(pool, Layout::ViewKey(keys.front()), capacity,
                           nullptr, Chunk::Status::kNormal,
                           std::span<const Item>(prefix), arena_capacity);
    std::uint32_t cell = 1 + static_cast<std::uint32_t>(prefix.size());
    for (const KeyView key : linked) {
      if (!Link(cell, key, value)) break;
      ++cell;
    }
    chunk_->k_counter.store(cell, std::memory_order_relaxed);
    chunk_->v_counter.store(cell - 1, std::memory_order_relaxed);
  }
  ~ProbeChunk() { Chunk::Destroy(chunk_); }
  ProbeChunk(const ProbeChunk&) = delete;
  ProbeChunk& operator=(const ProbeChunk&) = delete;

  const Chunk& Get() const { return *chunk_; }

 private:
  bool Link(std::uint32_t cell, KeyView key, typename Layout::ValueView value) {
    const std::uint32_t slot = cell - 1;
    auto& c = chunk_->k[cell];
    if constexpr (Layout::kHasArena) {
      std::uint32_t key_off = 0, value_off = 0;
      if (!chunk_->ClaimArena(static_cast<std::uint32_t>(key.size()), &key_off) ||
          !chunk_->ClaimArena(static_cast<std::uint32_t>(value.size()), &value_off)) {
        return false;
      }
      std::memcpy(chunk_->a + key_off, key.data(), key.size());
      std::memcpy(chunk_->a + value_off, value.data(), value.size());
      c.key = typename Layout::CellKey{Layout::MakePrefix(key), key_off,
                                       static_cast<std::uint32_t>(key.size())};
      chunk_->v[slot] = typename Layout::StoredValue{
          value_off, static_cast<std::uint32_t>(value.size())};
    } else {
      c.key = key;
      chunk_->v[slot] = value;
    }
    c.version = 2;
    c.val_ptr.store(static_cast<std::int32_t>(slot), std::memory_order_relaxed);
    std::int32_t pred = 0, succ = 0;
    chunk_->FindCell(key, 2, &pred, &succ);
    c.next.store(succ, std::memory_order_relaxed);
    chunk_->k[pred].next.store(static_cast<std::int32_t>(cell),
                               std::memory_order_release);
    return true;
  }

  Chunk* chunk_;
};

}  // namespace

template <typename Layout>
std::vector<Metric> LayerMetrics(const LayerInputs<Layout>& in) {
  using KeyView = typename Layout::KeyView;
  using OwnedKey = typename Layout::OwnedKey;
  const obs::OpCounters& c = in.counters;
  const double writes = static_cast<double>(c.puts + c.removes + c.batch_entries);
  const double ops = static_cast<double>(c.gets + c.puts + c.removes + c.scans +
                                         c.batch_entries);
  const std::uint64_t chunks = std::max<std::uint64_t>(in.census.chunks, 1);
  const double fill = static_cast<double>(in.census.allocated_cells) /
                      static_cast<double>(chunks * in.chunk_capacity);
  const double batched_ratio =
      in.census.allocated_cells == 0
          ? 1.0
          : static_cast<double>(in.census.batched_cells) /
                static_cast<double>(in.census.allocated_cells);
  Xoshiro256 rng(in.seed ^ 0x70726f6265ull);
  const auto& keys = in.sorted_keys;

  // Probe keys: uniform draws from the workload's keys.
  std::vector<KeyView> probes;
  for (int i = 0; i < 4096; ++i) {
    probes.push_back(Layout::ViewKey(keys[rng.NextBounded(keys.size())]));
  }

  // ---- index: Lookup on a standalone index with the run's chunk count ----
  kiwi::reclaim::Ebr ebr;
  double lookup_ns = 0;
  {
    kiwi::index::ChunkIndexT<Layout> index(ebr);
    const std::size_t stride = std::max<std::size_t>(keys.size() / chunks, 1);
    for (std::size_t i = 0; i < keys.size(); i += stride) {
      index.PutUnconditional(Layout::ViewKey(keys[i]),
                             reinterpret_cast<void*>(i + 1));
    }
    kiwi::reclaim::EbrGuard guard(ebr);
    lookup_ns = NsPerCall(20000, [&](std::size_t i) {
      KeepAlive(index.Lookup(probes[i % probes.size()]));
    });
  }

  // ---- core.chunk: FindLatest / FindCell over census-shaped chunks, as
  // many as the run ended with, so the probes miss cache like the run ----
  kiwi::reclaim::SlabPool pool;
  const std::size_t allocated = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(fill * in.chunk_capacity)), 2,
      std::min<std::size_t>(in.chunk_capacity, keys.size()));
  const auto batched = static_cast<std::size_t>(std::lround(batched_ratio * allocated));
  const std::size_t per_chunk = std::max<std::size_t>(keys.size() / chunks, 1);
  std::vector<std::unique_ptr<ProbeChunk<Layout>>> probe_chunks;
  std::vector<std::size_t> segment_start;
  for (std::size_t i = 0; i < chunks; ++i) {
    segment_start.push_back(std::min(i * per_chunk, keys.size() - allocated));
    probe_chunks.push_back(std::make_unique<ProbeChunk<Layout>>(
        pool, std::span<const OwnedKey>(keys.data() + segment_start.back(), allocated),
        batched, Layout::ViewValue(in.value), in.chunk_capacity, in.arena_capacity, rng));
  }
  struct ChunkProbe {
    const core::ChunkT<Layout>* chunk;
    KeyView key;
  };
  std::vector<ChunkProbe> chunk_probes;
  for (int i = 0; i < (1 << 16); ++i) {
    const std::size_t c = rng.NextBounded(chunks);
    chunk_probes.push_back(
        {&probe_chunks[c]->Get(),
         Layout::ViewKey(keys[segment_start[c] + rng.NextBounded(allocated)])});
  }
  const double find_latest_ns = NsPerCall(20000, [&](std::size_t i) {
    const ChunkProbe& p = chunk_probes[i % chunk_probes.size()];
    KeepAlive(p.chunk->FindLatest(p.key, kiwi::core::kMaxReadVersion));
  });
  const double find_cell_ns = NsPerCall(20000, [&](std::size_t i) {
    const ChunkProbe& p = chunk_probes[i % chunk_probes.size()];
    std::int32_t pred = 0, succ = 0;
    KeepAlive(p.chunk->FindCell(p.key, 3, &pred, &succ));
  });

  // ---- core.layout: CompareCell along binary searches of the prefix ----
  std::uint64_t compares = 0, ties = 0;
  auto search = [&](const ChunkProbe& p, bool count) {
    const auto& chunk = *p.chunk;
    const auto probe = Layout::MakeProbe(p.key);
    std::uint32_t lo = 0, hi = chunk.batched_count;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo + 1) / 2;
      if (count) {
        ++compares;
        if constexpr (Layout::kHasArena) ties += chunk.k[mid].key.prefix == probe.prefix;
      }
      if (Layout::CompareCell(chunk.a, chunk.k[mid].key, probe) < 0) lo = mid;
      else hi = mid - 1;
    }
    return lo;
  };
  for (const ChunkProbe& p : chunk_probes) search(p, true);
  const double per_search = static_cast<double>(compares) /
                            static_cast<double>(chunk_probes.size());
  const double compare_ns =
      per_search > 0 ? NsPerCall(20000, [&](std::size_t i) {
        KeepAlive(search(chunk_probes[i % chunk_probes.size()], false));
      }) / per_search
                     : 0;

  // ---- core.version: GV fetch-and-increment, PSA publish/install/clear ----
  core::GlobalVersion gv;
  const double gv_ns = NsPerCall(100000, [&](std::size_t) { KeepAlive(gv.FetchIncrement()); });
  core::PsaEntryT<typename Layout::PsaKey> psa;
  const double psa_ns = NsPerCall(100000, [&](std::size_t i) {
    const std::uint64_t seq = psa.PublishPending(Layout::PsaMin(), Layout::PsaMax());
    KeepAlive(psa.InstallOwn(seq, i + 1));
    psa.Clear(seq);
  });

  // ---- reclaim: guard enter/exit, chunk-slab allocate + deallocate ----
  const double guard_ns = NsPerCall(100000, [&](std::size_t) {
    kiwi::reclaim::EbrGuard guard(ebr);
    KeepAlive(guard);
  });
  const std::size_t slab =
      core::ChunkT<Layout>::SlabBytes(in.chunk_capacity, in.arena_capacity);
  const double alloc_ns = NsPerCall(20000, [&](std::size_t) {
    void* block = pool.Allocate(slab);
    KeepAlive(block);
    pool.Deallocate(block, slab);
  });

  // ---- assemble, in table order ----
  std::vector<Metric> m;
  const std::string no_rebalance = "no rebalance ran in this run";
  m.push_back(Measured("index.lookup_ns", lookup_ns, "ns",
                    "median of 11 x 20000 lookups"));
  m.push_back(Measured("index.entries", static_cast<double>(in.census.chunks), "count"));
  m.push_back(Ratio("index.cas_retries_per_rebalance",
                    static_cast<double>(c.index_cas_retries),
                    static_cast<double>(c.rebalances), "ratio", no_rebalance));
  m.push_back(Ratio("core.locate.restarts_per_kop",
                    1000.0 * static_cast<double>(c.locate_restarts), ops,
                    "1/kop", "no operations"));
  m.push_back(Measured("core.chunk.find_latest_ns", find_latest_ns, "ns",
                    "median of 11 x 20000 calls"));
  m.push_back(Measured("core.chunk.find_cell_ns", find_cell_ns, "ns",
                    "median of 11 x 20000 calls"));
  m.push_back(Measured("core.chunk.avg_fill", fill, "ratio"));
  m.push_back(Measured("core.chunk.batched_ratio", batched_ratio, "ratio"));
  const std::string no_writes = "the workload issues no writes";
  m.push_back(Ratio("core.put.restarts_per_kput",
                    1000.0 * static_cast<double>(c.put_restarts), writes,
                    "1/kput", no_writes));
  m.push_back(Ratio("core.put.link_retries_per_kput",
                    1000.0 * static_cast<double>(c.put_link_retries), writes,
                    "1/kput", no_writes));
  m.push_back(Ratio("core.put.helped_share", static_cast<double>(c.puts_helped),
                    writes, "ratio", no_writes));
  m.push_back(Measured("core.version.gv_fetch_inc_ns", gv_ns, "ns",
                    "median of 11 x 100000 calls"));
  m.push_back(Measured("core.version.psa_cycle_ns", psa_ns, "ns",
                    "median of 11 x 100000 cycles"));
  m.push_back(Ratio("core.version.scans_helped_share",
                    static_cast<double>(c.scans_helped),
                    static_cast<double>(c.scans), "ratio",
                    "the workload issues no scans"));
  m.push_back(Ratio("core.rebalance.per_kwrite",
                    1000.0 * static_cast<double>(c.rebalances), writes,
                    "1/kwrite", no_writes));
  m.push_back(Ratio("core.rebalance.win_share",
                    static_cast<double>(c.rebalance_wins),
                    static_cast<double>(c.rebalances), "ratio", no_rebalance));
  const struct {
    const char* name;
    obs::Latency stage;
  } stages[] = {{"core.rebalance.engage_p50_us", obs::Latency::kRebalanceEngage},
                {"core.rebalance.freeze_p50_us", obs::Latency::kRebalanceFreeze},
                {"core.rebalance.build_p50_us", obs::Latency::kRebalanceBuild},
                {"core.rebalance.replace_p50_us", obs::Latency::kRebalanceReplace},
                {"core.rebalance.index_p50_us", obs::Latency::kRebalanceIndex}};
  for (const auto& stage : stages) {
    const obs::LatencySummary& s =
        in.end_report.latency[static_cast<std::size_t>(stage.stage)];
    if (s.count == 0) {
      m.push_back(NotApplicable(stage.name, "us", no_rebalance));
    } else {
      m.push_back(Measured(stage.name, static_cast<double>(s.p50) / 1000.0, "us",
                        "n=" + std::to_string(s.count)));
    }
  }
  m.push_back(Ratio("core.rebalance.piggyback_share",
                    static_cast<double>(c.puts_piggybacked), writes, "ratio",
                    no_writes));
  const std::string no_batches = "the workload issues no PutBatch";
  m.push_back(Ratio("core.batch.bulk_share",
                    static_cast<double>(c.batch_bulk_entries),
                    static_cast<double>(c.batch_entries), "ratio", no_batches));
  m.push_back(Ratio("core.batch.entries_per_call",
                    static_cast<double>(c.batch_entries),
                    static_cast<double>(c.put_batches), "count", no_batches));
  m.push_back(Measured("core.layout.compare_ns", compare_ns, "ns",
                    "median of 11 x 20000 prefix searches"));
  const std::string identity = "int64 keys use the identity layout";
  if constexpr (Layout::kHasArena) {
    m.push_back(Ratio("core.layout.prefix_tie_share", static_cast<double>(ties),
                      static_cast<double>(compares), "ratio", "no compares"));
    m.push_back(Ratio("core.layout.arena_fill",
                      static_cast<double>(in.census.arena_used_bytes),
                      static_cast<double>(in.census.arena_capacity_bytes),
                      "ratio", "no arena"));
  } else {
    m.push_back(NotApplicable("core.layout.prefix_tie_share", "ratio", identity));
    m.push_back(NotApplicable("core.layout.arena_fill", "ratio", identity));
  }
  m.push_back(Measured("reclaim.ebr.guard_ns", guard_ns, "ns",
                    "median of 11 x 100000 guards"));
  m.push_back(Measured("reclaim.ebr.pending_bytes", in.ebr_pending_bytes, "B",
                    "mean of per-round samples"));
  m.push_back(Measured("reclaim.ebr.epoch_lag", in.ebr_epoch_lag, "epochs",
                    "mean of per-round samples"));
  m.push_back(Measured("reclaim.pool.alloc_ns", alloc_ns, "ns",
                    "median of 11 x 20000 allocate+deallocate pairs"));
  m.push_back(Ratio("reclaim.pool.hit_share", static_cast<double>(in.pool_hits),
                    static_cast<double>(in.pool_hits + in.pool_misses), "ratio",
                    "no slab was allocated in the window"));
  m.push_back(Measured("reclaim.pool.class_retries",
                    static_cast<double>(in.pool_class_retries), "count"));

  // ---- api spans and their reconciliation against the probed layers ----
  const char* api_names[kOpKinds] = {"api.get_ns", "api.put_ns",
                                     "api.scan_ns_per_key",
                                     "api.batch_ns_per_entry"};
  const char* not_issued[kOpKinds] = {
      "the workload issues no Get", "the workload issues no Put or Remove",
      "the workload issues no Scan", "the workload issues no PutBatch"};
  const bool per_item[kOpKinds] = {false, false, true, true};
  double api[kOpKinds] = {};
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    if (in.api_spans[k] == 0) {
      m.push_back(NotApplicable(api_names[k], "ns", not_issued[k]));
      continue;
    }
    api[k] = per_item[k] ? in.api_ns_per_item[k] : in.api_ns[k];
    m.push_back(Measured(api_names[k], api[k], "ns",
                      "median of n=" + std::to_string(in.api_spans[k]) + " spans"));
  }
  const double keys_per_scan =
      in.api_ns_per_item[kScan] > 0 ? in.api_ns[kScan] / in.api_ns_per_item[kScan] : 1;
  const double entries_per_call =
      c.put_batches > 0 ? static_cast<double>(c.batch_entries) /
                              static_cast<double>(c.put_batches)
                        : 1;
  const double entries = static_cast<double>(std::max<std::uint64_t>(c.batch_entries, 1));
  const double bulk_share = static_cast<double>(c.batch_bulk_entries) / entries;
  const double rebalances_per_entry = static_cast<double>(c.rebalances) / entries;
  const double build_ns = static_cast<double>(
      in.end_report.latency[static_cast<std::size_t>(obs::Latency::kRebalanceBuild)].p50);
  // Probed cost on each op's path (see README, "Reconciliation").
  const double probed[kOpKinds] = {
      lookup_ns + find_latest_ns + guard_ns,
      lookup_ns + find_cell_ns + guard_ns,
      (gv_ns + psa_ns + guard_ns + lookup_ns + find_latest_ns) / keys_per_scan,
      (1 - bulk_share) * find_cell_ns + (lookup_ns + guard_ns) / entries_per_call +
          rebalances_per_entry * (build_ns + alloc_ns)};
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    const std::string name = std::string("unexplained_share.") + OpName(k);
    if (api[k] <= 0) {
      m.push_back(NotApplicable(name, "ratio", not_issued[k]));
    } else {
      m.push_back(Measured(name, 1.0 - probed[k] / api[k], "ratio"));
    }
  }
  m.push_back(Measured("trace_overhead_share", in.trace_overhead_share, "ratio",
                    "traced vs untraced rounds of this run"));
  return m;
}

template std::vector<Metric> LayerMetrics<core::Int64Layout>(
    const LayerInputs<core::Int64Layout>&);
template std::vector<Metric> LayerMetrics<core::ByteLayout>(
    const LayerInputs<core::ByteLayout>&);

}  // namespace perfbench
