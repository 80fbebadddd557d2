#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>

#include "api/byte_map.h"
#include "common/random.h"
#include "core/kiwi_map.h"
#include "harness.h"
#include "obs/census.h"
#include "probes.h"
#include "verifier.h"

namespace perfbench {
namespace {

using kiwi::Xoshiro256;
using kiwi::core::KiWiConfig;
using kiwi::core::KiWiMap;
using kiwi::api::KiWiByteMap;

/// Ops per worker in a pre-generated stream; loops cycle through it.
constexpr std::size_t kStreamOps = std::size_t{1} << 22;
constexpr std::uint32_t kWriteBit = 0x80000000u;

// ---------------------------------------------------------------------------
// Shared pieces

/// setup_s is the bulk load's duration in reference loads times this
/// nominal load time, so it reads in seconds but, like the other gated time
/// metrics, does not move with the host's speed regime.  100 ns is a round
/// nominal figure; wall-clock set-up time is printed beside it as
/// setup_wall_s.
constexpr double kNominalLoadNs = 100;
/// Reference loads chased before and after each bulk load.
constexpr std::uint64_t kSetupChaseLoads = std::uint64_t{1} << 14;

/// Bulk-load `entries` `loads` times through the public bulk-load
/// constructor, each between two timed reference chases; setup_s is the
/// median over loads of the load's time over the mean reference load time
/// of the chases around it.  Returns the last map.
template <typename Map>
std::unique_ptr<Map> TimedLoads(std::span<const typename Map::Entry> entries,
                                const KiWiConfig& config, int loads,
                                const Reference& reference, Result& result) {
  std::uint32_t pos = 0;
  auto chase_ns = [&] {
    const std::uint64_t t0 = NowNs();
    for (std::uint64_t i = 0; i < kSetupChaseLoads; i += 64) pos = reference.Chase64(pos);
    asm volatile("" : : "r"(pos) : "memory");  // keep the chase
    return static_cast<double>(NowNs() - t0) / static_cast<double>(kSetupChaseLoads);
  };
  std::vector<double> in_loads, wall;
  std::unique_ptr<Map> map;
  double before = chase_ns();
  for (int i = 0; i < loads; ++i) {
    map.reset();
    const std::uint64_t t0 = NowNs();
    map = std::make_unique<Map>(entries, config);
    const auto load_ns = static_cast<double>(NowNs() - t0);
    const double after = chase_ns();
    in_loads.push_back(load_ns / (0.5 * (before + after)));
    wall.push_back(load_ns / 1e9);
    before = after;
  }
  const std::string n = "median of n=" + std::to_string(loads) + " bulk loads of " +
                        std::to_string(entries.size()) + " keys";
  result.e2e.push_back(Metric{"setup_s", Median(in_loads) * kNominalLoadNs / 1e9, "s",
                              n + ", in reference loads x " +
                                  std::to_string(static_cast<int>(kNominalLoadNs)) + " ns",
                              ""});
  result.e2e.push_back(Metric{"setup_wall_s", Median(wall), "s", n, ""});
  return map;
}

/// Counters and gauges a traced run samples from the main thread.  The
/// counter shards are plain per-thread words, so they are read only once the
/// clients have stopped: counters cover the warm-up and the window.
template <typename Map>
struct Observer {
  Map& map;
  bool active;
  kiwi::obs::OpCounters end{};
  kiwi::reclaim::SlabPool::Stats pool_start{}, pool_end{};
  std::vector<double> pending_bytes{}, epoch_lag{};

  void OnMeasureStart() {
    if (active) pool_start = map.Pool().GetStats();
  }
  /// Right after the clients stop, before the quiesce check adds its own
  /// scan to the counters.
  void OnMeasureEnd() {
    if (!active) return;
    end = map.DebugReport().counters;
    pool_end = map.Pool().GetStats();
  }
  void Sample() {
    if (!active) return;
    pending_bytes.push_back(static_cast<double>(map.Reclaimer().PendingBytes()));
    epoch_lag.push_back(static_cast<double>(map.Reclaimer().EpochLag()));
  }
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

void AddRate(Result& r, const Harness& h, const char* name, OpKind kind,
             bool items, const char* unit) {
  r.e2e.push_back(Metric{name, h.RatePerSecond(kind, items), unit,
                         "median of n=" + std::to_string(h.Rounds().size()) +
                             " rounds of " + std::to_string(Harness::kRoundMs) + " ms",
                         ""});
}

void AddLatency(Result& r, const Harness& h, const std::string& base,
                OpKind kind, double ns_per_unit, const char* unit) {
  const LatencyHist hist = h.Latency(kind);
  const std::string n = "n=" + std::to_string(hist.Count()) + " " + OpName(kind) + "s";
  r.e2e.push_back(Metric{base + "_p50_" + unit, hist.Quantile(0.50) / ns_per_unit, unit, n, ""});
  r.e2e.push_back(Metric{base + "_p99_" + unit, hist.Quantile(0.99) / ns_per_unit, unit, n, ""});
}

const Metric& Find(const Result& r, const std::string& name) {
  for (const Metric& m : r.e2e) {
    if (m.name == name) return m;
  }
  throw std::logic_error("missing metric " + name);
}

/// The gated (BENCHMARK.json) metrics.  Every workload reports the rate and
/// the latency of its read stream and of its write stream, expressed in the
/// run's reference loads (see harness.h): a rate per 1000 loads the clients
/// could have chased in the same time, a latency as the loads one client
/// could have chased in it.  Latency sources are named <base>_p50_<unit>.
void AddGated(Result& r, const Harness& h, const std::string& read_rate,
              const std::string& read_base, const std::string& read_unit,
              const std::string& write_rate, const std::string& write_base,
              const std::string& write_unit) {
  const double per_client = h.ReferenceLoadsPerSecond();
  r.e2e.push_back(Metric{"reference_loads_per_s", per_client, "1/s",
                         "per client, over " + std::to_string(h.Rounds().size()) +
                             " slices of " + std::to_string(Harness::kReferenceMs) + " ms",
                         ""});
  auto alias = [&](const std::string& gated, const std::string& source,
                   double scale, const char* unit) {
    Metric m = Find(r, source);
    m.samples = "from " + m.name + ", " + m.samples;
    m.name = gated;
    m.value *= scale;
    m.unit = unit;
    r.gated.push_back(m);
  };
  const double per_kload = 1000.0 / (per_client * static_cast<double>(h.Clients()));
  auto loads_per = [&](const std::string& unit) {
    return per_client * (unit == "ms" ? 1e-3 : 1e-6);
  };
  alias("setup_s", "setup_s", 1, "s");
  alias("read_per_kload", read_rate, per_kload, "1/kload");
  alias("read_p50_loads", read_base + "_p50_" + read_unit, loads_per(read_unit), "loads");
  alias("read_p99_loads", read_base + "_p99_" + read_unit, loads_per(read_unit), "loads");
  alias("write_per_kload", write_rate, per_kload, "1/kload");
  alias("write_p50_loads", write_base + "_p50_" + write_unit, loads_per(write_unit), "loads");
  alias("write_p99_loads", write_base + "_p99_" + write_unit, loads_per(write_unit), "loads");
  alias("bytes_per_key", "bytes_per_key", 1, "B");
}

void AddQuiesce(Result& r, const Harness& h, std::uint64_t checked_keys,
                std::uint64_t bad_keys, std::size_t memory_bytes,
                std::uint64_t live_keys) {
  r.e2e.push_back(Metric{"bytes_per_key",
                         static_cast<double>(memory_bytes) /
                             static_cast<double>(std::max<std::uint64_t>(live_keys, 1)),
                         "B", "n=" + std::to_string(live_keys) + " live keys", ""});
  r.attempted = h.TotalCalls() + checked_keys;
  r.failed = bad_keys;
  for (const auto& w : h.Workers()) {
    r.failed += w->errors;
    for (const auto& e : w->error_log) r.errors.push_back(e);
  }
  r.e2e.push_back(Metric{"error_rate",
                         static_cast<double>(r.failed) /
                             static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
                         "ratio",
                         "n=" + std::to_string(r.attempted) +
                             " calls and quiesce-checked keys",
                         ""});
}

void WriteSpans(const Harness& h, const Options& o) {
  if (o.spans_out.empty()) return;
  std::ofstream out(o.spans_out);
  for (const auto& w : h.Workers()) {
    for (const Span& s : w->spans) {
      out << "{\"op\":" << s.op_id << ",\"parent\":" << s.parent
          << ",\"thread\":" << s.thread << ",\"name\":\""
          << (s.kind < kOpKinds ? std::string("api.") + OpName(s.kind)
                                : std::string("check"))
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"items\":" << s.items << "}\n";
    }
  }
}

/// Collect the traced run's inputs, release the map (the probes build
/// standalone structures of the same size), and compute the per-layer
/// metrics.
template <typename Map>
void AddLayers(Result& r, std::unique_ptr<Map>& map, const Harness& h,
               const Observer<Map>& o,
               OpKind read_kind, bool read_items,
               std::vector<typename Map::OwnedKey> sorted_keys,
               typename Map::OwnedValue value, std::uint64_t seed) {
  using Layout = std::conditional_t<std::is_same_v<Map, KiWiMap>,
                                    kiwi::core::Int64Layout,
                                    kiwi::core::ByteLayout>;
  LayerInputs<Layout> in;
  in.end_report = map->DebugReport();
  in.counters = o.end;
  in.census = map->Census();
  in.pool_hits = o.pool_end.hits - o.pool_start.hits;
  in.pool_misses = o.pool_end.misses - o.pool_start.misses;
  in.pool_class_retries = o.pool_end.class_cas_retries - o.pool_start.class_cas_retries;
  in.ebr_pending_bytes = Mean(o.pending_bytes);
  in.ebr_epoch_lag = Mean(o.epoch_lag);
  const double untraced = h.RatePerSecond(read_kind, read_items, 0);
  in.trace_overhead_share =
      untraced > 0 ? 1.0 - h.RatePerSecond(read_kind, read_items, 1) / untraced : 0;
  in.chunk_capacity = map->Config().chunk_capacity;
  in.arena_capacity = map->ArenaCapacity();
  map.reset();
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    std::vector<double> per_call, per_item;
    for (const auto& w : h.Workers()) {
      for (const Span& s : w->spans) {
        if (s.kind != k || s.parent != 0) continue;
        const double ns = static_cast<double>(s.end_ns - s.start_ns);
        per_call.push_back(ns);
        if (s.items > 0) per_item.push_back(ns / static_cast<double>(s.items));
      }
    }
    in.api_spans[k] = per_call.size();
    in.api_ns[k] = Median(per_call);
    in.api_ns_per_item[k] = Median(per_item);
  }
  in.sorted_keys = std::move(sorted_keys);
  in.value = std::move(value);
  in.seed = seed;
  r.layers = LayerMetrics<Layout>(in);
}

// ---------------------------------------------------------------------------
// read_mostly: int64 map, 2M odd keys in [1, 4M) so half of all gets miss;
// 3 threads, each 95% uniform Get and 5% Put overwriting a present key that
// the thread owns (odd key index i belongs to thread i % 3).

Result RunReadMostly(const Options& o) {
  constexpr Key kRange = 4'000'000;
  constexpr std::size_t kLoaded = kRange / 2;
  constexpr unsigned kThreads = 3;
  constexpr std::size_t kPerThread = kLoaded / kThreads;  // owned indices
  // Reference buffer: fixed near the loaded map's footprint (~130 MB, so
  // the chase, like the gets, misses the 105 MiB L3 of the reference host).
  constexpr std::size_t kReferenceBytes = std::size_t{128} << 20;
  Result r;
  r.shape = "int64 map, 2M odd keys in [1, 4M), 3 threads x closed loop of "
            "95% Get (uniform) / 5% Put (overwrite of an owned present key)";

  std::vector<std::pair<Key, Value>> entries(kLoaded);
  for (std::size_t i = 0; i < kLoaded; ++i) {
    const Key key = static_cast<Key>(2 * i + 1);
    entries[i] = {key, EncodeValue(key, 0)};
  }
  std::vector<std::vector<std::uint32_t>> streams(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    Xoshiro256 rng(o.seed * 1000003 + t);
    streams[t].resize(kStreamOps);
    for (auto& op : streams[t]) {
      if (rng.NextBounded(100) < 5) {
        const std::uint64_t index = 3 * rng.NextBounded(kPerThread) + t;
        op = kWriteBit | static_cast<std::uint32_t>(2 * index + 1);
      } else {
        op = static_cast<std::uint32_t>(1 + rng.NextBounded(kRange - 1));
      }
    }
  }
  KeyHistory ledger(static_cast<std::size_t>(kRange));
  for (Key k = 0; k < kRange; ++k) ledger.Init(k, k % 2 == 1);

  const Reference reference(kReferenceBytes, o.seed);
  auto map = TimedLoads<KiWiMap>(entries, KiWiConfig{}, 51, reference, r);
  Harness h(o.seconds, o.trace, reference);
  Observer<KiWiMap> observer{*map, o.trace};
  std::vector<std::function<void(Worker&)>> loops;
  for (unsigned t = 0; t < kThreads; ++t) {
    loops.push_back([&, t](Worker& w) {
      const std::vector<std::uint32_t>& stream = streams[t];
      std::uint32_t seq = 0;
      std::optional<Value> got;
      for (std::size_t pos = 0; h.Continue(w); ++pos) {
        const std::uint32_t op = stream[pos & (kStreamOps - 1)];
        const Key key = static_cast<Key>(op & ~kWriteBit);
        const std::size_t index = static_cast<std::size_t>(key - 1) / 2;
        if ((op & kWriteBit) != 0) {
          ledger.Record(key, ++seq, true);
          const Value value = EncodeValue(key, seq);
          h.Op(w, kPut, [&] { map->Put(key, value); return std::uint64_t{1}; },
               [] {});
          continue;
        }
        h.Op(w, kGet, [&] { got = map->Get(key); return std::uint64_t{1}; },
             [&] {
               if (const char* why = CheckGet(key, got, ledger,
                                              index % kThreads == t, true)) {
                 w.Fail(Describe(why, key, got.value_or(0)));
               }
             });
      }
    });
  }
  h.Run(loops, [&] { observer.OnMeasureStart(); }, [&] { observer.Sample(); });
  observer.OnMeasureEnd();

  std::vector<std::pair<Key, Value>> final_state;
  map->Scan(1, kRange - 1, final_state);
  const std::uint64_t bad = CountLedgerMismatches(final_state, 1, kRange - 1, ledger);
  if (bad > 0) r.errors.push_back("quiesce: " + std::to_string(bad) + " keys differ from the ledger");
  map->DrainReclamation();
  AddRate(r, h, "get_per_s", kGet, false, "1/s");
  AddLatency(r, h, "get", kGet, 1000.0, "us");
  AddRate(r, h, "put_per_s", kPut, false, "1/s");
  AddLatency(r, h, "put", kPut, 1000.0, "us");
  AddQuiesce(r, h, kRange - 1, bad, map->MemoryFootprint(), final_state.size());
  AddGated(r, h, "get_per_s", "get", "us", "put_per_s", "put", "us");
  if (o.trace) {
    std::vector<Key> keys(kLoaded);
    for (std::size_t i = 0; i < kLoaded; ++i) keys[i] = entries[i].first;
    AddLayers(r, map, h, observer, kGet, false, std::move(keys),
              EncodeValue(1, 0), o.seed);
    WriteSpans(h, o);
  }
  return r;
}

// ---------------------------------------------------------------------------
// scan_churn: int64 map, 256K keys over [1, 512K]; 2 writers (writer w owns
// the keys with key % 2 == w), each a closed loop of half Put, half Remove,
// uniform over its keys; 1 scanner, a closed loop of atomic Scans over
// 16K-key ranges.  Every scan is shape-checked, every 4th also cut-checked.

Result RunScanChurn(const Options& o) {
  constexpr Key kRange = Key{1} << 19;
  constexpr std::size_t kLoaded = std::size_t{1} << 18;
  constexpr Key kScanWidth = Key{1} << 14;
  constexpr unsigned kWriters = 2;
  constexpr std::size_t kScanStream = std::size_t{1} << 16;
  constexpr std::uint64_t kCutCheckEvery = 4;
  // Reference buffer: fixed near the loaded map's footprint (~17 MB).
  constexpr std::size_t kReferenceBytes = std::size_t{16} << 20;
  Result r;
  r.shape = "int64 map, 256K keys over [1, 512K], 2 writers x closed loop of "
            "50% Put / 50% Remove (uniform), 1 scanner x closed loop of "
            "atomic Scans of 16K-key ranges";

  Xoshiro256 rng(o.seed * 1000003 + 17);
  std::vector<Key> all(kRange);
  for (Key k = 1; k <= kRange; ++k) all[static_cast<std::size_t>(k - 1)] = k;
  for (std::size_t i = 0; i < kLoaded; ++i) {
    std::swap(all[i], all[i + rng.NextBounded(all.size() - i)]);
  }
  all.resize(kLoaded);
  std::sort(all.begin(), all.end());
  KeyHistory history(static_cast<std::size_t>(kRange) + 1);
  for (Key k = 0; k <= kRange; ++k) history.Init(k, false);
  std::vector<std::pair<Key, Value>> entries;
  for (Key k : all) {
    entries.emplace_back(k, EncodeValue(k, 0));
    history.Init(k, true);
  }
  std::vector<std::vector<std::uint32_t>> streams(kWriters);
  for (unsigned w = 0; w < kWriters; ++w) {
    Xoshiro256 wrng(o.seed * 1000003 + w);
    streams[w].resize(kStreamOps);
    for (auto& op : streams[w]) {
      // Keys with key % 2 == w, i.e. 2j + w for j in [0, kRange / 2), and
      // key 0 excluded (the smallest owned key of writer 0 is 2).
      const Key key = 2 * static_cast<Key>(wrng.NextBounded(kRange / 2)) + 2 - w;
      op = static_cast<std::uint32_t>(key) | (wrng.NextBounded(2) == 0 ? kWriteBit : 0);
    }
  }
  std::vector<Key> scan_from(kScanStream);
  for (Key& from : scan_from) {
    from = 1 + static_cast<Key>(rng.NextBounded(kRange - kScanWidth + 1));
  }

  const Reference reference(kReferenceBytes, o.seed);
  auto map = TimedLoads<KiWiMap>(entries, KiWiConfig{}, 201, reference, r);
  Harness h(o.seconds, o.trace, reference);
  Observer<KiWiMap> observer{*map, o.trace};
  std::vector<std::function<void(Worker&)>> loops;
  for (unsigned wr = 0; wr < kWriters; ++wr) {
    loops.push_back([&, wr](Worker& w) {
      const std::vector<std::uint32_t>& stream = streams[wr];
      std::uint32_t seq = 0;
      for (std::size_t pos = 0; h.Continue(w); ++pos) {
        const std::uint32_t op = stream[pos & (kStreamOps - 1)];
        const Key key = static_cast<Key>(op & ~kWriteBit);
        const bool remove = (op & kWriteBit) != 0;
        history.Record(key, ++seq, !remove);
        const Value value = EncodeValue(key, seq);
        h.Op(w, kPut,
             [&] {
               if (remove) {
                 map->Remove(key);
               } else {
                 map->Put(key, value);
               }
               return std::uint64_t{1};
             },
             [] {});
      }
    });
  }
  loops.push_back([&](Worker& w) {
    std::vector<std::pair<Key, Value>> out;
    std::string first;
    for (std::uint64_t n = 0; h.Continue(w); ++n) {
      const Key from = scan_from[n & (kScanStream - 1)];
      const Key to = from + kScanWidth - 1;
      h.Op(w, kScan, [&] { return static_cast<std::uint64_t>(map->Scan(from, to, out)); },
           [&] {
             if (std::size_t bad = CheckScanShape(from, to, out, &first); bad > 0) {
               w.Fail(first);
             } else if (n % kCutCheckEvery == 0 &&
                        CheckScanCut(from, to, out, history, kWriters, &first) > 0) {
               w.Fail(first);
             }
           });
    }
  });
  h.Run(loops, [&] { observer.OnMeasureStart(); }, [&] { observer.Sample(); });
  observer.OnMeasureEnd();

  std::vector<std::pair<Key, Value>> final_state;
  map->Scan(1, kRange, final_state);
  const std::uint64_t bad = CountLedgerMismatches(final_state, 1, kRange, history);
  if (bad > 0) r.errors.push_back("quiesce: " + std::to_string(bad) + " keys differ from the ledger");
  map->DrainReclamation();
  AddRate(r, h, "put_per_s", kPut, false, "1/s");
  AddLatency(r, h, "put", kPut, 1000.0, "us");
  AddRate(r, h, "scan_keys_per_s", kScan, true, "keys/s");
  AddLatency(r, h, "scan", kScan, 1e6, "ms");
  AddQuiesce(r, h, static_cast<std::uint64_t>(kRange), bad, map->MemoryFootprint(),
             final_state.size());
  AddGated(r, h, "scan_keys_per_s", "scan", "ms", "put_per_s", "put", "us");
  if (o.trace) {
    AddLayers(r, map, h, observer, kScan, true, all, EncodeValue(1, 0), o.seed);
    WriteSpans(h, o);
  }
  return r;
}

// ---------------------------------------------------------------------------
// ingest_bytes: byte map bulk-loaded with 100K time-series readings (250
// series x 400 even timestamps); 1 ingest thread, a closed loop of PutBatch
// over a fixed sequence of 128 bursts of 1024 entries: three bursts of one
// series' next 1024 readings each (presorted: the bulk-build path), then one
// of 1024 late odd-timestamp readings scattered across series (random: the
// per-op path).  With 1:1 alternation the burst latency would be bimodal
// with its median between the modes, so p50 would not repeat run to run;
// 1 query thread, a closed loop of 15 Gets of known keys per bounded Scan of
// one series' most recent 256 timestamps.

struct Series {
  std::string prefix;  // "tenant:NNNN/sensor:N/ts:"
  std::int64_t top_ts;
};

std::string SeriesKey(const Series& s, std::int64_t ts) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%010lld", static_cast<long long>(ts));
  return s.prefix + digits;
}

Result RunIngestBytes(const Options& o) {
  constexpr int kSeries = 250;
  constexpr int kInitialPerSeries = 400;
  constexpr int kBurst = 1024;
  // Each group of bursts: kPresortedPerGroup series' next readings, then one
  // burst of late readings (in-order readings outnumber late ones).
  constexpr int kGroups = 32;
  constexpr int kPresortedPerGroup = 3;
  constexpr std::int64_t kBaseTs = 1'700'000'000;
  constexpr std::int64_t kScanWindow = 256;
  constexpr std::size_t kQueryStream = std::size_t{1} << 16;
  constexpr std::uint32_t kNever = ~std::uint32_t{0};
  // Reference buffer: fixed near the loaded map's footprint (~34 MB).
  constexpr std::size_t kReferenceBytes = std::size_t{32} << 20;
  Result r;
  r.shape = "byte map, 100K readings of 250 series (keys 34-39 B, values "
            "32-128 B), 1 ingest thread x closed loop of 1024-entry PutBatch "
            "bursts, 3 presorted per scattered, 1 query thread x closed "
            "loop of 15 Gets per bounded Scan";

  Xoshiro256 rng(o.seed * 1000003 + 29);
  std::vector<Series> series(kSeries);
  std::set<std::uint64_t> sensors;
  for (int s = 0; s < kSeries; ++s) {
    std::uint64_t sensor = 0;
    do {
      sensor = 1 + rng.NextBounded(999999);
    } while (!sensors.insert(sensor).second);
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "tenant:%04d/sensor:%llu/ts:", s / 10,
                  static_cast<unsigned long long>(sensor));
    series[static_cast<std::size_t>(s)] = {prefix, kBaseTs + 2 * (kInitialPerSeries - 1) + 1};
  }
  // Bursts as (series, timestamp) lists, in sequence order.
  std::vector<std::vector<std::pair<int, std::int64_t>>> burst_keys;
  std::vector<int> order(kSeries);
  for (int s = 0; s < kSeries; ++s) order[static_cast<std::size_t>(s)] = s;
  int extended = 0;
  for (int g = 0; g < kGroups; ++g) {
    for (int p = 0; p < kPresortedPerGroup; ++p, ++extended) {
      const auto e = static_cast<std::size_t>(extended);
      std::swap(order[e], order[e + rng.NextBounded(kSeries - e)]);
      const int s = order[e];
      std::vector<std::pair<int, std::int64_t>> sorted_burst;
      for (int j = 0; j < kBurst; ++j) {
        sorted_burst.emplace_back(s, kBaseTs + 2 * (kInitialPerSeries + j));
      }
      series[static_cast<std::size_t>(s)].top_ts = sorted_burst.back().second;
      burst_keys.push_back(std::move(sorted_burst));
    }
    std::set<std::pair<int, std::int64_t>> late;
    while (late.size() < kBurst) {
      late.emplace(static_cast<int>(rng.NextBounded(kSeries)),
                   kBaseTs + 2 * static_cast<std::int64_t>(rng.NextBounded(kInitialPerSeries)) + 1);
    }
    std::vector<std::pair<int, std::int64_t>> scattered(late.begin(), late.end());
    for (std::size_t i = scattered.size(); i > 1; --i) {
      std::swap(scattered[i - 1], scattered[rng.NextBounded(i)]);
    }
    burst_keys.push_back(std::move(scattered));
  }
  // The key universe, sorted; ids index it.
  std::vector<std::string> keys;
  for (int s = 0; s < kSeries; ++s) {
    for (int j = 0; j < kInitialPerSeries; ++j) {
      keys.push_back(SeriesKey(series[static_cast<std::size_t>(s)], kBaseTs + 2 * j));
    }
  }
  const std::size_t initial_count = keys.size();
  for (const auto& burst : burst_keys) {
    for (const auto& [s, ts] : burst) keys.push_back(SeriesKey(series[static_cast<std::size_t>(s)], ts));
  }
  std::vector<bool> initial_key;
  {
    std::vector<std::pair<std::string, bool>> tagged;
    for (std::size_t i = 0; i < keys.size(); ++i) tagged.emplace_back(keys[i], i < initial_count);
    std::sort(tagged.begin(), tagged.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second > b.second;
    });
    keys.clear();
    for (auto& [key, initial] : tagged) {
      if (!keys.empty() && keys.back() == key) continue;
      keys.push_back(std::move(key));
      initial_key.push_back(initial);
    }
  }
  auto id_of = [&](const std::string& key) {
    return static_cast<std::uint32_t>(std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
  };
  std::vector<std::uint32_t> value_len(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) value_len[i] = 32 + HashKey(keys[i]) % 97;

  std::vector<std::pair<std::string, std::string>> entries;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (initial_key[i]) entries.emplace_back(keys[i], MakeByteValue(keys[i], 0, value_len[i]));
  }
  std::vector<std::vector<std::pair<std::string, std::string>>> bursts;
  std::vector<std::vector<std::uint32_t>> burst_ids;
  std::vector<std::int64_t> first_burst(keys.size(), -1);
  for (const auto& burst : burst_keys) {
    bursts.emplace_back();
    burst_ids.emplace_back();
    for (const auto& [s, ts] : burst) {
      const std::string key = SeriesKey(series[static_cast<std::size_t>(s)], ts);
      const std::uint32_t id = id_of(key);
      if (!initial_key[id] && first_burst[id] < 0) {
        first_burst[id] = static_cast<std::int64_t>(bursts.size() - 1);
      }
      bursts.back().emplace_back(key, MakeByteValue(key, 0, value_len[id]));
      burst_ids.back().push_back(id);
    }
  }
  // Query stream: an id to Get, or (with the top bit) a series to scan.
  std::vector<std::uint32_t> queries(kQueryStream);
  for (std::size_t i = 0; i < kQueryStream; ++i) {
    queries[i] = i % 16 == 15
                     ? kWriteBit | static_cast<std::uint32_t>(rng.NextBounded(kSeries))
                     : static_cast<std::uint32_t>(rng.NextBounded(keys.size()));
  }
  std::vector<std::uint32_t> last_seq(keys.size(), kNever);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (initial_key[i]) last_seq[i] = 0;
  }

  KiWiConfig config;
  config.bytes.arena_bytes_per_cell = 128;  // near the mean key + value size
  const Reference reference(kReferenceBytes, o.seed);
  auto map = TimedLoads<KiWiByteMap>(entries, config, 151, reference, r);
  Harness h(o.seconds, o.trace, reference);
  Observer<KiWiByteMap> observer{*map, o.trace};
  std::atomic<std::uint64_t> started{0}, completed{0};
  std::vector<std::function<void(Worker&)>> loops;
  loops.push_back([&](Worker& w) {
    for (std::uint64_t n = 0; h.Continue(w); ++n) {
      const std::size_t b = n % bursts.size();
      const auto seq = static_cast<std::uint32_t>(n + 1);
      for (auto& entry : bursts[b]) SetByteValueSeq(entry.second, seq);
      started.store(seq, std::memory_order_release);
      h.Op(w, kBatch,
           [&] {
             map->PutBatch(bursts[b]);
             return static_cast<std::uint64_t>(bursts[b].size());
           },
           [&] {
             for (std::uint32_t id : burst_ids[b]) last_seq[id] = seq;
           });
      completed.store(n + 1, std::memory_order_release);
    }
  });
  loops.push_back([&](Worker& w) {
    std::optional<std::string> got;
    // A scan's pairs, copied back to back during the call (the views die
    // with the callback) and checked after it.
    std::string flat;
    std::vector<std::pair<std::size_t, std::size_t>> sizes;
    for (std::size_t pos = 0; h.Continue(w); ++pos) {
      const std::uint32_t q = queries[pos & (kQueryStream - 1)];
      if ((q & kWriteBit) != 0) {
        const Series& s = series[q & ~kWriteBit];
        const std::string from = SeriesKey(s, s.top_ts - kScanWindow + 1);
        const std::string to = SeriesKey(s, s.top_ts);
        h.Op(w, kScan,
             [&] {
               flat.clear();
               sizes.clear();
               return static_cast<std::uint64_t>(map->Scan(
                   from, to, [&](std::string_view key, std::string_view value) {
                     flat.append(key);
                     flat.append(value);
                     sizes.emplace_back(key.size(), value.size());
                   }));
             },
             [&] {
               std::size_t off = 0;
               std::string_view prev;
               for (const auto& [key_size, value_size] : sizes) {
                 const std::string_view key(flat.data() + off, key_size);
                 const std::string_view value(flat.data() + off + key_size, value_size);
                 off += key_size + value_size;
                 std::uint32_t seq = 0;
                 if (key < from || key > to || (!prev.empty() && key <= prev) ||
                     !ByteValueMatches(key, value, &seq)) {
                   w.Fail("byte scan [" + from + ", " + to + "]: key " + std::string(key) +
                          " out of order, out of bounds or mistagged");
                   break;
                 }
                 prev = key;
               }
             });
        continue;
      }
      const std::string& key = keys[q];
      const std::uint64_t done_before = completed.load(std::memory_order_acquire);
      h.Op(w, kGet, [&] { got = map->Get(key); return std::uint64_t{1}; },
           [&] {
             const std::uint64_t in_flight = started.load(std::memory_order_acquire);
             const bool must_exist =
                 initial_key[q] || (first_burst[q] >= 0 &&
                                    static_cast<std::uint64_t>(first_burst[q]) < done_before);
             std::uint32_t seq = 0;
             if (!got) {
               if (must_exist) w.Fail("get missed ingested key " + key);
             } else if (!ByteValueMatches(key, *got, &seq) || got->size() != value_len[q]) {
               w.Fail("get returned a value not written for " + key);
             } else if (seq > in_flight) {
               w.Fail("get returned a value from the future for " + key);
             }
           });
    }
  });
  h.Run(loops, [&] { observer.OnMeasureStart(); }, [&] { observer.Sample(); });
  observer.OnMeasureEnd();

  std::uint64_t bad = 0, live = 0;
  std::size_t next = 0;
  map->ScanFrom(kiwi::api::ByteMapMinKey(), [&](std::string_view key, std::string_view value) {
    ++live;
    for (; next < keys.size() && keys[next] < key; ++next) {
      if (last_seq[next] != kNever) ++bad;  // missing
    }
    if (next == keys.size() || keys[next] != key || last_seq[next] == kNever ||
        value != MakeByteValue(key, last_seq[next], value_len[next])) {
      ++bad;
      return;
    }
    ++next;
  });
  for (; next < keys.size(); ++next) {
    if (last_seq[next] != kNever) ++bad;
  }
  if (bad > 0) r.errors.push_back("quiesce: " + std::to_string(bad) + " keys differ from the ledger");
  map->DrainReclamation();
  AddRate(r, h, "ingest_keys_per_s", kBatch, true, "keys/s");
  AddLatency(r, h, "batch", kBatch, 1e6, "ms");
  AddRate(r, h, "get_per_s", kGet, false, "1/s");
  AddLatency(r, h, "get", kGet, 1000.0, "us");
  AddQuiesce(r, h, keys.size(), bad, map->MemoryFootprint(), live);
  AddGated(r, h, "get_per_s", "get", "us", "ingest_keys_per_s", "batch", "ms");
  if (o.trace) {
    const std::string value = MakeByteValue(keys.front(), 0, 80);
    AddLayers(r, map, h, observer, kBatch, true, keys, value, o.seed);
    WriteSpans(h, o);
  }
  return r;
}

}  // namespace

Result RunWorkload(const Options& options) {
  if (options.workload == "read_mostly") return RunReadMostly(options);
  if (options.workload == "scan_churn") return RunScanChurn(options);
  if (options.workload == "ingest_bytes") return RunIngestBytes(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
