#include "fuzz/fuzzer.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "api/byte_map.h"
#include "common/random.h"
#include "common/test_hooks.h"
#include "core/kiwi_map.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace kiwi::fuzz {

using core::KiWiConfig;
using core::KiWiMap;

namespace {

/// Globally unique written value: never 0, never the tombstone, and
/// disjoint from the preload value space (plain key numbers).
Value OpValue(std::uint32_t thread, std::uint32_t counter) {
  return (static_cast<Value>(thread + 1) << 32) | counter;
}

// --- Byte-key codec (RoundParams::byte_keys) ------------------------------
//
// Order-preserving and injective on the fixed-width decimal field, so logical
// key order, scan ranges and the checker all survive the translation.  The
// shared 8-byte "fuzzkey:" prefix makes every cell-prefix comparison tie; the
// per-key variable-length suffix varies arena claim sizes.

std::string ByteKey(Key key) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "fuzzkey:%06lld",
                static_cast<long long>(key));
  std::string out(buf);
  out.append(static_cast<std::size_t>(key % 5),
             static_cast<char>('a' + key % 26));
  return out;
}

Key DecodeKey(std::string_view key) {
  return static_cast<Key>(std::strtoll(std::string(key.substr(8, 6)).c_str(),
                                       nullptr, 10));
}

std::string ByteValue(Value value) {
  std::string out(8, '\0');
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<char>((static_cast<std::uint64_t>(value) >> (56 - 8 * i)) &
                          0xff);
  }
  return out;
}

Value DecodeValue(std::string_view value) {
  std::uint64_t out = 0;
  for (char c : value) out = (out << 8) | static_cast<unsigned char>(c);
  return static_cast<Value>(out);
}

/// The worker below is written against the logical int64 op domain; these
/// two drivers bind it to either map layout.  The byte driver translates at
/// the call boundary so the recorded history (and therefore the checker)
/// never sees byte strings.
struct Int64Driver {
  KiWiMap& map;
  void Put(Key key, Value value) { map.Put(key, value); }
  void Remove(Key key) { map.Remove(key); }
  std::optional<Value> Get(Key key) { return map.Get(key); }
  void Scan(Key from, Key to, std::vector<KiWiMap::Entry>& out) {
    map.Scan(from, to, out);
  }
  void PutBatch(const std::vector<KiWiMap::Entry>& batch) {
    map.PutBatch(batch);
  }
  void CheckInvariants() { map.CheckInvariants(); }
  std::string DebugReportText() { return map.DebugReport().ToText(); }
};

struct ByteDriver {
  api::KiWiByteMap& map;
  std::vector<api::KiWiByteMap::Entry> batch_buf{};
  void Put(Key key, Value value) { map.Put(ByteKey(key), ByteValue(value)); }
  void Remove(Key key) { map.Remove(ByteKey(key)); }
  std::optional<Value> Get(Key key) {
    const std::optional<std::string> got = map.Get(ByteKey(key));
    if (!got) return std::nullopt;
    return DecodeValue(*got);
  }
  void Scan(Key from, Key to, std::vector<KiWiMap::Entry>& out) {
    out.clear();
    map.Scan(ByteKey(from), ByteKey(to),
             [&out](std::string_view key, std::string_view value) {
               out.emplace_back(DecodeKey(key), DecodeValue(value));
             });
  }
  void PutBatch(const std::vector<KiWiMap::Entry>& batch) {
    batch_buf.clear();
    batch_buf.reserve(batch.size());
    for (const KiWiMap::Entry& entry : batch) {
      batch_buf.emplace_back(ByteKey(entry.first), ByteValue(entry.second));
    }
    map.PutBatch(batch_buf);
  }
  void CheckInvariants() { map.CheckInvariants(); }
  std::string DebugReportText() { return map.DebugReport().ToText(); }
};

template <class Driver>
void Worker(Driver& map, Recorder& recorder, const RoundParams& params,
            std::uint32_t thread) {
  Xoshiro256 rng(params.seed ^ (0xa076'1d64'78bd'642fULL * (thread + 1)));
  std::vector<KiWiMap::Entry> scan_buf;
  std::vector<KiWiMap::Entry> batch_buf;
  // Monotone per-thread counter feeding OpValue: one bump per *written*
  // value, so batch entries and plain puts never collide.
  std::uint32_t value_counter = 0;
  const std::uint64_t kPutCut = params.put_pct;
  const std::uint64_t kRemoveCut = kPutCut + params.remove_pct;
  const std::uint64_t kGetCut = kRemoveCut + params.get_pct;
  const std::uint64_t kBatchCut = kGetCut + params.batch_pct;
  for (std::uint32_t i = 0; i < params.ops_per_thread; ++i) {
    const std::uint64_t roll = rng.NextBounded(100);
    const Key key = 1 + static_cast<Key>(rng.NextBounded(params.keys));
    FuzzOp op;
    op.thread = thread;
    op.key = key;
    if (roll < kPutCut) {
      op.kind = FuzzOp::Kind::kPut;
      op.value = OpValue(thread, value_counter++);
      op.invoke = recorder.Clock().Tick();
      map.Put(key, op.value);
      op.response = recorder.Clock().Tick();
    } else if (roll < kRemoveCut) {
      op.kind = FuzzOp::Kind::kRemove;
      op.invoke = recorder.Clock().Tick();
      map.Remove(key);
      op.response = recorder.Clock().Tick();
    } else if (roll < kGetCut) {
      op.kind = FuzzOp::Kind::kGet;
      op.invoke = recorder.Clock().Tick();
      const std::optional<Value> got = map.Get(key);
      op.response = recorder.Clock().Tick();
      op.found = got.has_value();
      op.value = got.value_or(0);
    } else if (roll < kBatchCut) {
      // One PutBatch call; the raw batch (duplicates and all) goes to the
      // map, and each entry that survives the batch's keep-last duplicate
      // rule is recorded as an individual put over the shared window —
      // entries lost to an in-batch overwrite are never published, so
      // recording them would claim writes that cannot be observed.
      const std::uint64_t batch_size = 1 + rng.NextBounded(params.max_batch);
      batch_buf.clear();
      batch_buf.emplace_back(key, OpValue(thread, value_counter++));
      for (std::uint64_t e = 1; e < batch_size; ++e) {
        batch_buf.emplace_back(
            1 + static_cast<Key>(rng.NextBounded(params.keys)),
            OpValue(thread, value_counter++));
      }
      const auto invoke = recorder.Clock().Tick();
      map.PutBatch(batch_buf);
      const auto response = recorder.Clock().Tick();
      for (std::size_t e = 0; e < batch_buf.size(); ++e) {
        bool last_occurrence = true;
        for (std::size_t l = e + 1; l < batch_buf.size(); ++l) {
          if (batch_buf[l].first == batch_buf[e].first) {
            last_occurrence = false;
            break;
          }
        }
        if (!last_occurrence) continue;
        FuzzOp entry_op;
        entry_op.thread = thread;
        entry_op.kind = FuzzOp::Kind::kPut;
        entry_op.key = batch_buf[e].first;
        entry_op.value = batch_buf[e].second;
        entry_op.invoke = invoke;
        entry_op.response = response;
        recorder.Record(thread, std::move(entry_op));
      }
      continue;
    } else {
      op.kind = FuzzOp::Kind::kScan;
      const std::uint64_t span = 1 + rng.NextBounded(params.max_scan_span);
      op.to_key = std::min<Key>(key + static_cast<Key>(span) - 1,
                                static_cast<Key>(params.keys));
      op.invoke = recorder.Clock().Tick();
      map.Scan(op.key, op.to_key, scan_buf);
      op.response = recorder.Clock().Tick();
      op.scan_result.assign(scan_buf.begin(), scan_buf.end());
    }
    recorder.Record(thread, std::move(op));
  }
}

/// The layout-independent round body: spawn a per-thread Driver over the
/// shared map, run the workers under the schedule, check invariants, then
/// check the recorded history (always in the logical int64 domain).
template <class Driver, class MapT>
void RunRoundOn(MapT& map, Recorder& recorder, const RoundParams& params,
                const Schedule& schedule, RoundResult& result,
                const std::vector<KiWiMap::Entry>& preload) {
  {
    TestHooks::ScopedMutants mutants(params.mutants);
    PerturbationEngine engine(schedule);
    std::vector<std::thread> workers;
    workers.reserve(params.threads);
    for (std::uint32_t t = 0; t < params.threads; ++t) {
      workers.emplace_back([&map, &recorder, &params, t] {
        Driver driver{map};
        Worker(driver, recorder, params, t);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  map.CheckInvariants();

  result.history = std::move(recorder).Merge();
  result.history.initial.assign(preload.begin(), preload.end());
  const CheckResult check = CheckHistory(result.history);
  result.ok = check.ok;
  result.message = check.message;
  if (!result.ok) result.debug_report = map.DebugReport().ToText();
}

}  // namespace

RoundResult RunRound(const RoundParams& params) {
  Schedule schedule =
      Schedule::FromSeed(params.seed).WithActiveMask(params.site_mask);
  for (const RoundParams::SiteOverride& f : params.forced_sites) {
    if (f.site < TestHooks::kSiteCount) schedule.sites[f.site] = f.config;
  }
  RoundResult result;
  result.schedule = schedule.Describe();

  std::vector<KiWiMap::Entry> preload;
  for (std::uint32_t k = 1; k <= params.preload && k <= params.keys; ++k) {
    preload.emplace_back(static_cast<Key>(k), static_cast<Value>(k));
  }

  KiWiConfig config;
  config.chunk_capacity = params.chunk_capacity;
  config.max_engaged_chunks = params.max_engaged_chunks;

  Recorder recorder(params.threads);
  recorder.Reserve(params.ops_per_thread);

  if (params.byte_keys) {
    // A tight arena (keys run ~14-18 bytes + 8-byte values) keeps
    // arena-overflow rebalances firing alongside the cell-count ones.
    config.bytes.arena_bytes_per_cell = 32;
    std::vector<api::KiWiByteMap::Entry> byte_preload;
    byte_preload.reserve(preload.size());
    for (const KiWiMap::Entry& entry : preload) {
      byte_preload.emplace_back(ByteKey(entry.first), ByteValue(entry.second));
    }
    api::KiWiByteMap map(
        std::span<const api::KiWiByteMap::Entry>(byte_preload), config);
    RunRoundOn<ByteDriver>(map, recorder, params, schedule, result, preload);
  } else {
    KiWiMap map(std::span<const KiWiMap::Entry>(preload), config);
    RunRoundOn<Int64Driver>(map, recorder, params, schedule, result, preload);
  }
  return result;
}

namespace {

/// True if `params` fails at least once within `retries` attempts.
bool Refails(const RoundParams& params, std::uint32_t retries,
             std::uint32_t& rounds_spent, std::uint32_t max_rounds) {
  for (std::uint32_t i = 0; i < retries; ++i) {
    if (rounds_spent >= max_rounds) return false;
    ++rounds_spent;
    if (!RunRound(params).ok) return true;
  }
  return false;
}

}  // namespace

MinimizeResult Minimize(const RoundParams& failing, std::uint32_t retries,
                        std::uint32_t max_rounds) {
  MinimizeResult out;
  out.params = failing;
  out.site_mask =
      Schedule::FromSeed(failing.seed).ActiveMask() & failing.site_mask;
  out.params.site_mask = out.site_mask;

  if (!Refails(out.params, retries, out.rounds_spent, max_rounds)) {
    return out;  // reproduced == false
  }
  out.reproduced = true;

  // Greedily drop one active site at a time; keep a drop when the failure
  // still fires without it.
  for (std::size_t i = 0; i < TestHooks::kSiteCount; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    if ((out.site_mask & bit) == 0) continue;
    RoundParams candidate = out.params;
    candidate.site_mask = out.site_mask & ~bit;
    if (Refails(candidate, retries, out.rounds_spent, max_rounds)) {
      out.site_mask = candidate.site_mask;
      out.params.site_mask = out.site_mask;
    }
  }

  // Then shrink the op window while the failure still reproduces.
  while (out.params.ops_per_thread > 8) {
    RoundParams candidate = out.params;
    candidate.ops_per_thread = out.params.ops_per_thread / 2;
    if (!Refails(candidate, retries, out.rounds_spent, max_rounds)) break;
    out.params = candidate;
  }
  return out;
}

std::string ReproLine(const RoundParams& params) {
  std::ostringstream out;
  out << "KIWI_FUZZ_SEED=" << params.seed << " kiwi_fuzz --seed="
      << params.seed << " --threads=" << params.threads << " --ops="
      << params.ops_per_thread << " --keys=" << params.keys
      << " --chunk-capacity=" << params.chunk_capacity
      << " --mix=" << params.put_pct << ":" << params.remove_pct << ":"
      << params.get_pct << " --max-engaged=" << params.max_engaged_chunks;
  if (params.byte_keys) out << " --bytes";
  if (params.batch_pct != 0) {
    out << " --batch-pct=" << params.batch_pct
        << " --batch-max=" << params.max_batch;
  }
  if (params.site_mask != ~std::uint64_t{0}) {
    out << " --site-mask=0x" << std::hex << params.site_mask << std::dec;
  }
  if (params.mutants != 0) {
    out << " --mutant-mask=0x" << std::hex << params.mutants << std::dec;
  }
  for (const RoundParams::SiteOverride& f : params.forced_sites) {
    out << " --force-site=" << f.site << ":" << ActionName(f.config.action)
        << ":" << static_cast<unsigned>(f.config.probability_pct) << ":"
        << f.config.intensity;
  }
  return out.str();
}

std::optional<std::string> DumpFailureArtifacts(const RoundParams& params,
                                                const RoundResult& result,
                                                std::string dir) {
  if (dir.empty()) {
    if (const char* env = std::getenv("KIWI_FUZZ_ARTIFACT_DIR")) dir = env;
  }
  if (dir.empty()) dir = "/tmp/kiwi_fuzz_artifacts";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return std::nullopt;

  std::ostringstream name;
  name << "kiwi_fuzz_seed_0x" << std::hex << params.seed;
  const std::string base = dir + "/" + name.str();

  std::ofstream out(base + ".txt");
  if (!out) return std::nullopt;
  out << "# kiwi_fuzz failure artifact\n"
      << "# repro: " << ReproLine(params) << "\n\n"
      << "violation: " << result.message << "\n"
      << "schedule:  " << result.schedule << "\n\n"
      << "== history ==\n"
      << result.history.Dump() << "\n"
      << "== debug report ==\n"
      << result.debug_report << "\n";
  out.close();

  // Perfetto-compatible trace when tracing is compiled in; best-effort.
#if KIWI_TRACE_ENABLED
  obs::trace::DumpTraceToFile((base + ".trace.json").c_str());
#endif
  return base + ".txt";
}

}  // namespace kiwi::fuzz
