// Round runner, schedule minimizer and failure-artifact writer for the
// linearizability fuzzer (driver binary: src/fuzz/main.cpp; in-test use:
// tests/fuzz_harness_test.cpp).
//
// One *round* = one fresh KiWiMap (small chunks so rebalance fires
// constantly), preloaded keys, N worker threads running a random op mix
// (put/get/remove/scan) under one seeded perturbation schedule, recording a
// full history that CheckHistory() then validates.  Every written value is
// globally unique so the checker's scan cut layer applies.
//
// Replay: RoundParams + seed fully determine the schedule and every
// thread's op stream; KIWI_FUZZ_SEED=<seed> re-runs one seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/checker.h"
#include "fuzz/history.h"
#include "fuzz/schedule.h"

namespace kiwi::fuzz {

struct RoundParams {
  std::uint64_t seed = 1;
  std::uint32_t threads = 4;
  /// Ops per thread.  Keep threads*ops/keys comfortably under the checker's
  /// 63-overlapping-op window cap (see linearizability.h); the defaults
  /// leave a ~2x margin even if one stalled op merges a whole key's history
  /// into a single window.
  std::uint32_t ops_per_thread = 100;
  std::uint32_t keys = 16;
  /// Keys preloaded (bulk constructor) before the round: key i -> unique
  /// value, for i in [0, preload).
  std::uint32_t preload = 8;
  std::uint32_t chunk_capacity = 8;
  /// KiWiConfig::max_engaged_chunks for the round.  The engage-consensus
  /// disagreement window only opens on a *cap* seal (policy-based seals are
  /// arithmetically consistent across helpers), so a low cap over a sparse
  /// merge-heavy keyspace is what exercises the last_engaged consensus.
  std::uint32_t max_engaged_chunks = 8;
  /// Widest scan range drawn (inclusive key span).
  std::uint32_t max_scan_span = 4;
  /// Op mix in percent; the remainder after put+remove+get+batch is the
  /// scan share.  Remove-heavy mixes produce sparse chunks and therefore
  /// chunk *merges* — required to exercise the multi-chunk engage consensus.
  std::uint32_t put_pct = 35;
  std::uint32_t remove_pct = 15;
  std::uint32_t get_pct = 30;
  /// PutBatch share of the mix.  Each batch op draws 1..max_batch keys
  /// (duplicates allowed — the raw batch goes to PutBatch unmodified) and
  /// records every surviving entry (duplicate keys: last occurrence) as an
  /// individual put sharing the batch's invoke/response window, which is
  /// exactly the linearization contract (each entry linearizes on its own
  /// inside the call).  Default 0 keeps legacy seeds' op streams intact;
  /// the kiwi_fuzz driver and CI sweeps opt in via --batch-pct.
  std::uint32_t batch_pct = 0;
  std::uint32_t max_batch = 6;
  /// Run the round over KiWiByteMap instead of the int64 KiWiMap: logical
  /// keys map through an order-preserving byte codec whose keys all share
  /// one 8-byte prefix ("fuzzkey:") plus a fixed-width decimal and a
  /// variable-length suffix, so *every* key comparison falls through the
  /// cell prefix to the arena memcmp — the byte layout's distinctive path.
  /// Values encode as 8-byte big-endian (embedded NULs included).  The
  /// recorded history and the checker stay in the logical int64 domain, so
  /// one checker covers both layouts.
  bool byte_keys = false;
  /// Mutant mask installed for the round (TestHooks::Mutant bits).
  std::uint32_t mutants = 0;
  /// Restrict the seed-derived schedule to these sites (bit i = site i in
  /// TestHooks::AllSites() order); default leaves the schedule as drawn.
  /// The minimizer shrinks failures by clearing bits here.
  std::uint64_t site_mask = ~std::uint64_t{0};
  /// Directed mode: pin these sites to fixed configs after the seed-derived
  /// schedule (and site_mask) are applied.  Used to aim the fuzzer at one
  /// race window whose natural firing rate is too low for a sweep — e.g.
  /// the engage-consensus mutant smoke.  Forced sites are exempt from
  /// minimization (the minimizer only clears site_mask bits).
  struct SiteOverride {
    std::uint32_t site = 0;
    SiteConfig config;
  };
  std::vector<SiteOverride> forced_sites;
};

struct RoundResult {
  bool ok = true;
  std::string message;    // checker message (or assert text) when !ok
  History history;        // recorded history (moved out for artifacts)
  std::string schedule;   // Schedule::Describe() of what ran
  /// Map DebugReport text, captured before teardown when the check failed.
  std::string debug_report;
};

/// Run one seeded round: build the map, perturb, record, check.
RoundResult RunRound(const RoundParams& params);

/// Shrink a failing round: greedily mask schedule sites off, then halve
/// ops_per_thread, re-running each candidate `retries` times (failures are
/// probabilistic — a candidate counts as still-failing if any retry fails).
/// Returns the smallest params that still failed, and how many rounds were
/// spent.
struct MinimizeResult {
  RoundParams params;
  std::uint64_t site_mask;  // minimized active-site mask
  std::uint32_t rounds_spent = 0;
  bool reproduced = false;  // false: original failure never re-fired
};
MinimizeResult Minimize(const RoundParams& failing, std::uint32_t retries,
                        std::uint32_t max_rounds);

/// The one command line that replays `params` exactly: every RoundParams
/// field that shapes the round (seed, workload shape, op mix, batch mix,
/// layout, site mask, mutants, forced sites).  Both the driver's stdout
/// report and the failure artifact header print this line.
std::string ReproLine(const RoundParams& params);

/// Write the failure artifacts for a round into `dir` (created if needed):
/// history dump, map DebugReport text, Perfetto trace (when tracing is
/// compiled in) and a repro line.  Returns the artifact file path written,
/// or nullopt on I/O failure.  `dir` defaults from KIWI_FUZZ_ARTIFACT_DIR,
/// then /tmp.
std::optional<std::string> DumpFailureArtifacts(const RoundParams& params,
                                                const RoundResult& result,
                                                std::string dir = {});

}  // namespace kiwi::fuzz
