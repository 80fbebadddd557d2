// Test-only failure injection points and mutant switches.
//
// Concurrency races the paper reasons about (a put stalling between
// publishing in the PPA and acquiring a version; a rebalancer stalling
// between freeze and build; a helper stalling before the splice) have
// windows of a few instructions — too narrow for a scheduler to hit
// reliably.  Tests widen them by installing a hook (typically a yield or a
// short sleep) at the exact point.  Default is a single relaxed load per
// site: negligible next to the adjacent fenced atomics.
//
// The schedule fuzzer (src/fuzz/schedule.h) drives every site at once with
// seeded random perturbations; AllSites() enumerates them so the fuzzer and
// its minimizer need no per-site knowledge.
//
// Mutants re-break fixed bugs on demand (see docs/TESTING.md): each bit of
// `mutants` re-introduces one historical or paper-derived defect so the
// linearizability fuzzer can prove it still has teeth.  The check is one
// relaxed load on the affected path, zero when the mask is never set.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace kiwi {

struct TestHooks {
  using Hook = void (*)();

  /// Put published its cell in the PPA but has not yet CASed a version —
  /// the window scans/gets must help across (paper Figure 2).
  static std::atomic<Hook> put_before_version_cas;

  /// Rebalance froze the engaged chunks but has not yet built replacements —
  /// puts landing here must restart, reads must still be served.
  static std::atomic<Hook> rebalance_after_freeze;

  /// Replacement section agreed but not yet spliced — the longest window in
  /// which old and new chunks coexist.
  static std::atomic<Hook> replace_before_splice;

  /// Scan published its pending PSA entry but has not yet fetched/installed
  /// its version — the window rebalance must help across (paper lines
  /// 91-95); a stall here forces helpers to install the scan's read point.
  static std::atomic<Hook> scan_before_version_install;

  /// Get finished helping pending puts but has not yet read — a version
  /// installed (by us or a racing helper) must be visible to this read and
  /// to every later read (paper Figure 2's get/scan ordering).
  static std::atomic<Hook> get_after_help;

  /// Rebalance spliced the replacement section but has not yet fixed the
  /// index — lookups served from the lazy index race the update (stage 6).
  static std::atomic<Hook> rebalance_before_index_update;

  /// Inside the engage loop, between observing ro->next and attempting the
  /// engagement CAS — the window in which competing helpers observe
  /// different engaged-run lengths (what the last_engaged consensus,
  /// DESIGN.md deviation 9, exists to reconcile).
  static std::atomic<Hook> rebalance_during_engage;

  /// An object (chunk, rebalance object) is about to be handed to EBR —
  /// readers holding guards may still traverse it; widening this window
  /// stresses grace-period correctness and the slab-recycling pool.
  static std::atomic<Hook> ebr_before_retire;

  /// A PutBatch per-op run linked one entry but has not yet cleared its PPA
  /// slot for the next — a chunk frozen here skipped the (versioned) slot,
  /// so the run must see the freeze before it reuses the slot.
  static std::atomic<Hook> put_run_after_link;

  static void Run(const std::atomic<Hook>& site) {
    if (Hook hook = site.load(std::memory_order_relaxed)) hook();
  }

  /// Enumerable site table for the schedule fuzzer: index here is the
  /// site's stable id in schedules, minimized repros and docs (the
  /// hook-site map in docs/TESTING.md mirrors this order).
  struct Site {
    const char* name;
    std::atomic<Hook>* site;
  };
  static constexpr std::size_t kSiteCount = 9;
  static const std::array<Site, kSiteCount>& AllSites() {
    static const std::array<Site, kSiteCount> sites = {{
        {"put_before_version_cas", &put_before_version_cas},
        {"rebalance_after_freeze", &rebalance_after_freeze},
        {"replace_before_splice", &replace_before_splice},
        {"scan_before_version_install", &scan_before_version_install},
        {"get_after_help", &get_after_help},
        {"rebalance_before_index_update", &rebalance_before_index_update},
        {"rebalance_during_engage", &rebalance_during_engage},
        {"ebr_before_retire", &ebr_before_retire},
        {"put_run_after_link", &put_run_after_link},
    }};
    return sites;
  }

  // ---- mutants ---------------------------------------------------------

  /// Deliberately re-broken behaviours, one bit each.  See docs/TESTING.md
  /// for what each one reverts and which fuzz seed pins its detection.
  enum Mutant : std::uint32_t {
    /// Revert the PR1 `ro->last_engaged` consensus: every rebalance helper
    /// acts on its own view of the engaged run (the seed tree's latent
    /// double-retire race).
    kLastEngagedRace = 1u << 0,
    /// Scan takes a read point without publishing a pending PSA entry, so
    /// rebalance cannot see (or help) it — compaction may drop versions the
    /// scan still needs (the Enhancing-KiWi scan-publication ordering bug
    /// class).
    kSkipScanPublish = 1u << 1,
    /// Get skips helping pending puts before reading (paper Figure 2's
    /// required get-side helping).
    kSkipGetHelp = 1u << 2,
    /// Rebalance compaction drops a tombstone and everything older
    /// unconditionally — the paper's literal pseudocode, reverting DESIGN.md
    /// deviation 1 (can lose a value a pending scan still needs).
    kEagerTombstonePurge = 1u << 3,
  };

  static std::atomic<std::uint32_t> mutants;

  static bool MutantEnabled(Mutant m) {
    return (mutants.load(std::memory_order_relaxed) & m) != 0;
  }

  /// RAII installer for one site.
  class Scoped {
   public:
    Scoped(std::atomic<Hook>& site, Hook hook) : site_(site) {
      site_.store(hook, std::memory_order_relaxed);
    }
    ~Scoped() { site_.store(nullptr, std::memory_order_relaxed); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    std::atomic<Hook>& site_;
  };

  /// RAII installer for a mutant mask (replaces the whole mask; nesting
  /// scopes would be a test bug, so the previous mask is asserted clear by
  /// restore-to-zero semantics).
  class ScopedMutants {
   public:
    explicit ScopedMutants(std::uint32_t mask) {
      mutants.store(mask, std::memory_order_relaxed);
    }
    ~ScopedMutants() { mutants.store(0, std::memory_order_relaxed); }
    ScopedMutants(const ScopedMutants&) = delete;
    ScopedMutants& operator=(const ScopedMutants&) = delete;
  };
};

inline std::atomic<TestHooks::Hook> TestHooks::put_before_version_cas{nullptr};
inline std::atomic<TestHooks::Hook> TestHooks::rebalance_after_freeze{nullptr};
inline std::atomic<TestHooks::Hook> TestHooks::replace_before_splice{nullptr};
inline std::atomic<TestHooks::Hook> TestHooks::scan_before_version_install{
    nullptr};
inline std::atomic<TestHooks::Hook> TestHooks::get_after_help{nullptr};
inline std::atomic<TestHooks::Hook> TestHooks::rebalance_before_index_update{
    nullptr};
inline std::atomic<TestHooks::Hook> TestHooks::rebalance_during_engage{
    nullptr};
inline std::atomic<TestHooks::Hook> TestHooks::ebr_before_retire{nullptr};
inline std::atomic<TestHooks::Hook> TestHooks::put_run_after_link{nullptr};
inline std::atomic<std::uint32_t> TestHooks::mutants{0};

}  // namespace kiwi
