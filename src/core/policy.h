// Rebalance policy (paper §3.3.1, tuning from §6.1).
//
// "The policy will typically choose to rebalance C whenever C is full or
// under-utilized, as well as when its batched prefix becomes too small
// relative to the number of keys in C's linked list.  In order to stagger
// rebalance attempts ... the policy can make probabilistic decisions."
//
// Paper tuning: rebalance with probability 0.15 whenever the batched prefix
// is less than 0.625 of the linked list; engage the next chunk whenever
// doing so reduces the number of chunks in the list.
#pragma once

#include <cstdint>

#include "common/random.h"
#include "core/layout.h"

namespace kiwi::core {

/// User-visible construction parameters of a KiWiMap.
struct KiWiConfig {
  /// Data cells per chunk (paper: 1024).
  std::uint32_t chunk_capacity = 1024;
  /// Probability of triggering rebalance on an unbalanced (but not full)
  /// chunk (paper: 0.15).
  double rebalance_probability = 0.15;
  /// A chunk is "unbalanced" when batched prefix < this fraction of its
  /// allocated cells (paper: 0.625).
  double batched_prefix_min_ratio = 0.625;
  /// New chunks are filled to this fraction of capacity (paper: one half).
  double fill_ratio = 0.5;
  /// A trailing new chunk below this fraction is folded into its
  /// predecessor (paper: one quarter).
  double sparse_ratio = 0.25;
  /// Maximum chunks engaged by one rebalance (bounds the freeze window).
  std::uint32_t max_engaged_chunks = 8;
  /// Insert the triggering put's pair during rebalance (paper §6.1 leaves
  /// this off and restarts the put instead; both paths are implemented).
  /// Does not gate PutBatch's bulk path, which always installs its run
  /// through the rebalance build.
  bool enable_put_piggyback = false;
  /// PutBatch switches from the per-key PPA path to bulk chunk building
  /// (rebalance-carried) once a chunk's covered run reaches this many
  /// entries.  0 = auto: max(4, chunk_capacity / 8).
  std::uint32_t batch_bulk_min_run = 0;
  /// Arena sizing for byte-layout maps (KiWiByteMap); ignored by the
  /// fixed-width int64 map.  See core/layout.h.
  ByteConfig bytes{};
};

/// Stateless policy decisions parameterized by KiWiConfig.  The RNG is the
/// calling thread's (decisions are per-thread probabilistic).
class RebalancePolicy {
 public:
  explicit RebalancePolicy(const KiWiConfig& config) : config_(config) {}

  /// Should checkRebalance trigger on this chunk?  `allocated` counts data
  /// cells handed out (clamped to capacity), `values` the value slots handed
  /// out, `capacity` is the chunk's own (a chunk holding one key's long
  /// version run may exceed the configured one), `batched` the sorted prefix
  /// size.  A byte chunk's arena is the caller's to test.
  bool ShouldTrigger(std::uint32_t allocated, std::uint32_t values,
                     std::uint32_t capacity, std::uint32_t batched,
                     Xoshiro256& rng) const {
    if (allocated >= capacity || values >= capacity) return true;  // full
    if (static_cast<double>(batched) <
        config_.batched_prefix_min_ratio * static_cast<double>(allocated)) {
      return rng.NextBool(config_.rebalance_probability);
    }
    return false;
  }

  /// Should rebalance engage the next chunk?  Engage whenever the projected
  /// number of replacement chunks stays below the engaged count, i.e. the
  /// merge reduces the chunk count (paper §6.1).
  bool ShouldEngageNext(std::uint32_t engaged_chunks,
                        std::uint64_t engaged_cells,
                        std::uint32_t next_cells) const {
    if (engaged_chunks >= config_.max_engaged_chunks) return false;
    const std::uint64_t per_chunk = std::uint64_t(
        config_.fill_ratio * static_cast<double>(config_.chunk_capacity));
    const std::uint64_t total = engaged_cells + next_cells;
    const std::uint64_t projected = (total + per_chunk - 1) / per_chunk;
    return projected <= engaged_chunks;  // engaging yields <= engaged chunks
  }

  /// Minimum chunk-covered run length at which PutBatch bulk-builds
  /// replacement chunks instead of inserting per key (see
  /// KiWiConfig::batch_bulk_min_run).
  std::uint32_t BulkRunThreshold() const {
    if (config_.batch_bulk_min_run != 0) return config_.batch_bulk_min_run;
    const std::uint32_t auto_threshold = config_.chunk_capacity / 8;
    return auto_threshold < 4 ? 4 : auto_threshold;
  }

  const KiWiConfig& config() const { return config_; }

 private:
  KiWiConfig config_;
};

}  // namespace kiwi::core
