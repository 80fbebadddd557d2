// Per-layer metrics of a traced run.
//
// The benchmark measures layers only from outside the library: it reads the
// public counters (DebugReport), the chunk census, the slab-pool and EBR
// diagnostics, and it times calls into each layer's public functions on
// standalone instances shaped like the run's end state (chunk count, fill
// and batched ratio from the census; keys from the workload generator).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/kiwi_map.h"
#include "obs/census.h"

namespace perfbench {

/// What a traced run hands the probes.
template <typename Layout>
struct LayerInputs {
  using OwnedKey = typename Layout::OwnedKey;
  using OwnedValue = typename Layout::OwnedValue;

  kiwi::obs::OpCounters counters;        // warm-up and measured window
  kiwi::obs::DebugReport end_report;     // at quiesce (latency, gauges)
  kiwi::obs::ChunkCensus census;         // at quiesce
  std::uint64_t pool_hits = 0;           // slab-pool deltas over the window
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_class_retries = 0;
  double ebr_pending_bytes = 0;          // mean of per-round samples
  double ebr_epoch_lag = 0;              // mean of per-round samples
  double trace_overhead_share = 0;
  std::uint32_t chunk_capacity = 0;
  std::uint32_t arena_capacity = 0;      // per chunk, 0 for int64
  /// API spans per op kind: median ns per call and per item, span counts.
  double api_ns[kOpKinds] = {};
  double api_ns_per_item[kOpKinds] = {};
  std::uint64_t api_spans[kOpKinds] = {};
  /// Sorted keys of the workload (index min keys and chunk contents are
  /// drawn from them) and a value to store with each probe cell.
  std::vector<OwnedKey> sorted_keys;
  OwnedValue value{};
  std::uint64_t seed = 0;
};

/// Every per-layer metric of the traced run, in table order; metrics the
/// workload does not exercise carry an `na` reason.
template <typename Layout>
std::vector<Metric> LayerMetrics(const LayerInputs<Layout>& in);

extern template std::vector<Metric> LayerMetrics<kiwi::core::Int64Layout>(
    const LayerInputs<kiwi::core::Int64Layout>&);
extern template std::vector<Metric> LayerMetrics<kiwi::core::ByteLayout>(
    const LayerInputs<kiwi::core::ByteLayout>&);

}  // namespace perfbench
