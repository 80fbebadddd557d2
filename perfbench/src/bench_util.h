// Shared plumbing of the KiWi benchmark: clocks, a fine log-linear latency
// histogram, per-worker counters that a sampling thread reads at round
// boundaries, metric records, and small statistics helpers.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Median of `values` (0 for an empty vector).  Takes a copy on purpose.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Latency histogram with 128 linear sub-buckets per power of two (bucket
/// width under 0.8% of the value), so percentiles do not jump between
/// coarse buckets from run to run.  One writer; merged after the run.
class LatencyHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = 64 * kSub;

  LatencyHist() : counts_(kBuckets, 0) {}

  void Record(std::uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
  }

  void Merge(const LatencyHist& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t Count() const { return count_; }

  /// Value at quantile q in [0, 1], interpolated inside its bucket.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    const double target = q * static_cast<double>(count_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(seen + counts_[i]) > target) {
        const double frac =
            (target - static_cast<double>(seen) + 0.5) /
            static_cast<double>(counts_[i]);
        return Lower(i) + frac * (Lower(i + 1) - Lower(i));
      }
      seen += counts_[i];
    }
    return Lower(kBuckets - 1);
  }

 private:
  static std::size_t Index(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const int msb = 63 - __builtin_clzll(ns);
    const std::size_t sub = (ns >> (msb - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(msb - kSubBits + 1) * kSub + sub;
  }
  static double Lower(std::size_t index) {
    if (index < kSub) return static_cast<double>(index);
    const std::size_t octave = index / kSub + kSubBits - 1;
    const std::size_t sub = index % kSub;
    return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(octave) - kSubBits);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// The operation kinds a workload issues.  kPut covers Put and Remove.
enum OpKind : std::size_t { kGet = 0, kPut, kScan, kBatch, kOpKinds };

inline const char* OpName(std::size_t kind) {
  static const char* kNames[kOpKinds] = {"get", "put", "scan", "batch"};
  return kNames[kind];
}

/// One sampled client call, recorded only in traced rounds.  Spans of one
/// operation share `op_id`; `parent` is 0 for the API call itself.
struct Span {
  std::uint64_t op_id;
  std::uint64_t parent;
  std::uint32_t thread;
  std::uint32_t kind;  // OpKind, or kOpKinds for the result check
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t items;
};

/// Per-worker state.  `calls` and `items` are written by the worker only
/// and read (relaxed) by the round sampler; everything else is read after
/// the worker has been joined.
struct alignas(kiwi::kCacheLineSize) Worker {
  std::array<std::atomic<std::uint64_t>, kOpKinds> calls{};
  std::array<std::atomic<std::uint64_t>, kOpKinds> items{};
  std::array<LatencyHist, kOpKinds> latency;
  std::uint64_t errors = 0;
  std::vector<std::string> error_log;
  std::vector<Span> spans;
  std::uint64_t next_op_id = 0;
  std::uint32_t index = 0;
  std::uint32_t ref_pos = 0;     // reference chase position
  std::uint64_t ref_loads = 0;   // reference loads in the measured window
  std::uint64_t ref_ns = 0;      // and the time they took

  void Count(std::size_t kind, std::uint64_t n_items) {
    calls[kind].store(calls[kind].load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    items[kind].store(items[kind].load(std::memory_order_relaxed) + n_items,
                      std::memory_order_relaxed);
  }

  void Fail(std::string what) {
    ++errors;
    if (error_log.size() < 8) error_log.push_back(std::move(what));
  }
};

/// A named measurement.  `na` non-empty means the workload does not
/// exercise it; the value is then meaningless and printed as "n/a: <na>".
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string samples;  // human-readable sample count, e.g. "n=81 rounds"
  std::string na;
};

}  // namespace perfbench
