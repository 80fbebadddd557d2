// Closed-loop harness of the KiWi benchmark.
//
// Client threads run closed loops (each issues its next call when the last
// returns) until told to stop.  The calling thread samples every worker's
// call and item counters at fixed round boundaries: a warm-up, then the
// measured window of --seconds.  Throughput is reported as the median over
// the measured rounds, which a host that switches between speed regimes
// every few seconds moves far less than a whole-window average.
//
// After every round the clients pause their loops for a short reference
// slice: each chases pointers through the workload's Reference buffer, one
// dependent load per cache line.  The loads per second they reach are the
// host's speed index for this run.  Memory-bound work on this kind of host
// runs at speeds up to 1.45x apart for seconds to minutes at a time, and the
// reference slows down with it, so a metric expressed in reference loads
// repeats far better from run to run than the same metric in seconds.
//
// In a traced run, odd measured rounds are traced: one call in 16
// records a span around the public API call and a child span around the
// benchmark's own result check.  Comparing traced with untraced rounds of
// the same run gives the tracing overhead.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"

namespace perfbench {

/// The host's speed index: one cycle through a fixed number of cache lines
/// in a seeded random order, chased one dependent load per line.  Its size
/// is a constant of the workload, never a figure the library reports, so a
/// change to KiWi cannot change the reference it is measured against.
class Reference {
 public:
  Reference(std::size_t bytes, std::uint64_t seed)
      : lines_(std::max<std::size_t>(bytes / sizeof(Line), 1024)) {
    const std::size_t lines = lines_.size();
    std::vector<std::uint32_t> order(lines);
    for (std::size_t i = 0; i < lines; ++i) order[i] = static_cast<std::uint32_t>(i);
    kiwi::Xoshiro256 rng(seed);
    for (std::size_t i = lines - 1; i > 0; --i) {  // Sattolo: a single cycle
      std::swap(order[i], order[rng.NextBounded(i)]);
    }
    for (std::size_t i = 0; i < lines; ++i) {
      lines_[order[i]].next = order[(i + 1) % lines];
    }
  }

  std::size_t Lines() const { return lines_.size(); }

  /// Chase 64 loads from `pos`; returns where the chase stopped.
  std::uint32_t Chase64(std::uint32_t pos) const {
    for (int i = 0; i < 64; ++i) pos = lines_[pos].next;
    return pos;
  }

 private:
  struct alignas(64) Line {
    std::uint32_t next = 0;
  };
  std::vector<Line> lines_;
};

class Harness {
 public:
  static constexpr std::uint64_t kRoundMs = 100;
  static constexpr std::uint64_t kReferenceMs = 15;
  static constexpr int kWarmupRounds = 10;
  static constexpr unsigned kSpanShift = 4;  // one call in 16 is traced
  static constexpr std::size_t kMaxSpansPerWorker = 1 << 18;

  struct Round {
    double seconds = 0;
    bool traced = false;
    std::array<std::uint64_t, kOpKinds> calls{};
    std::array<std::uint64_t, kOpKinds> items{};
  };

  Harness(double seconds, bool trace, const Reference& reference)
      : seconds_(seconds), trace_(trace), ref_(reference) {}

  /// Loop condition of every client: false once the run is over.  During a
  /// reference slice it runs the pointer chase first.
  bool Continue(Worker& w) {
    if (reference_.load(std::memory_order_relaxed)) Chase(w);
    return !stop_.load(std::memory_order_relaxed);
  }

  /// Time one client call.  `call` returns the number of items it handled
  /// (keys yielded by a scan, entries of a batch, 1 otherwise); `check`
  /// verifies its result.  Latency is recorded only in the measured window.
  template <typename Call, typename Check>
  void Op(Worker& w, OpKind kind, Call&& call, Check&& check) {
    const std::uint64_t t0 = NowNs();
    const std::uint64_t items = call();
    const std::uint64_t t1 = NowNs();
    w.Count(kind, items);
    if (measuring_.load(std::memory_order_relaxed)) {
      w.latency[kind].Record(t1 - t0);
    }
    // Sample by the top bits of a multiplicative hash of the op count, so a
    // periodic op mix (one scan per 16 queries) cannot alias the sampling.
    const bool span =
        traced_.load(std::memory_order_relaxed) &&
        ((++w.next_op_id * 0x9E3779B97F4A7C15ull) >> (64 - kSpanShift)) == 0 &&
        w.spans.size() + 2 <= kMaxSpansPerWorker;
    const std::uint64_t t2 = span ? NowNs() : 0;
    check();
    if (span) {
      const std::uint64_t id =
          (static_cast<std::uint64_t>(w.index) << 48) | w.next_op_id;
      w.spans.push_back(
          Span{id, 0, w.index, static_cast<std::uint32_t>(kind), t0, t1, items});
      w.spans.push_back(Span{id, id, w.index,
                             static_cast<std::uint32_t>(kOpKinds), t2, NowNs(),
                             items});
    }
  }

  /// Start one thread per loop, run warm-up and measured rounds, stop and
  /// join.  `sample` runs on the calling thread once per measured round.
  void Run(const std::vector<std::function<void(Worker&)>>& loops,
           const std::function<void()>& on_measure_start,
           const std::function<void()>& sample) {
    workers_.clear();
    for (std::size_t i = 0; i < loops.size(); ++i) {
      workers_.push_back(std::make_unique<Worker>());
      workers_.back()->index = static_cast<std::uint32_t>(i);
      workers_.back()->spans.reserve(trace_ ? kMaxSpansPerWorker : 0);
      workers_.back()->ref_pos =
          static_cast<std::uint32_t>(i * ref_.Lines() / loops.size());
    }
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      threads.emplace_back([this, i, &loops] { loops[i](*workers_[i]); });
    }
    // The measured window, reference slices included, lasts `seconds_`.
    const int measured = static_cast<int>(
        seconds_ * 1000.0 / static_cast<double>(kRoundMs + kReferenceMs) + 0.5);
    auto last = Clock::now();
    std::array<std::uint64_t, kOpKinds> last_calls{}, last_items{};
    for (int r = 0; r < kWarmupRounds + measured; ++r) {
      if (r == kWarmupRounds) {
        on_measure_start();
        measuring_.store(true, std::memory_order_relaxed);
      }
      const bool traced = trace_ && r >= kWarmupRounds && r % 2 == 1;
      traced_.store(traced, std::memory_order_relaxed);
      std::this_thread::sleep_until(last + std::chrono::milliseconds(kRoundMs));
      const auto now = Clock::now();
      Round round;
      round.seconds = std::chrono::duration<double>(now - last).count();
      round.traced = traced;
      for (std::size_t k = 0; k < kOpKinds; ++k) {
        std::uint64_t calls = 0, items = 0;
        for (const auto& w : workers_) {
          calls += w->calls[k].load(std::memory_order_relaxed);
          items += w->items[k].load(std::memory_order_relaxed);
        }
        round.calls[k] = calls - last_calls[k];
        round.items[k] = items - last_items[k];
        last_calls[k] = calls;
        last_items[k] = items;
      }
      if (r >= kWarmupRounds) {
        rounds_.push_back(round);
        sample();
      }
      reference_.store(true, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(kReferenceMs));
      reference_.store(false, std::memory_order_relaxed);
      last = Clock::now();
    }
    measuring_.store(false, std::memory_order_relaxed);
    traced_.store(false, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();
  }

  const std::vector<Round>& Rounds() const { return rounds_; }
  const std::vector<std::unique_ptr<Worker>>& Workers() const {
    return workers_;
  }

  /// The host's speed index: reference loads per second of one client
  /// thread, averaged over clients, over the measured window.
  double ReferenceLoadsPerSecond() const {
    double sum = 0;
    for (const auto& w : workers_) {
      sum += static_cast<double>(w->ref_loads) * 1e9 /
             static_cast<double>(std::max<std::uint64_t>(w->ref_ns, 1));
    }
    return sum / static_cast<double>(std::max<std::size_t>(workers_.size(), 1));
  }
  std::size_t Clients() const { return workers_.size(); }

  /// Median over measured rounds of (items or calls of `kind`) per second;
  /// `traced` selects traced or untraced rounds (both when unset).
  double RatePerSecond(OpKind kind, bool items, int traced = -1) const {
    std::vector<double> rates;
    for (const Round& r : rounds_) {
      if (traced >= 0 && r.traced != (traced == 1)) continue;
      const double n = static_cast<double>(items ? r.items[kind] : r.calls[kind]);
      rates.push_back(n / r.seconds);
    }
    return Median(rates);
  }

  /// Latency of `kind` merged over workers.
  LatencyHist Latency(OpKind kind) const {
    LatencyHist merged;
    for (const auto& w : workers_) merged.Merge(w->latency[kind]);
    return merged;
  }

  /// Client calls issued over the whole run, warm-up included.
  std::uint64_t TotalCalls() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) {
      for (const auto& c : w->calls) total += c.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  void Chase(Worker& w) {
    const std::uint64_t t0 = NowNs();
    std::uint32_t pos = w.ref_pos;
    std::uint64_t loads = 0;
    while (reference_.load(std::memory_order_relaxed)) {
      pos = ref_.Chase64(pos);
      loads += 64;
    }
    if (measuring_.load(std::memory_order_relaxed)) {
      w.ref_loads += loads;
      w.ref_ns += NowNs() - t0;
    }
    w.ref_pos = pos;
  }

  const double seconds_;
  const bool trace_;
  std::atomic<bool> measuring_{false};
  std::atomic<bool> traced_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> reference_{false};
  const Reference& ref_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Round> rounds_;
};

}  // namespace perfbench
