// Output verifier of the KiWi benchmark.
//
// Every value a workload writes encodes its key and the writer's sequence
// number, so a read can be checked on its own: a value must carry the tag of
// the key it was read under.  Writers own disjoint key partitions, so each
// writer's ledger (the last value it wrote per key) defines the exact end
// state, which the quiesce check compares against a full scan.
//
// Scans of the int64 churn workload get a stronger check, the cut check:
// KeyHistory keeps each key's two most recent writes (recorded before the
// write is issued).  For each writer w, let M be the largest sequence number
// of w the scan returned.  An atomic scan is a cut that includes every write
// of w up to M and possibly some later removes, so for every key of w in the
// scanned range the scan must show the key's state as of M, or an absence
// explained by a later remove.  A stale value, a value where the state at M
// is absent, or a missing key that no later remove explains is a torn scan.
// Keys whose recent history was overwritten twice after M are skipped, so
// the check has no false positives.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/config.h"

namespace perfbench {

using kiwi::Key;
using kiwi::Value;

// ---- int64 values: key in the high 32 bits, sequence number in the low ----

inline Value EncodeValue(Key key, std::uint32_t seq) {
  return static_cast<Value>((static_cast<std::uint64_t>(key) << 32) | seq);
}
inline Key ValueKey(Value value) {
  return static_cast<Key>(static_cast<std::uint64_t>(value) >> 32);
}
inline std::uint32_t ValueSeq(Value value) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(value));
}

inline std::string Describe(const char* what, Key key, Value value) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s: key %lld value tag %lld seq %u",
                what, static_cast<long long>(key),
                static_cast<long long>(ValueKey(value)), ValueSeq(value));
  return buffer;
}

/// Online checks of one int64 scan result: strictly ascending keys, all
/// inside [from, to], each value tagged with its key.  Returns the number
/// of violations; `first` receives a description of the first one.
inline std::size_t CheckScanShape(Key from, Key to,
                                  const std::vector<std::pair<Key, Value>>& out,
                                  std::string* first) {
  std::size_t bad = 0;
  auto fail = [&](const char* what, Key key, Value value) {
    if (bad++ == 0 && first != nullptr) *first = Describe(what, key, value);
  };
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto& [key, value] = out[i];
    if (key < from || key > to) fail("scan key outside its bounds", key, value);
    if (i > 0 && key <= out[i - 1].first) {
      fail("scan keys not strictly ascending", key, value);
    }
    if (ValueKey(value) != key) fail("scan value tag mismatch", key, value);
  }
  return bad;
}

/// The two most recent writes per key of a dense key range [0, keys), each
/// packed as (seq << 1 | present) into one atomic word.  The owning writer
/// records a write before issuing it; any thread may read.
class KeyHistory {
 public:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  explicit KeyHistory(std::size_t keys) : slots_(2 * keys) {
    for (auto& slot : slots_) slot.store(kEmpty, std::memory_order_relaxed);
  }

  /// Initial state (sequence number 0), before any writer starts.
  void Init(Key key, bool present) {
    slots_[2 * key].store(Pack(0, present), std::memory_order_relaxed);
  }

  /// Writer side: remember write `seq` of `key` (seq >= 1, ascending per
  /// key), overwriting the older of the two records.
  void Record(Key key, std::uint32_t seq, bool present) {
    std::atomic<std::uint32_t>* pair = &slots_[2 * key];
    const std::uint32_t a = pair[0].load(std::memory_order_relaxed);
    const std::uint32_t b = pair[1].load(std::memory_order_relaxed);
    // Fill an empty slot first, else overwrite the older record.
    const int victim = b == kEmpty ? 1 : (a == kEmpty || a < b ? 0 : 1);
    pair[victim].store(Pack(seq, present), std::memory_order_release);
  }

  enum class Expect { kPresent, kAbsent, kUnknown };

  /// State of `key` as of writer sequence number `cut`: kPresent (with
  /// *seq), kAbsent (with *remove_after when a later remove is recorded), or
  /// kUnknown when both records are newer than `cut`.
  Expect StateAt(Key key, std::uint32_t cut, std::uint32_t* seq,
                 bool* remove_after) const {
    const std::uint32_t a = slots_[2 * key].load(std::memory_order_acquire);
    const std::uint32_t b = slots_[2 * key + 1].load(std::memory_order_acquire);
    std::uint32_t at_cut = kEmpty;
    *remove_after = false;
    for (std::uint32_t rec : {a, b}) {
      if (rec == kEmpty) continue;
      if ((rec >> 1) <= cut) {
        if (at_cut == kEmpty || (rec >> 1) > (at_cut >> 1)) at_cut = rec;
      } else if ((rec & 1) == 0) {
        *remove_after = true;
      }
    }
    if (at_cut == kEmpty) return Expect::kUnknown;
    *seq = at_cut >> 1;
    return (at_cut & 1) != 0 ? Expect::kPresent : Expect::kAbsent;
  }

  /// Newest recorded state (quiesce only).
  bool LatestPresent(Key key, std::uint32_t* seq) const {
    const std::uint32_t a = slots_[2 * key].load(std::memory_order_acquire);
    const std::uint32_t b = slots_[2 * key + 1].load(std::memory_order_acquire);
    const std::uint32_t rec = b == kEmpty || (a != kEmpty && a > b) ? a : b;
    *seq = rec >> 1;
    return (rec & 1) != 0;
  }

 private:
  static std::uint32_t Pack(std::uint32_t seq, bool present) {
    return (seq << 1) | (present ? 1u : 0u);
  }

  std::vector<std::atomic<std::uint32_t>> slots_;
};

/// The cut check described at the top of this file, for a scan of
/// [from, to] whose keys are owned by writer `key % writers`.  `out` must
/// already have passed CheckScanShape.  Returns the number of violations.
inline std::size_t CheckScanCut(Key from, Key to,
                                const std::vector<std::pair<Key, Value>>& out,
                                const KeyHistory& history, unsigned writers,
                                std::string* first) {
  std::vector<std::uint32_t> cut(writers, 0);
  for (const auto& [key, value] : out) {
    std::uint32_t& c = cut[static_cast<std::size_t>(key) % writers];
    if (ValueSeq(value) > c) c = ValueSeq(value);
  }
  std::size_t bad = 0;
  auto fail = [&](const char* what, Key key) {
    if (bad++ == 0 && first != nullptr) {
      char buffer[128];
      std::snprintf(buffer, sizeof(buffer), "torn scan [%lld, %lld]: %s at key %lld",
                    static_cast<long long>(from), static_cast<long long>(to),
                    what, static_cast<long long>(key));
      *first = buffer;
    }
  };
  std::size_t i = 0;
  for (Key key = from; key <= to; ++key) {
    const bool seen = i < out.size() && out[i].first == key;
    const std::uint32_t seen_seq = seen ? ValueSeq(out[i].second) : 0;
    if (seen) ++i;
    std::uint32_t seq = 0;
    bool remove_after = false;
    switch (history.StateAt(key, cut[static_cast<std::size_t>(key) % writers],
                            &seq, &remove_after)) {
      case KeyHistory::Expect::kUnknown:
        break;
      case KeyHistory::Expect::kPresent:
        if (seen && seen_seq != seq) fail("stale or future value", key);
        if (!seen && !remove_after) fail("key missing", key);
        break;
      case KeyHistory::Expect::kAbsent:
        if (seen) fail("value of a removed key", key);
        break;
    }
  }
  return bad;
}

/// Online check of one int64 Get by a writer of the workload.  A hit must
/// carry the key's tag.  For a key the caller owns, the result must be
/// exactly the caller's last write to it (read-your-writes).  For other keys
/// of a workload that never removes (`never_removed`), presence must match
/// the ledger.  Returns nullptr when the result passes, else the reason.
inline const char* CheckGet(Key key, const std::optional<Value>& got,
                            const KeyHistory& ledger, bool own,
                            bool never_removed) {
  if (got && ValueKey(*got) != key) return "get returned another key's value";
  std::uint32_t seq = 0;
  const bool present = ledger.LatestPresent(key, &seq);
  if (own && (got.has_value() != present || (got && ValueSeq(*got) != seq))) {
    return "get lost this thread's own write";
  }
  if (!own && never_removed && got.has_value() != present) {
    return present ? "get missed a present key" : "get found a never-written key";
  }
  return nullptr;
}

/// Quiesce check: the map's full contents `state` (ascending pairs, as a
/// full scan returns them) against the newest ledger record of every key in
/// [lo, hi].  Returns the number of keys that differ: missing, unexpected,
/// or holding another value than the last write.
inline std::uint64_t CountLedgerMismatches(
    const std::vector<std::pair<Key, Value>>& state, Key lo, Key hi,
    const KeyHistory& ledger) {
  std::uint64_t bad = 0;
  std::size_t i = 0;
  for (Key key = lo; key <= hi; ++key) {
    std::uint32_t seq = 0;
    const bool expected = ledger.LatestPresent(key, &seq);
    const bool seen = i < state.size() && state[i].first == key;
    if (seen != expected || (seen && state[i].second != EncodeValue(key, seq))) ++bad;
    if (seen) ++i;
  }
  return bad + (state.size() - i);  // keys outside [lo, hi] or out of order
}

// ---- byte values: 16 hex digits of the key hash, 10 decimal digits of the
// ---- sequence number, then deterministic filler up to the chosen length --

inline std::uint64_t HashKey(std::string_view key) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : key) h = (h ^ c) * 1099511628211ull;
  return h;
}

inline constexpr std::size_t kByteSeqOffset = 16;
inline constexpr std::size_t kByteSeqDigits = 10;

inline std::string MakeByteValue(std::string_view key, std::uint32_t seq,
                                 std::size_t length) {
  char head[32];
  std::snprintf(head, sizeof(head), "%016llx%010u",
                static_cast<unsigned long long>(HashKey(key)), seq);
  std::string value(head, kByteSeqOffset + kByteSeqDigits);
  for (std::size_t i = value.size(); i < length; ++i) {
    value.push_back(static_cast<char>('a' + (i * 7 + key.size()) % 26));
  }
  return value;
}

/// Rewrite the sequence number of a value made by MakeByteValue in place.
inline void SetByteValueSeq(std::string& value, std::uint32_t seq) {
  for (std::size_t i = 0; i < kByteSeqDigits; ++i) {
    value[kByteSeqOffset + kByteSeqDigits - 1 - i] =
        static_cast<char>('0' + seq % 10);
    seq /= 10;
  }
}

/// True when `value` carries the tag of `key`; *seq receives its sequence
/// number.
inline bool ByteValueMatches(std::string_view key, std::string_view value,
                             std::uint32_t* seq) {
  if (value.size() < kByteSeqOffset + kByteSeqDigits) return false;
  const std::uint64_t hash = HashKey(key);
  for (std::size_t i = 0; i < kByteSeqOffset; ++i) {
    const unsigned nibble = (hash >> (60 - 4 * i)) & 0xf;
    if (value[i] != "0123456789abcdef"[nibble]) return false;
  }
  std::uint64_t parsed = 0;
  for (std::size_t i = 0; i < kByteSeqDigits; ++i) {
    const char c = value[kByteSeqOffset + i];
    if (c < '0' || c > '9') return false;
    parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = static_cast<std::uint32_t>(parsed);
  return true;
}

}  // namespace perfbench
