// Teeth test of the benchmark's output verifier: results read from a real
// KiWiMap pass every check, and each injected fault — a wrong value, an
// out-of-order or out-of-bounds scan, a torn scan, a dropped key — is
// flagged, so it would raise the benchmark's error_rate.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/byte_map.h"
#include "core/kiwi_map.h"
#include "verifier.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using perfbench::CheckGet;
using perfbench::CheckScanCut;
using perfbench::CheckScanShape;
using perfbench::CountLedgerMismatches;
using perfbench::EncodeValue;
using perfbench::KeyHistory;
using kiwi::Key;
using kiwi::Value;
using Pairs = std::vector<std::pair<Key, Value>>;

constexpr Key kKeys = 64;
constexpr unsigned kWriters = 2;  // writer of key k is k % 2

/// A map over [1, kKeys] whose writes go through the ledger first, as the
/// benchmark's writers do.
struct Fixture {
  kiwi::core::KiWiMap map;
  KeyHistory ledger{kKeys + 1};
  std::uint32_t seq[kWriters] = {0, 0};

  Fixture() {
    for (Key k = 0; k <= kKeys; ++k) ledger.Init(k, false);
    for (Key k = 1; k <= kKeys; k += 3) Put(k);
  }
  void Put(Key key) {
    const std::uint32_t s = ++seq[key % kWriters];
    ledger.Record(key, s, true);
    map.Put(key, EncodeValue(key, s));
  }
  void Remove(Key key) {
    ledger.Record(key, ++seq[key % kWriters], false);
    map.Remove(key);
  }
  Pairs Scan(Key from, Key to) {
    Pairs out;
    map.Scan(from, to, out);
    return out;
  }
  std::size_t ScanErrors(Key from, Key to, const Pairs& out) {
    std::string first;
    const std::size_t shape = CheckScanShape(from, to, out, &first);
    return shape > 0 ? shape : CheckScanCut(from, to, out, ledger, kWriters, &first);
  }
};

void CleanResultsPass() {
  Fixture f;
  for (Key k = 2; k <= kKeys; k += 5) f.Put(k);
  for (Key k = 1; k <= kKeys; k += 7) f.Remove(k);
  EXPECT(f.ScanErrors(1, kKeys, f.Scan(1, kKeys)) == 0);
  EXPECT(f.ScanErrors(10, 20, f.Scan(10, 20)) == 0);
  for (Key k = 1; k <= kKeys; ++k) {
    EXPECT(CheckGet(k, f.map.Get(k), f.ledger, true, false) == nullptr);
  }
  EXPECT(CountLedgerMismatches(f.Scan(1, kKeys), 1, kKeys, f.ledger) == 0);
}

void WrongValueIsFlagged() {
  Fixture f;
  std::optional<Value> got = f.map.Get(4);
  EXPECT(got && CheckGet(4, got, f.ledger, true, false) == nullptr);
  // Another key's value, and this key's value with a stale sequence number.
  EXPECT(CheckGet(4, EncodeValue(7, 1), f.ledger, true, false) != nullptr);
  f.Put(4);
  EXPECT(CheckGet(4, got, f.ledger, true, false) != nullptr);
  // A hit on a key that was never written, seen by a non-owner.
  EXPECT(CheckGet(2, EncodeValue(2, 0), f.ledger, false, true) != nullptr);

  Pairs out = f.Scan(1, kKeys);
  out[3].second = EncodeValue(out[3].first + 1, 1);
  EXPECT(f.ScanErrors(1, kKeys, out) > 0);
}

void OutOfOrderOrOutOfBoundsScanIsFlagged() {
  Fixture f;
  Pairs out = f.Scan(1, kKeys);
  std::swap(out[2], out[3]);
  EXPECT(f.ScanErrors(1, kKeys, out) > 0);

  out = f.Scan(10, 30);
  out.emplace_back(31, EncodeValue(31, 0));
  EXPECT(f.ScanErrors(10, 30, out) > 0);
}

void TornScanIsFlagged() {
  Fixture f;
  const Pairs before = f.Scan(1, kKeys);
  // Writer 0 writes key 10, then key 40.  A scan that shows the new 40 but
  // the old 10 is not a cut of writer 0's history.
  f.Put(10);
  f.Put(40);
  Pairs after = f.Scan(1, kKeys);
  EXPECT(f.ScanErrors(1, kKeys, after) == 0);
  for (auto& pair : after) {
    if (pair.first != 10) continue;
    for (const auto& old : before) {
      if (old.first == 10) pair.second = old.second;
    }
  }
  EXPECT(f.ScanErrors(1, kKeys, after) > 0);
}

void DroppedKeyIsFlagged() {
  Fixture f;
  Pairs out = f.Scan(1, kKeys);
  out.erase(out.begin() + 5);
  EXPECT(f.ScanErrors(1, kKeys, out) > 0);
  EXPECT(CountLedgerMismatches(out, 1, kKeys, f.ledger) > 0);

  // A key lost by the map behind the ledger's back fails the quiesce check.
  f.map.Remove(7);
  EXPECT(CountLedgerMismatches(f.Scan(1, kKeys), 1, kKeys, f.ledger) == 1);
  EXPECT(CheckGet(7, f.map.Get(7), f.ledger, true, false) != nullptr);
}

void ByteValueTagsAreChecked() {
  kiwi::api::KiWiByteMap map;
  const std::string key = "tenant:0001/sensor:42/ts:1700000000";
  std::string value = perfbench::MakeByteValue(key, 0, 64);
  perfbench::SetByteValueSeq(value, 1234);
  map.Put(key, value);
  std::uint32_t seq = 0;
  EXPECT(perfbench::ByteValueMatches(key, *map.Get(key), &seq) && seq == 1234);
  EXPECT(*map.Get(key) == perfbench::MakeByteValue(key, 1234, 64));
  EXPECT(!perfbench::ByteValueMatches("tenant:0001/sensor:42/ts:1700000001",
                                      *map.Get(key), &seq));
  std::string corrupt = *map.Get(key);
  corrupt[3] = corrupt[3] == 'a' ? 'b' : 'a';
  EXPECT(!perfbench::ByteValueMatches(key, corrupt, &seq));
}

}  // namespace

int main() {
  CleanResultsPass();
  WrongValueIsFlagged();
  OutOfOrderOrOutOfBoundsScanIsFlagged();
  TornScanIsFlagged();
  DroppedKeyIsFlagged();
  ByteValueTagsAreChecked();
  std::printf("perfbench verifier teeth test: %s (%d failed checks)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
