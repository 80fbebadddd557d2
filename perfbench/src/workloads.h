// The three benchmark workloads (see perfbench/README.md for their shapes
// and why each was chosen).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // length of the measured window; required
  bool trace = false;
  std::string spans_out;  // JSONL file for the traced run's spans, if set
};

struct Result {
  std::string shape;             // one-line description of the run
  std::vector<Metric> e2e;       // this workload's end-to-end metrics
  std::vector<Metric> gated;     // the same numbers under their gated names
  std::vector<Metric> layers;    // traced run only
  std::uint64_t attempted = 0;   // client calls plus quiesce-checked keys
  std::uint64_t failed = 0;      // failed or incorrect ones
  std::vector<std::string> errors;
};

/// Run one workload; throws std::invalid_argument for an unknown name.
Result RunWorkload(const Options& options);

}  // namespace perfbench
