// kiwi_perfbench: runs one benchmark workload against the KiWi library and
// prints a human-readable report followed by one JSON line with every
// metric (perfbench/run.py turns that into the benchmark's result line).
//
//   kiwi_perfbench --workload read_mostly --seed 1 --seconds 30 --trace 0
//                  [--spans-out FILE]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <malloc.h>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Metric;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "kiwi_perfbench: %s\nusage: kiwi_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
               message);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += JsonString(m.name) + ":{\"value\":" + (m.na.empty() ? value : "null") +
           ",\"unit\":" + JsonString(m.unit);
    if (!m.na.empty()) out += ",\"na\":" + JsonString(m.na);
    out += "}";
  }
  return out + "}";
}

void PrintTable(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!m.na.empty()) {
      std::printf("%-6s %-34s n/a: %s\n", tag, m.name.c_str(), m.na.c_str());
    } else {
      std::printf("%-6s %-34s %16.6g %-7s %s\n", tag, m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0 || options.seconds > 600) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (options.seconds <= 0) Usage("--seconds is required");

  // Keep freed memory in the heap: repeated bulk loads then time the build,
  // not the kernel's page faults, which vary far more from run to run (the
  // first load still pays them; setup_s is the median of several loads).
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Result result;
  try {
    result = perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    Usage(e.what());
  }

  std::printf("# kiwi_perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build=%s KIWI_STATS=%s KIWI_TRACE=%s\n# %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_KIWI_STATS,
              PERFBENCH_KIWI_TRACE, result.shape.c_str());
  PrintTable("e2e", result.e2e);
  PrintTable("gated", result.gated);
  PrintTable("layer", result.layers);
  for (const std::string& e : result.errors) std::printf("error  %s\n", e.c_str());
  std::printf("{\"attempted\":%llu,\"failed\":%llu,\"e2e\":%s,\"gated\":%s,"
              "\"layers\":%s}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              JsonMetrics(result.e2e).c_str(), JsonMetrics(result.gated).c_str(),
              JsonMetrics(result.layers).c_str());
  return 0;
}
