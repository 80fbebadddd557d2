// kiwi_fuzz: linearizability fuzzer driver.
//
//   kiwi_fuzz                          # sweep seeds 1..N on the clean tree
//   kiwi_fuzz --seed=42                # replay one seed (also KIWI_FUZZ_SEED)
//   kiwi_fuzz --first-seed=301 --seeds=150
//                                      # sweep seeds 301..450 (split a range)
//   kiwi_fuzz --mutant=skip_scan_publish --expect-violation
//                                      # prove the harness catches a mutant
//
// Exit codes: 0 = clean sweep (or, with --expect-violation, the mutant WAS
// detected); 1 = violation/crash found (or mutant escaped detection);
// 2 = usage error.
//
// With --expect-violation each round runs in a forked child so that
// assertion aborts (some mutants die in KIWI_ASSERT rather than producing a
// checkable history) count as detections.  See docs/TESTING.md.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/test_hooks.h"
#include "fuzz/fuzzer.h"
#include "fuzz/scenario.h"
#include "obs/trace.h"

namespace {

using kiwi::TestHooks;
using kiwi::fuzz::DumpFailureArtifacts;
using kiwi::fuzz::Minimize;
using kiwi::fuzz::MinimizeResult;
using kiwi::fuzz::RoundParams;
using kiwi::fuzz::RoundResult;
using kiwi::fuzz::RunRound;
using kiwi::fuzz::Schedule;

struct MutantName {
  const char* name;
  TestHooks::Mutant bit;
};
constexpr MutantName kMutants[] = {
    {"last_engaged_race", TestHooks::kLastEngagedRace},
    {"skip_scan_publish", TestHooks::kSkipScanPublish},
    {"skip_get_help", TestHooks::kSkipGetHelp},
    {"eager_tombstone_purge", TestHooks::kEagerTombstonePurge},
};

struct Options {
  RoundParams params;
  bool seed_fixed = false;   // --seed / KIWI_FUZZ_SEED given: run exactly it
  std::uint64_t first_seed = 1;  // sweep start when no fixed seed
  std::uint64_t seeds = 20;  // sweep width when no fixed seed
  std::uint64_t budget_s = 0;  // 0 = unlimited
  bool expect_violation = false;
  bool minimize = true;
  std::string artifact_dir;
  std::string scenario;  // directed scenario instead of seeded rounds
};

/// Seed the crash handler prints so an aborting round is still reproducible.
std::atomic<std::uint64_t> g_current_seed{0};

#if KIWI_TRACE_ENABLED
void CrashSeedReport(void*, int fd) {
  char buf[96];
  const int n = std::snprintf(
      buf, sizeof(buf), "\nkiwi_fuzz repro: KIWI_FUZZ_SEED=%llu\n",
      static_cast<unsigned long long>(
          g_current_seed.load(std::memory_order_relaxed)));
  if (n > 0) {
    const ssize_t ignored = write(fd, buf, static_cast<std::size_t>(n));
    (void)ignored;
  }
}
#endif  // KIWI_TRACE_ENABLED

void Usage(FILE* to) {
  std::fprintf(
      to,
      "usage: kiwi_fuzz [options]\n"
      "  --seed=N            run exactly this seed (env: KIWI_FUZZ_SEED)\n"
      "  --seeds=N           seeds to sweep when --seed absent (default 20)\n"
      "  --first-seed=N      first seed of the sweep (default 1): the sweep\n"
      "                      runs seeds N..N+seeds-1, so parallel processes\n"
      "                      can split one range\n"
      "  --budget-s=N        wall-clock budget in seconds (default: none)\n"
      "  --threads=N         worker threads per round (default 4)\n"
      "  --ops=N             ops per thread (default 100)\n"
      "  --keys=N            keyspace size (default 16)\n"
      "  --chunk-capacity=N  chunk capacity (default 8)\n"
      "  --mix=P:R:G         op mix percent put:remove:get, rest scans\n"
      "                      (default 35:15:30)\n"
      "  --batch-pct=N       PutBatch share of the mix, carved out of the\n"
      "                      scan remainder (default 0: batches off)\n"
      "  --batch-max=N       max entries per fuzzed batch (default 6)\n"
      "  --bytes             fuzz KiWiByteMap: keys go through an\n"
      "                      order-preserving byte codec sharing one 8-byte\n"
      "                      prefix, so every comparison takes the arena\n"
      "                      memcmp tie-break path (checker unchanged)\n"
      "  --max-engaged=N     max chunks engaged per rebalance (default 8)\n"
      "  --site-mask=M       restrict perturbed hook sites (bitmask)\n"
      "  --force-site=I:A:P:N  pin site I to action A (yield|sleep|spin)\n"
      "                      with probability P%% and intensity N\n"
      "                      (repeatable; see --list-sites for indices)\n"
      "  --mutant=NAME       enable a mutant (repeatable; see "
      "--list-mutants)\n"
      "  --mutant-mask=M     enable mutants by raw bitmask\n"
      "  --scenario=NAME     run a directed deterministic scenario instead\n"
      "                      of seeded rounds (see --list-scenarios)\n"
      "  --expect-violation  exit 0 iff a violation/crash IS found "
      "(fork-per-round)\n"
      "  --artifact-dir=DIR  failure artifact dir (env: "
      "KIWI_FUZZ_ARTIFACT_DIR)\n"
      "  --no-minimize       skip schedule minimization on failure\n"
      "  --list-mutants      list mutant names and exit\n"
      "  --list-sites        list perturbation hook sites and exit\n");
}

bool ParseU64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 0);
  return end != s && *end == '\0';
}

/// "I:A:P:N" -> forced site config (see --force-site in Usage()).
bool ParseForceSite(const char* s, RoundParams::SiteOverride& out) {
  std::string spec(s);
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t colon; (colon = spec.find(':', start)) != std::string::npos;
       start = colon + 1) {
    parts.push_back(spec.substr(start, colon - start));
  }
  parts.push_back(spec.substr(start));
  if (parts.size() != 4) return false;
  std::uint64_t site = 0, prob = 0, intensity = 0;
  if (!ParseU64(parts[0].c_str(), site) || site >= TestHooks::kSiteCount ||
      !ParseU64(parts[2].c_str(), prob) || prob > 100 ||
      !ParseU64(parts[3].c_str(), intensity)) {
    return false;
  }
  kiwi::fuzz::SiteAction action;
  if (parts[1] == "yield") {
    action = kiwi::fuzz::SiteAction::kYield;
  } else if (parts[1] == "sleep") {
    action = kiwi::fuzz::SiteAction::kSleep;
  } else if (parts[1] == "spin") {
    action = kiwi::fuzz::SiteAction::kSpin;
  } else {
    return false;
  }
  out.site = static_cast<std::uint32_t>(site);
  out.config.action = action;
  out.config.probability_pct = static_cast<std::uint8_t>(prob);
  out.config.intensity = static_cast<std::uint32_t>(intensity);
  return true;
}

int ParseArgs(int argc, char** argv, Options& opt) {
  if (const char* env = std::getenv("KIWI_FUZZ_SEED")) {
    if (ParseU64(env, opt.params.seed)) opt.seed_fixed = true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    std::uint64_t v = 0;
    if (const char* s = value("--seed=")) {
      if (!ParseU64(s, opt.params.seed)) return 2;
      opt.seed_fixed = true;
    } else if (const char* s = value("--seeds=")) {
      if (!ParseU64(s, opt.seeds) || opt.seeds == 0) return 2;
    } else if (const char* s = value("--first-seed=")) {
      if (!ParseU64(s, opt.first_seed)) return 2;
    } else if (const char* s = value("--budget-s=")) {
      if (!ParseU64(s, opt.budget_s)) return 2;
    } else if (const char* s = value("--threads=")) {
      if (!ParseU64(s, v) || v == 0 || v > 64) return 2;
      opt.params.threads = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--ops=")) {
      if (!ParseU64(s, v) || v == 0) return 2;
      opt.params.ops_per_thread = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--keys=")) {
      if (!ParseU64(s, v) || v == 0) return 2;
      opt.params.keys = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--chunk-capacity=")) {
      if (!ParseU64(s, v) || v < 2) return 2;
      opt.params.chunk_capacity = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--max-engaged=")) {
      if (!ParseU64(s, v) || v == 0) return 2;
      opt.params.max_engaged_chunks = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--mix=")) {
      unsigned put = 0, remove = 0, get = 0;
      if (std::sscanf(s, "%u:%u:%u", &put, &remove, &get) != 3 ||
          put + remove + get > 100) {
        std::fprintf(stderr, "bad --mix spec '%s' (want PUT:REMOVE:GET)\n", s);
        return 2;
      }
      opt.params.put_pct = put;
      opt.params.remove_pct = remove;
      opt.params.get_pct = get;
    } else if (const char* s = value("--batch-pct=")) {
      if (!ParseU64(s, v) || v > 100) return 2;
      opt.params.batch_pct = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--batch-max=")) {
      if (!ParseU64(s, v) || v == 0) return 2;
      opt.params.max_batch = static_cast<std::uint32_t>(v);
    } else if (arg == "--bytes") {
      opt.params.byte_keys = true;
    } else if (const char* s = value("--site-mask=")) {
      if (!ParseU64(s, opt.params.site_mask)) return 2;
    } else if (const char* s = value("--force-site=")) {
      RoundParams::SiteOverride forced;
      if (!ParseForceSite(s, forced)) {
        std::fprintf(stderr, "bad --force-site spec '%s'\n", s);
        return 2;
      }
      opt.params.forced_sites.push_back(forced);
    } else if (const char* s = value("--mutant-mask=")) {
      if (!ParseU64(s, v)) return 2;
      opt.params.mutants |= static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--mutant=")) {
      bool known = false;
      for (const MutantName& m : kMutants) {
        if (std::strcmp(s, m.name) == 0) {
          opt.params.mutants |= m.bit;
          known = true;
        }
      }
      if (!known) {
        std::fprintf(stderr, "unknown mutant '%s' (see --list-mutants)\n", s);
        return 2;
      }
    } else if (const char* s = value("--artifact-dir=")) {
      opt.artifact_dir = s;
    } else if (arg == "--expect-violation") {
      opt.expect_violation = true;
    } else if (arg == "--no-minimize") {
      opt.minimize = false;
    } else if (const char* s = value("--scenario=")) {
      bool known = false;
      for (const char* name : kiwi::fuzz::ScenarioNames()) {
        if (std::strcmp(s, name) == 0) known = true;
      }
      if (!known) {
        std::fprintf(stderr, "unknown scenario '%s' (see --list-scenarios)\n",
                     s);
        return 2;
      }
      opt.scenario = s;
    } else if (arg == "--list-scenarios") {
      for (const char* name : kiwi::fuzz::ScenarioNames()) {
        std::printf("%s\n", name);
      }
      return -1;
    } else if (arg == "--list-mutants") {
      for (const MutantName& m : kMutants) {
        std::printf("%-24s 0x%x\n", m.name, m.bit);
      }
      return -1;
    } else if (arg == "--list-sites") {
      const auto& sites = TestHooks::AllSites();
      for (std::size_t j = 0; j < sites.size(); ++j) {
        std::printf("%zu  %s\n", j, sites[j].name);
      }
      return -1;
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return -1;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }
  return 0;
}

/// One failing round in the main process: minimize, dump, report.
int HandleFailure(const Options& opt, RoundParams params,
                  RoundResult result) {
  std::printf("VIOLATION seed=%llu: %s\n",
              static_cast<unsigned long long>(params.seed),
              result.message.c_str());
  if (opt.minimize) {
    std::printf("minimizing (this re-runs the failing schedule)...\n");
    const MinimizeResult min = Minimize(params, /*retries=*/8,
                                        /*max_rounds=*/200);
    if (min.reproduced) {
      params = min.params;
      std::printf("minimized: site_mask=0x%llx ops=%u (%u rounds spent)\n",
                  static_cast<unsigned long long>(min.site_mask),
                  params.ops_per_thread, min.rounds_spent);
      RoundResult again = RunRound(params);
      if (!again.ok) result = std::move(again);
    } else {
      std::printf("failure did not re-fire during minimization; "
                  "keeping the original round\n");
    }
  }
  if (auto path = DumpFailureArtifacts(params, result, opt.artifact_dir)) {
    std::printf("artifacts: %s\n", path->c_str());
  } else {
    std::printf("artifact dump failed (check --artifact-dir)\n");
  }
  std::printf("repro: %s\n", kiwi::fuzz::ReproLine(params).c_str());
  return 1;
}

/// Fork-per-round: returns true when the child found a violation OR died
/// (assert/crash) — either way the harness detected the defect.
bool RoundDetectsInChild(const RoundParams& params) {
  const pid_t pid = fork();
  if (pid == 0) {
    const RoundResult r = RunRound(params);
    if (!r.ok) {
      std::printf("  child seed=%llu: %s\n",
                  static_cast<unsigned long long>(params.seed),
                  r.message.c_str());
      std::fflush(stdout);
      _exit(1);
    }
    _exit(0);
  }
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) {
    std::printf("  child seed=%llu: died with signal %d (detection)\n",
                static_cast<unsigned long long>(params.seed),
                WTERMSIG(status));
    return true;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) != 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const int parsed = ParseArgs(argc, argv, opt);
  if (parsed == -1) return 0;
  if (parsed != 0) return parsed;

#if KIWI_TRACE_ENABLED
  kiwi::obs::trace::InstallCrashHandler();
  kiwi::obs::trace::SetCrashReportCallback(&CrashSeedReport, nullptr);
#endif
  if (!opt.artifact_dir.empty()) {
    setenv("KIWI_FUZZ_ARTIFACT_DIR", opt.artifact_dir.c_str(), 1);
  }

  const auto start = std::chrono::steady_clock::now();
  auto budget_left = [&] {
    if (opt.budget_s == 0) return true;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return elapsed < std::chrono::seconds(opt.budget_s);
  };

  const std::uint64_t first = opt.seed_fixed ? opt.params.seed : opt.first_seed;
  const std::uint64_t count = opt.seed_fixed ? 1 : opt.seeds;

  if (!opt.scenario.empty()) {
    // Directed scenarios are deterministic: one run decides.  Mutants that
    // die in an assert instead of corrupting data still count as detected,
    // so expect-violation mode forks the scenario like a seeded round.
    TestHooks::ScopedMutants mutants(opt.params.mutants);
    auto run_scenario = [&]() -> int {  // 0 = consistent, 1 = violation
      const kiwi::fuzz::ScenarioResult r =
          kiwi::fuzz::RunScenario(opt.scenario);
      if (!r.message.empty()) {
        std::printf("scenario %s: %s\n", opt.scenario.c_str(),
                    r.message.c_str());
        std::fflush(stdout);
      }
      return r.ok ? 0 : 1;
    };
    if (!opt.expect_violation) {
      const int rc = run_scenario();
      if (rc == 0) std::printf("scenario %s: consistent\n",
                               opt.scenario.c_str());
      return rc;
    }
    const pid_t pid = fork();
    if (pid == 0) _exit(run_scenario());
    if (pid < 0) {
      std::perror("fork");
      return 2;
    }
    int status = 0;
    waitpid(pid, &status, 0);
    const bool detected =
        WIFSIGNALED(status) ||
        (WIFEXITED(status) && WEXITSTATUS(status) != 0);
    std::printf("scenario %s: mutant-mask=0x%x %s\n", opt.scenario.c_str(),
                opt.params.mutants, detected ? "DETECTED" : "NOT detected");
    return detected ? 0 : 1;
  }

  if (opt.expect_violation) {
    std::printf("expect-violation mode: mutant-mask=0x%x, up to %llu seeds\n",
                opt.params.mutants, static_cast<unsigned long long>(count));
    for (std::uint64_t i = 0; i < count && budget_left(); ++i) {
      RoundParams params = opt.params;
      params.seed = first + i;
      g_current_seed.store(params.seed, std::memory_order_relaxed);
      if (RoundDetectsInChild(params)) {
        std::printf("DETECTED at seed=%llu\n",
                    static_cast<unsigned long long>(params.seed));
        return 0;
      }
    }
    std::printf("mutant NOT detected within budget\n");
    return 1;
  }

  std::uint64_t ran = 0;
  for (std::uint64_t i = 0; i < count && budget_left(); ++i) {
    RoundParams params = opt.params;
    params.seed = first + i;
    g_current_seed.store(params.seed, std::memory_order_relaxed);
    RoundResult result = RunRound(params);
    ++ran;
    if (!result.ok) return HandleFailure(opt, params, std::move(result));
  }
  std::printf("clean: %llu round%s, no violations\n",
              static_cast<unsigned long long>(ran), ran == 1 ? "" : "s");
  return 0;
}
