//===- perfbench/main.cpp - Benchmark entry point ---------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--spawn-ns T] [--commit ID]
//           [--rate EVENTS_PER_S] [--pump serial|reactor]
// perfbench --selftest
// perfbench --exact-counts
//
// Runs one workload, checks its outputs, and prints as its last stdout
// line one JSON object {correct, attempted, failed, metrics}. The line
// before it stamps the run with commit, build type and nproc. Failed
// checks are listed on stderr. Normally launched by run.py, which
// builds this binary first and passes --spawn-ns so set-up is timed
// from the process's start.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "checker/Checker.h"
#include "corpus/Corpus.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace bench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spawn-ns T] [--commit ID] "
               "[--rate R] [--pump serial|reactor]\n"
               "       perfbench --selftest | --exact-counts\n"
               "workloads: german-d3-serial german-d4-parallel "
               "pool-symmetry host-open-loop\n");
  return 2;
}

/// Regenerates the Exact-mode German(2) counts that Checks.cpp pins.
int exactCounts() {
  p::CompiledProgram Prog = compileOrDie(p::corpus::german(2), false);
  for (int D : {3, 4}) {
    p::CheckOptions O;
    O.DelayBound = D;
    O.Workers = 1;
    O.Visited = p::VisitedMode::Exact;
    p::CheckResult R = p::check(Prog, O);
    std::printf("{%d, %llu, %llu}, // error=%d exhausted=%d\n", D,
                static_cast<unsigned long long>(R.Stats.DistinctStates),
                static_cast<unsigned long long>(R.Stats.Terminals),
                R.ErrorFound, R.Stats.Exhausted);
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opt;
  std::string Commit = "unknown";
  bool HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--selftest")
      return runSelfTest() == 0 ? 0 : 1;
    if (A == "--exact-counts")
      return exactCounts();
    if (I + 1 >= argc)
      return usage();
    const char *V = argv[++I];
    if (A == "--workload")
      Opt.Workload = V;
    else if (A == "--seed")
      Opt.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Opt.Seconds = std::atof(V);
    else if (A == "--trace") {
      Opt.Trace = std::strcmp(V, "0") != 0;
      HaveTrace = true;
    } else if (A == "--spawn-ns")
      Opt.SpawnNs = std::strtoll(V, nullptr, 10);
    else if (A == "--commit")
      Commit = V;
    else if (A == "--rate")
      Opt.Rate = std::atof(V);
    else if (A == "--pump")
      Opt.Reactor = std::strcmp(V, "reactor") == 0;
    else
      return usage();
  }
  if (Opt.Workload.empty() || !HaveTrace || Opt.Seconds <= 0)
    return usage();
  secondsSinceSpawn(Opt); // Pin the fallback origin at main().

  if (Opt.Trace) {
    std::error_code EC;
    std::filesystem::create_directories(SpanDir, EC);
  }

  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  Outcome Out;
  if (Opt.Workload == "german-d3-serial")
    runGermanWorkload(Opt, 3, 1, Out);
  else if (Opt.Workload == "german-d4-parallel")
    runGermanWorkload(Opt, 4, static_cast<int>(Cores), Out);
  else if (Opt.Workload == "pool-symmetry")
    runPoolWorkload(Opt, Out);
  else if (Opt.Workload == "host-open-loop")
    runHostWorkload(Opt, Out);
  else
    return usage();

  for (auto &[Name, M] : Out.Metrics)
    if (!std::isfinite(M.Value)) {
      Out.fail("metric " + Name + " is not a finite number");
      M.Value = 0;
    }
  for (const std::string &F : Out.CheckFailures)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", F.c_str());

  std::printf("perfbench-stamp {\"commit\": \"%s\", \"build_type\": \"%s\", "
              "\"nproc\": %u, \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d}\n",
              Commit.c_str(), PERFBENCH_BUILD_TYPE, Cores,
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Opt.Seconds, Opt.Trace ? 1 : 0);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Out.CheckFailures.empty() ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  bool First = true;
  for (const auto &[Name, M] : Out.Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), M.Value, M.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
  return 0;
}
