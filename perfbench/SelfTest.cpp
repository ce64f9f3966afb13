//===- perfbench/SelfTest.cpp - The benchmark's checks must fire -----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// `perfbench --selftest` (or `python3 perfbench/run.py --selftest`)
// feeds every output check of Checks.h a wrong input — a seeded-bug
// program, a search cut short, an altered expectation, or a corrupted
// observation — and requires it to fire; it also requires the checks
// to pass on right inputs, so a check that always fires fails too.
// Small instances keep it to a few seconds.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "corpus/Corpus.h"

#include <cstdio>
#include <functional>

using namespace p;

namespace bench {

namespace {

int Missed = 0;

void expectFires(const char *What, const Failures &F) {
  std::printf("%s %s\n", F.empty() ? "MISSED" : "fires ", What);
  if (F.empty())
    ++Missed;
  else
    std::printf("         -> %s\n", F.front().c_str());
}

void expectPasses(const char *What, const Failures &F) {
  std::printf("%s %s\n", F.empty() ? "passes" : "WRONG ", What);
  if (!F.empty()) {
    ++Missed;
    std::printf("         -> %s\n", F.front().c_str());
  }
}

CheckResult search(const std::string &Src, CheckOptions O) {
  return check(compileOrDie(Src, false), O);
}

void germanChecks() {
  // A d=1 search stands in for the timed d=3 round: it is checked
  // against counts made for it, then against altered ones.
  CheckOptions O;
  O.DelayBound = 1;
  CheckResult Good = search(corpus::german(2), O);
  ExactCounts D1{1, Good.Stats.DistinctStates, Good.Stats.Terminals};
  {
    CheckOptions E = O;
    E.Visited = VisitedMode::Exact;
    CheckResult Ex = search(corpus::german(2), E);
    D1 = {1, Ex.Stats.DistinctStates, Ex.Stats.Terminals};
  }
  expectPasses("German round against its Exact-mode counts",
               checkGermanRound(Good, D1));
  expectFires("German round against d=3 counts (wrong bound)",
              checkGermanRound(Good, *germanExactCounts(3)));
  ExactCounts Off = D1;
  Off.States += 1;
  expectFires("German round, states expectation off by one",
              checkGermanRound(Good, Off));
  Off = D1;
  Off.Terminals += 1;
  expectFires("German round, terminals expectation off by one",
              checkGermanRound(Good, Off));
  CheckResult Inflated = Good;
  Inflated.Stats.DistinctStates = Inflated.Stats.NodesExplored + 2;
  expectFires("German round, more states than nodes + 1",
              checkGermanRound(Inflated, D1));
  CheckOptions Cut = O;
  Cut.MaxNodes = 100;
  expectFires("German round, search cut short",
              checkGermanRound(search(corpus::german(2), Cut), D1));
  CheckResult Buggy = search(
      corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation), O);
  expectFires("German round on the SkipOwnerInvalidation program",
              checkGermanRound(Buggy, D1));

  // Seeded bug found within bound 2, and its schedule replays.
  CompiledProgram BugProg = compileOrDie(
      corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation), false);
  CheckOptions B;
  B.DelayBound = 2;
  CheckResult Found = check(BugProg, B);
  ReplayResult Rp = replaySchedule(BugProg, Found.Schedule);
  expectPasses("seeded bug found and replayed",
               checkBugFoundAndReplays("German", Found, 2, Rp));
  expectFires("seeded-bug check on the correct program",
              checkBugFoundAndReplays("German", Good, 2, Rp));
  CheckResult Late = Found;
  Late.DelaysUsedOnError = 3;
  expectFires("seeded bug found beyond delay bound 2",
              checkBugFoundAndReplays("German", Late, 2, Rp));
  std::vector<SchedDecision> Short = Found.Schedule;
  if (!Short.empty())
    Short.pop_back();
  expectFires("replay of a truncated schedule",
              checkBugFoundAndReplays("German", Found, 2,
                                      replaySchedule(BugProg, Short)));
  ReplayResult OtherKind = Rp;
  OtherKind.Error = Found.Error == ErrorKind::AssertFailed
                        ? ErrorKind::UnhandledEvent
                        : ErrorKind::AssertFailed;
  expectFires("replay reaching another error kind",
              checkBugFoundAndReplays("German", Found, 2, OtherKind));
}

void symmetryChecks() {
  constexpr int Workers = 3;
  CheckOptions O;
  O.DelayBound = 2;
  CheckResult Off = search(corpus::workerPool(Workers), O);
  O.Reduce = Reduction::Symmetry;
  CheckResult Sym = search(corpus::workerPool(Workers), O);
  uint64_t Cand = symmetryCandidates(
      compileOrDie(corpus::workerPool(Workers), false));
  std::printf("         (workerPool(%d): %llu candidates, Off %llu, "
              "Symmetry %llu states)\n",
              Workers, static_cast<unsigned long long>(Cand),
              static_cast<unsigned long long>(Off.Stats.DistinctStates),
              static_cast<unsigned long long>(Sym.Stats.DistinctStates));
  expectPasses("Symmetry within [Off/candidates, Off]",
               checkSymmetryBounds(Sym, Off, Cand));
  expectFires("Symmetry bounds with Off and Symmetry swapped",
              checkSymmetryBounds(Off, Sym, Cand));
  expectFires("Symmetry bounds with candidates = 1",
              checkSymmetryBounds(Sym, Off, 1));
  CheckResult FewTerms = Sym;
  FewTerms.Stats.Terminals = Off.Stats.Terminals / Cand / 2;
  expectFires("Symmetry terminals below Off/candidates",
              checkSymmetryBounds(FewTerms, Off, Cand));
  CheckResult Bug = search(
      corpus::workerPool(Workers, corpus::WorkerPoolBug::UndercountedPool), O);
  expectFires("Symmetry bounds on the UndercountedPool program",
              checkSymmetryBounds(Bug, Off, Cand));
}

void hostChecks() {
  HostObservation Good;
  Good.Sent = Good.EventsDelivered = 7;
  Good.GroupSent = Good.GroupLast = Good.BrokerPublished = {3, 4};
  Good.SubReceived = Good.SubLast = Good.SubCompletions = {{3, 3}, {4, 4}};
  expectPasses("host observation matching the generator",
               checkHostRun(Good));
  struct Case {
    const char *What;
    std::function<void(HostObservation &)> Break;
  };
  const Case Cases[] = {
      {"host error configuration", [](auto &O) { O.HostError = true; }},
      {"rejected addEvent", [](auto &O) { O.Rejected = 1; }},
      {"EventsDelivered off by one", [](auto &O) { O.EventsDelivered += 1; }},
      {"completion out of order", [](auto &O) { O.OutOfOrder = 1; }},
      {"event not completed by every subscriber",
       [](auto &O) { O.Incomplete = 1; }},
      {"broker Published off by one",
       [](auto &O) { O.BrokerPublished[1] -= 1; }},
      {"subscriber Received off by one",
       [](auto &O) { O.SubReceived[0][1] += 1; }},
      {"subscriber Last wrong", [](auto &O) { O.SubLast[1][0] = 2; }},
      {"completion delivered twice",
       [](auto &O) { O.SubCompletions[0][0] += 1; }},
      {"generator count altered", [](auto &O) { O.GroupSent[0] += 1; }},
  };
  for (const Case &C : Cases) {
    HostObservation Bad = Good;
    C.Break(Bad);
    expectFires(C.What, checkHostRun(Bad));
  }
}

} // namespace

int runSelfTest() {
  germanChecks();
  symmetryChecks();
  hostChecks();
  std::printf("%s: %d check(s) misbehaved\n", Missed ? "FAIL" : "OK", Missed);
  return Missed;
}

} // namespace bench
