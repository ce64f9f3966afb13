//===- perfbench/Checks.cpp - Output checks of the benchmark ----------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

using namespace p;

namespace bench {

namespace {

std::string num(uint64_t V) { return std::to_string(V); }

} // namespace

const ExactCounts *germanExactCounts(int Delay) {
  // From `python3 perfbench/run.py --exact-counts` (VisitedMode::Exact,
  // Workers = 1, Reduction::Off).
  static const ExactCounts Table[] = {
      {3, 870206, 0},
      {4, 1322104, 0},
  };
  for (const ExactCounts &C : Table)
    if (C.Delay == Delay)
      return &C;
  return nullptr;
}

Failures checkGermanRound(const CheckResult &R, const ExactCounts &Want) {
  Failures F;
  const CheckStats &S = R.Stats;
  if (R.ErrorFound)
    F.push_back(std::string("German(2) reported an error: ") +
                errorKindName(R.Error) + " " + R.ErrorMessage);
  if (!S.Exhausted)
    F.push_back("German(2) search was not exhausted");
  if (S.DistinctStates != Want.States)
    F.push_back("German(2) d=" + std::to_string(Want.Delay) + ": " +
                num(S.DistinctStates) + " distinct states, Exact mode counts " +
                num(Want.States));
  if (S.Terminals != Want.Terminals)
    F.push_back("German(2) d=" + std::to_string(Want.Delay) + ": " +
                num(S.Terminals) + " terminals, Exact mode counts " +
                num(Want.Terminals));
  if (S.DistinctStates > S.NodesExplored + 1)
    F.push_back("distinct states " + num(S.DistinctStates) +
                " exceed nodes explored + 1 = " + num(S.NodesExplored + 1));
  return F;
}

Failures checkBugFoundAndReplays(const char *What, const CheckResult &R,
                                 int MaxDelay, const ReplayResult &Replay) {
  Failures F;
  if (!R.ErrorFound) {
    F.push_back(std::string(What) + ": seeded bug not found");
    return F;
  }
  if (MaxDelay >= 0 && R.DelaysUsedOnError > MaxDelay)
    F.push_back(std::string(What) + ": found with " +
                std::to_string(R.DelaysUsedOnError) + " delays, bound is " +
                std::to_string(MaxDelay));
  if (!Replay.ErrorReached)
    F.push_back(std::string(What) + ": replayed schedule reached no error");
  else if (Replay.Error != R.Error)
    F.push_back(std::string(What) + ": replay reached " +
                errorKindName(Replay.Error) + ", search reported " +
                errorKindName(R.Error));
  return F;
}

Failures checkSymmetryBounds(const CheckResult &Sym, const CheckResult &Off,
                             uint64_t Candidates) {
  Failures F;
  if (Sym.ErrorFound || Off.ErrorFound)
    F.push_back("workerPool reported an error");
  if (!Sym.Stats.Exhausted || !Off.Stats.Exhausted)
    F.push_back("workerPool search was not exhausted");
  auto Bound = [&](const char *What, uint64_t S, uint64_t O) {
    // Off / Candidates <= S, written without division.
    if (S > O || S * Candidates < O)
      F.push_back(std::string("workerPool ") + What + ": Symmetry " +
                  num(S) + " outside [Off/" + num(Candidates) + ", Off] with Off " +
                  num(O));
  };
  Bound("states", Sym.Stats.DistinctStates, Off.Stats.DistinctStates);
  Bound("terminals", Sym.Stats.Terminals, Off.Stats.Terminals);
  return F;
}

Failures checkHostRun(const HostObservation &O) {
  Failures F;
  if (O.HostError)
    F.push_back("host entered an error configuration");
  if (O.Rejected)
    F.push_back(num(O.Rejected) + " addEvent calls were rejected");
  if (O.EventsDelivered != O.Sent)
    F.push_back("EventsDelivered " + num(O.EventsDelivered) + " != sent " +
                num(O.Sent));
  if (O.OutOfOrder)
    F.push_back(num(O.OutOfOrder) +
                " completions out of sequence order (duplicate, gap or "
                "reorder)");
  if (O.Incomplete)
    F.push_back(num(O.Incomplete) + " events not completed by every "
                                    "subscriber");
  for (size_t G = 0; G != O.GroupSent.size(); ++G) {
    std::string Grp = "group " + std::to_string(G) + ": ";
    if (O.BrokerPublished[G] != O.GroupSent[G])
      F.push_back(Grp + "broker Published " +
                  std::to_string(O.BrokerPublished[G]) + " != sent " +
                  std::to_string(O.GroupSent[G]));
    for (size_t S = 0; S != O.SubReceived[G].size(); ++S) {
      std::string Sub = Grp + "subscriber " + std::to_string(S) + " ";
      if (O.SubReceived[G][S] != O.GroupSent[G])
        F.push_back(Sub + "Received " + std::to_string(O.SubReceived[G][S]) +
                    " != sent " + std::to_string(O.GroupSent[G]));
      if (O.GroupSent[G] && O.SubLast[G][S] != O.GroupLast[G])
        F.push_back(Sub + "Last " + std::to_string(O.SubLast[G][S]) +
                    " != last sent " + std::to_string(O.GroupLast[G]));
      if (O.SubCompletions[G][S] != O.GroupSent[G])
        F.push_back(Sub + "completed " +
                    std::to_string(O.SubCompletions[G][S]) + " != sent " +
                    std::to_string(O.GroupSent[G]));
    }
  }
  return F;
}

} // namespace bench
