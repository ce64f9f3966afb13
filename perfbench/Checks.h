//===- perfbench/Checks.h - Output checks of the benchmark ------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness checks every workload applies to the program's
/// outputs. Each is a pure function from observed values (and
/// independently obtained expectations) to a list of failure messages,
/// so SelfTest.cpp can feed it wrong inputs and show that it fires.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "checker/Checker.h"
#include "checker/Replay.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

using Failures = std::vector<std::string>;

/// Distinct states and terminals of German(2), counted by the Exact
/// visited mode at 1 worker (states keyed by their full serialization,
/// independently of the default fingerprints). Regenerate with
/// `python3 perfbench/run.py --exact-counts`.
struct ExactCounts {
  int Delay;
  uint64_t States;
  uint64_t Terminals;
};
const ExactCounts *germanExactCounts(int Delay);

/// One exhausted German check(): no error, exhausted, the Exact counts,
/// and DistinctStates <= NodesExplored + 1.
Failures checkGermanRound(const p::CheckResult &R, const ExactCounts &Want);

/// A seeded-bug search: the bug was found within \p MaxDelay (when >= 0)
/// and replaying its schedule reaches the same error kind.
Failures checkBugFoundAndReplays(const char *What, const p::CheckResult &R,
                                 int MaxDelay, const p::ReplayResult &Replay);

/// Symmetry reduction against an unreduced run of the same program:
/// no error in either, Off / Candidates <= Sym <= Off for states and
/// for terminals.
Failures checkSymmetryBounds(const p::CheckResult &Sym,
                             const p::CheckResult &Off, uint64_t Candidates);

/// What the host workload observed, against the generator's own counts.
struct HostObservation {
  bool HostError = false;
  uint64_t Sent = 0;            ///< addEvent calls the generator made.
  uint64_t Rejected = 0;        ///< addEvent calls that returned false.
  uint64_t EventsDelivered = 0; ///< HostStats::EventsDelivered.
  /// Per group: the generator's count and its last sequence number.
  std::vector<int64_t> GroupSent, GroupLast;
  /// Per group: the broker's Published (readVar).
  std::vector<int64_t> BrokerPublished;
  /// Per group and subscriber: Received and Last (readVar), and the
  /// number of completion callbacks seen.
  std::vector<std::vector<int64_t>> SubReceived, SubLast, SubCompletions;
  /// Completion callbacks whose sequence number was not the one
  /// expected next for that subscriber (duplicate, gap or reorder).
  uint64_t OutOfOrder = 0;
  /// Events whose completion count did not reach the subscriber count.
  uint64_t Incomplete = 0;
};
Failures checkHostRun(const HostObservation &O);

} // namespace bench

#endif // PERFBENCH_CHECKS_H
