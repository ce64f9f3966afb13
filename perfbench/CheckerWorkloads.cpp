//===- perfbench/CheckerWorkloads.cpp - german-* and pool-symmetry ---------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The checker workloads: exhaustive delay-bounded searches through the
// public check() API, timed from outside, each round's verdict and
// counts checked against independently obtained expectations.
//
//   german-d3-serial    German(2), d = 3, 1 worker, Reduction::Off.
//   german-d4-parallel  German(2), d = 4, nproc workers.
//   pool-symmetry       workerPool(6), d = 3, 1 worker, Symmetry.
//
// Untraced runs report the end-to-end metrics. The traced run repeats
// the untimed rounds for an untraced median, then one profiled round
// inside a span, the per-layer probes, and the reconciliation checks.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "corpus/Corpus.h"
#include "runtime/Executor.h"

#include <cstdio>
#include <functional>

using namespace p;

namespace bench {

namespace {

struct CheckerSpec {
  std::string Source;
  CheckOptions Opts;
  /// Checks one timed round's result.
  std::function<Failures(const CheckResult &)> CheckRound;
  /// Untimed verification operations (seeded bugs, replays, unreduced
  /// runs); returns the number of operations attempted.
  std::function<uint64_t(SpanRecorder *, Outcome &)> Verify;
};

CheckResult timedCheck(const CompiledProgram &Prog, const CheckOptions &O,
                       SpanRecorder *Spans, double &Seconds) {
  ScopedSpan S(Spans, "check");
  int64_t T0 = nowNs();
  CheckResult R = check(Prog, O);
  Seconds = static_cast<double>(nowNs() - T0) * 1e-9;
  return R;
}

ReplayResult tracedReplay(const CompiledProgram &Prog, const CheckResult &R,
                          SpanRecorder *Spans) {
  ScopedSpan S(Spans, "replaySchedule");
  return replaySchedule(Prog, R.Schedule);
}

/// Searches \p Source (a seeded-bug variant) and replays what it finds.
uint64_t verifyBug(const char *What, const std::string &Source,
                   CheckOptions O, int MaxDelay, SpanRecorder *Spans,
                   Outcome &Out) {
  CompiledProgram Bug;
  {
    ScopedSpan S(Spans, "compile");
    Bug = compileOrDie(Source, false);
  }
  double Secs = 0;
  CheckResult R = timedCheck(Bug, O, Spans, Secs);
  ReplayResult Rp = tracedReplay(Bug, R, Spans);
  Out.expect(checkBugFoundAndReplays(What, R, MaxDelay, Rp));
  return 2;
}

void runCheckerWorkload(const RunOptions &Opt, const CheckerSpec &Spec,
                        Outcome &Out) {
  SpanRecorder Rec;
  SpanRecorder *Spans = Opt.Trace ? &Rec : nullptr;

  // Set-up: compile plus the initial configuration.
  CompiledProgram Prog;
  {
    ScopedSpan S(Spans, "compile");
    Prog = compileOrDie(Spec.Source, false);
    Executor::Options EO;
    EO.UseModelBodies = true;
    Config Init = Executor(Prog, EO).makeInitialConfig();
    if (Init.Machines.empty())
      Out.fail("initial configuration has no machine");
  }
  double SetupS = secondsSinceSpawn(Opt);

  Out.Attempted += Spec.Verify(Spans, Out);

  // Timed rounds: whole check() calls until the run length is used up.
  std::vector<double> CheckS, RssMb;
  CheckResult Last;
  int64_t Start = nowNs();
  do {
    double Secs = 0;
    Last = timedCheck(Prog, Spec.Opts, nullptr, Secs);
    Out.Attempted += 1;
    Out.expect(Spec.CheckRound(Last));
    CheckS.push_back(Secs);
    std::fprintf(stderr, "perfbench: round %zu check %.4f s, %llu states\n",
                 CheckS.size(), Secs,
                 static_cast<unsigned long long>(Last.Stats.DistinctStates));
    RssMb.push_back(static_cast<double>(Last.Stats.PeakRssBytes) * 1e-6);
  } while (static_cast<double>(nowNs() - Start) * 1e-9 < Opt.Seconds);

  double CheckMedian = median(CheckS);
  if (!Opt.Trace) {
    Out.set("setup_s", SetupS, "s");
    Out.set("latency_p50_us", CheckMedian * 1e6, "us");
    Out.set("peak_rss_mb", median(RssMb), "MB");
    return;
  }

  // Traced run: one profiled round inside a span, then the probes.
  CheckOptions Profiled = Spec.Opts;
  Profiled.Profile = true;
  double TracedS = 0;
  CheckResult P = timedCheck(Prog, Profiled, Spans, TracedS);
  Out.Attempted += 1;
  Out.expect(Spec.CheckRound(P));
  runLayerProbes(Spec.Source, false, -1, Opt.Seed, Spans, Out);

  const CheckStats &S = P.Stats;
  uint64_t SliceNs = 0;
  for (const obs::MachineProfile &M : P.Profile.Machines)
    SliceNs += M.SliceNs;
  double StepS = Out.Metrics["runtime.step_ns"].Value * 1e-9;
  double HashS = Out.Metrics["statehash.hash_incremental_ns"].Value * 1e-9;
  double CopyS = Out.Metrics["runtime.config_copy_ns"].Value * 1e-9;
  double Nodes = static_cast<double>(S.NodesExplored);
  double Slices = static_cast<double>(S.Slices);
  // Work the probes account for, spread over the workers that did it.
  int Workers = std::max(1, S.WorkersUsed);
  double Accounted = (Slices * StepS + Nodes * (HashS + CopyS)) / Workers;
  double ProfiledSliceS = static_cast<double>(SliceNs) * 1e-9;

  Out.set("checker.check_s", CheckMedian, "s");
  Out.set("checker.states_per_s",
          static_cast<double>(S.DistinctStates) / CheckMedian, "1/s");
  Out.set("checker.nodes", Nodes, "count");
  Out.set("checker.slices", Slices, "count");
  Out.set("checker.visited_mb", static_cast<double>(S.VisitedBytes) * 1e-6,
          "MB");
  Out.set("checker.useful_ratio",
          static_cast<double>(S.DistinctStates) / Nodes, "ratio");
  Out.set("checker.steal_count", static_cast<double>(S.StealCount), "count");
  Out.set("checker.contention_ms",
          static_cast<double>(S.ContentionNs) * 1e-6, "ms");
  Out.set("checker.symmetry_collapsed",
          static_cast<double>(S.SymmetryCollapsed), "count");
  Out.set("checker.profiled_slice_s", ProfiledSliceS, "s");
  Out.set("checker.unaccounted_s", CheckMedian - Accounted, "s");
  zeroLayer(Out, "host.");
  Out.set("trace.overhead_pct", (TracedS / CheckMedian - 1) * 100, "%");

  // Reconciliation of totals reached by independent paths.
  if (Workers == 1 && Accounted > CheckMedian)
    Out.fail("reconciliation: slices x step + nodes x (hash + copy) = " +
             std::to_string(Accounted) + " s exceeds check_s " +
             std::to_string(CheckMedian));
  if (ProfiledSliceS > TracedS * Workers)
    Out.fail("reconciliation: profiled slice time " +
             std::to_string(ProfiledSliceS) + " s exceeds " +
             std::to_string(Workers) + " x profiled check_s " +
             std::to_string(TracedS));
  double SliceModel = Slices * StepS;
  if (ProfiledSliceS > 10 * SliceModel || SliceModel > 10 * ProfiledSliceS)
    Out.fail("reconciliation: profiled slice time " +
             std::to_string(ProfiledSliceS) +
             " s is not of the order of slices x step_ns = " +
             std::to_string(SliceModel));
  finishTrace(Opt, Rec, Out);
}

} // namespace

void runGermanWorkload(const RunOptions &Opt, int Delay, int Workers,
                       Outcome &Out) {
  const ExactCounts *Want = germanExactCounts(Delay);
  if (!Want) {
    Out.fail("no Exact-mode counts for German(2) at d=" +
             std::to_string(Delay));
    return;
  }
  CheckerSpec Spec;
  Spec.Source = corpus::german(2);
  Spec.Opts.DelayBound = Delay;
  Spec.Opts.Workers = Workers;
  Spec.CheckRound = [Want](const CheckResult &R) {
    return checkGermanRound(R, *Want);
  };
  Spec.Verify = [Workers](SpanRecorder *Spans, Outcome &Out) {
    // "Bugs are found within a delay bound of 2."
    CheckOptions O;
    O.DelayBound = 2;
    O.Workers = Workers;
    return verifyBug("German SkipOwnerInvalidation",
                     corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation),
                     O, 2, Spans, Out);
  };
  runCheckerWorkload(Opt, Spec, Out);
}

void runPoolWorkload(const RunOptions &Opt, Outcome &Out) {
  constexpr int PoolWorkers = 6;
  CheckerSpec Spec;
  Spec.Source = corpus::workerPool(PoolWorkers);
  Spec.Opts.DelayBound = 3;
  Spec.Opts.Reduce = Reduction::Symmetry;
  // The unreduced search of the same program bounds every Symmetry
  // round: Off / candidates <= Symmetry <= Off.
  auto Off = std::make_shared<CheckResult>();
  auto Candidates = std::make_shared<uint64_t>(1);
  Spec.Verify = [&Spec, Off, Candidates](SpanRecorder *Spans, Outcome &Out) {
    CompiledProgram Prog;
    {
      ScopedSpan S(Spans, "compile");
      Prog = compileOrDie(Spec.Source, false);
    }
    *Candidates = symmetryCandidates(Prog);
    CheckOptions O = Spec.Opts;
    O.Reduce = Reduction::Off;
    double Secs = 0;
    *Off = timedCheck(Prog, O, Spans, Secs);
    CheckOptions Bug = Spec.Opts;
    return 1 + verifyBug("workerPool UndercountedPool",
                         corpus::workerPool(
                             PoolWorkers, corpus::WorkerPoolBug::UndercountedPool),
                         Bug, -1, Spans, Out);
  };
  Spec.CheckRound = [Off, Candidates](const CheckResult &R) {
    return checkSymmetryBounds(R, *Off, *Candidates);
  };
  runCheckerWorkload(Opt, Spec, Out);
}

} // namespace bench
