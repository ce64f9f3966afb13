//===- perfbench/Probes.cpp - Per-layer probes of the traced run -----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The traced run splits a workload's cost by layer by timing calls into
// each layer's public functions on the workload's own program:
//
//   frontend  — parseAndAnalyze (lexer, parser, sema) and lower;
//   runtime   — Executor::step and Config copies along seeded random
//               schedules;
//   statehash — hashConfig after one step (incremental), hashConfigFresh,
//               serializeConfig, and hashConfigPermuted per symmetry
//               candidate, on the configurations those schedules visit.
//
// Each loop sums its own timer; one span covers each loop.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "checker/StateHash.h"
#include "frontend/Frontend.h"
#include "runtime/Executor.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <random>

using namespace p;

namespace bench {

namespace {

constexpr int FrontendReps = 20;
constexpr int WalkSteps = 20000;
constexpr int WalkDepthCap = 200;
/// Nodes between fresh-hash / serialization samples, and between
/// permuted-hash samples (each of which hashes every candidate).
constexpr int FreshEvery = 4;
constexpr int PermutedEvery = 32;
constexpr uint64_t CandidateCap = 1024;

template <typename F> int64_t timeNs(F &&Fn) {
  int64_t T0 = nowNs();
  Fn();
  return nowNs() - T0;
}

/// Live machine ids per symmetric machine type of \p Cfg.
std::vector<std::vector<int32_t>> symmetricClasses(const CompiledProgram &Prog,
                                                   const Config &Cfg) {
  std::vector<std::vector<int32_t>> ByType(Prog.Machines.size());
  for (int32_t Id = 0; Id != static_cast<int32_t>(Cfg.Machines.size()); ++Id) {
    const MachineState &M = Cfg.machine(Id);
    if (M.Alive && M.MachineIndex >= 0 && Prog.Machines[M.MachineIndex].Symmetric)
      ByType[M.MachineIndex].push_back(Id);
  }
  std::vector<std::vector<int32_t>> Classes;
  for (auto &C : ByType)
    if (C.size() > 1)
      Classes.push_back(std::move(C));
  return Classes;
}

/// Product of the factorials of the class sizes, capped.
uint64_t candidateCount(const std::vector<std::vector<int32_t>> &Classes) {
  uint64_t N = 1;
  for (const auto &C : Classes)
    for (uint64_t K = 2; K <= C.size() && N < CandidateCap; ++K)
      N = std::min<uint64_t>(N * K, CandidateCap);
  return N;
}

/// Every candidate permutation (up to the cap): the product of the
/// permutations of each class, odometer order, identity first.
std::vector<std::vector<int32_t>>
candidatePerms(size_t NumMachines,
               const std::vector<std::vector<int32_t>> &Classes) {
  std::vector<int32_t> Identity(NumMachines);
  std::iota(Identity.begin(), Identity.end(), 0);
  std::vector<std::vector<int32_t>> Out{Identity};
  for (const auto &C : Classes) {
    std::vector<std::vector<int32_t>> Next;
    for (const auto &Base : Out) {
      std::vector<int32_t> Order = C;
      do {
        std::vector<int32_t> P = Base;
        for (size_t I = 0; I != C.size(); ++I)
          P[C[I]] = Order[I];
        Next.push_back(std::move(P));
        if (Next.size() >= CandidateCap)
          break;
      } while (std::next_permutation(Order.begin(), Order.end()));
      if (Next.size() >= CandidateCap)
        break;
    }
    Out = std::move(Next);
  }
  return Out;
}

/// Ids moved by \p Perm, as hashConfigPermuted's Support wants them:
/// machines whose refs mask misses every moved id reuse their cache.
uint64_t supportMask(const std::vector<int32_t> &Perm) {
  uint64_t M = 0;
  for (size_t I = 0; I != Perm.size(); ++I)
    if (Perm[I] != static_cast<int32_t>(I))
      M |= I < 62 ? (1ull << I) : RefsOverflowBit;
  return M;
}

} // namespace

uint64_t symmetryCandidates(const CompiledProgram &Prog) {
  // Run the lowest enabled machine until the program quiesces (or a
  // step cap), taking the false branch of every choice; every machine
  // the program creates shows up along the way.
  Executor::Options EO;
  EO.UseModelBodies = true;
  Executor Exec(Prog, EO);
  Config Cfg = Exec.makeInitialConfig();
  uint64_t Max = 1;
  for (int Steps = 0; Steps != 10000 && !Cfg.hasError(); ++Steps) {
    int32_t Id = 0;
    while (Id != static_cast<int32_t>(Cfg.Machines.size()) &&
           !Exec.isEnabled(Cfg, Id))
      ++Id;
    if (Id == static_cast<int32_t>(Cfg.Machines.size()))
      break;
    if (Exec.step(Cfg, Id).Outcome == Executor::StepOutcome::ChoicePoint)
      Cfg.mutableMachine(Id).InjectedChoice = false;
    Max = std::max(Max, candidateCount(symmetricClasses(Prog, Cfg)));
  }
  return Max;
}

void runLayerProbes(const std::string &Source, bool EraseGhosts,
                    int32_t HostEvent, uint64_t Seed, SpanRecorder *Spans,
                    Outcome &Out) {
  // Frontend: parse + sema, then lowering, each timed on its own.
  SumTimer Parse, Lower;
  {
    ScopedSpan S(Spans, "probe.frontend");
    LowerOptions LO;
    LO.EraseGhosts = EraseGhosts;
    for (int I = 0; I != FrontendReps; ++I) {
      DiagnosticEngine Diags;
      Program Ast;
      Parse.Ns += timeNs([&] { Ast = parseAndAnalyze(Source, Diags); });
      Parse.N += 1;
      if (Diags.hasErrors()) {
        std::fprintf(stderr, "perfbench: probe compile error:\n%s",
                     Diags.str().c_str());
        std::exit(2);
      }
      Lower.Ns += timeNs([&] { CompiledProgram P = lower(Ast, LO); });
      Lower.N += 1;
    }
  }
  Out.set("frontend.parse_ms", Parse.meanNs() * 1e-6, "ms");
  Out.set("frontend.lower_ms", Lower.meanNs() * 1e-6, "ms");

  // Runtime and statehash along seeded random schedules.
  CompiledProgram Prog = compileOrDie(Source, EraseGhosts);
  Executor::Options EO;
  EO.UseModelBodies = !EraseGhosts;
  Executor Exec(Prog, EO);
  for (const MachineInfo &M : Prog.Machines)
    for (const ForeignFunInfo &F : M.Funs)
      if (F.ModelBody < 0)
        Exec.registerForeign(M.Name, F.Name,
                             [](Config &, int32_t, const std::vector<Value> &) {
                               return Value::null();
                             });

  std::mt19937_64 Rng(Seed ^ 0x9e3779b97f4a7c15ull);
  SumTimer Step, Copy, HashInc, HashFresh, Permuted;
  uint64_t SerBytes = 0, SerSamples = 0, MaxCandidates = 1;
  std::string Scratch, Bytes;
  Config Root = Exec.makeInitialConfig();
  hashConfig(Root, Scratch);
  Config Cur = Root;
  int Depth = 0;
  int64_t NextSeq = 1;
  std::vector<int32_t> Enabled;
  ScopedSpan S(Spans, "probe.runtime_statehash");
  for (int Node = 0; Node < WalkSteps;) {
    Enabled.clear();
    for (int32_t Id = 0; Id != static_cast<int32_t>(Cur.Machines.size()); ++Id)
      if (Exec.isEnabled(Cur, Id))
        Enabled.push_back(Id);
    if (Cur.hasError() || Depth >= WalkDepthCap ||
        (Enabled.empty() && HostEvent < 0)) {
      Cur = Root;
      Depth = 0;
      continue;
    }
    if (Enabled.empty()) {
      // The host program quiesced: the environment publishes again.
      Exec.enqueueEvent(Cur, 0, HostEvent, Value::integer(NextSeq++));
      hashConfig(Cur, Scratch);
      continue;
    }
    int32_t Id = Enabled[Rng() % Enabled.size()];
    Config Next;
    Copy.Ns += timeNs([&] { Next = Cur; });
    Copy.N += 1;
    Executor::StepResult R;
    Step.Ns += timeNs([&] { R = Exec.step(Next, Id); });
    Step.N += 1;
    while (R.Outcome == Executor::StepOutcome::ChoicePoint) {
      Next.mutableMachine(Id).InjectedChoice = (Rng() & 1) != 0;
      Step.Ns += timeNs([&] { R = Exec.step(Next, Id); });
      Step.N += 1;
    }
    HashInc.Ns += timeNs([&] { hashConfig(Next, Scratch); });
    HashInc.N += 1;
    if (Node % FreshEvery == 0) {
      HashFresh.Ns += timeNs([&] { hashConfigFresh(Next, Scratch); });
      HashFresh.N += 1;
      Bytes.clear();
      serializeConfig(Next, Bytes);
      SerBytes += Bytes.size();
      SerSamples += 1;
    }
    if (Node % PermutedEvery == 0) {
      auto Classes = symmetricClasses(Prog, Next);
      MaxCandidates = std::max(MaxCandidates, candidateCount(Classes));
      auto Perms = candidatePerms(Next.Machines.size(), Classes);
      std::vector<int32_t> Inv(Next.Machines.size());
      for (const auto &P : Perms) {
        for (size_t I = 0; I != P.size(); ++I)
          Inv[static_cast<size_t>(P[I])] = static_cast<int32_t>(I);
        uint64_t Support = supportMask(P);
        Permuted.Ns += timeNs(
            [&] { hashConfigPermuted(Next, P, Inv, Support, Scratch); });
        Permuted.N += 1;
      }
    }
    Cur = std::move(Next);
    ++Depth;
    ++Node;
  }
  Out.set("runtime.step_ns", Step.meanNs(), "ns");
  Out.set("runtime.config_copy_ns", Copy.meanNs(), "ns");
  Out.set("statehash.hash_incremental_ns", HashInc.meanNs(), "ns");
  Out.set("statehash.hash_fresh_ns", HashFresh.meanNs(), "ns");
  Out.set("statehash.serialize_bytes",
          SerSamples ? static_cast<double>(SerBytes) /
                           static_cast<double>(SerSamples)
                     : 0,
          "bytes");
  Out.set("statehash.hash_permuted_ns", Permuted.meanNs(), "ns");
  Out.set("statehash.candidates_per_node", static_cast<double>(MaxCandidates),
          "count");
}

} // namespace bench
