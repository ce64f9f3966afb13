//===- perfbench/Bench.h - Shared pieces of the benchmark driver -----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's workloads: run options, the result
/// that becomes the final JSON line, the in-memory span recorder of the
/// traced run, and small timing/statistics helpers. Everything here
/// lives in the benchmark; the library under test is reached only
/// through its public headers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "pir/Program.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Directory (under the working directory) the traced run writes its
/// span file into.
inline constexpr const char *SpanDir = ".bench_out";

/// Command-line options of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// CLOCK_MONOTONIC nanoseconds at which the launcher spawned this
  /// process (0 = unknown; set-up is then timed from main()).
  int64_t SpawnNs = 0;
  /// host-open-loop only: offered rate (events/s) and pump, for the
  /// reference latency curve in README.md.
  double Rate = 0;
  bool Reactor = false;
};

/// One printed metric.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to main(): the final JSON line's fields
/// plus the failed-check messages, printed to stderr.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> CheckFailures;
  std::map<std::string, Metric> Metrics;

  void set(const std::string &Name, double V, const char *Unit) {
    Metrics[Name] = Metric{V, Unit};
  }
  /// Records a failed correctness check (correct becomes false).
  void fail(std::string Why) { CheckFailures.push_back(std::move(Why)); }
  /// Folds a list of check messages (empty = all passed).
  void expect(const std::vector<std::string> &Failures) {
    for (const std::string &F : Failures)
      fail(F);
  }
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile of \p V (copied, so callers keep their order).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

/// Median; the mean of the two middle values for an even count.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

/// Summed timer for a probe loop: total nanoseconds and call count.
struct SumTimer {
  int64_t Ns = 0;
  uint64_t N = 0;
  double meanNs() const {
    return N ? static_cast<double>(Ns) / static_cast<double>(N) : 0;
  }
};

/// Process peak resident set size in bytes (VmHWM), 0 if unavailable.
uint64_t processPeakRssBytes();

//===----------------------------------------------------------------------===//
// Spans of the traced run
//===----------------------------------------------------------------------===//

/// In-memory span recorder for the traced run. Spans are opened around
/// calls into the library from the benchmark's own code, kept in memory
/// and written out once when the run ends. Past a storage cap only the
/// per-name aggregates keep growing, so a long host flood cannot
/// exhaust memory.
class SpanRecorder {
public:
  struct Span {
    uint32_t Name;
    int32_t Parent; ///< Index of the enclosing span, -1 at top level.
    int64_t Start, End;
  };

  /// Opens a span; returns its token for close().
  int32_t open(const char *Name);
  void close(int32_t Token);

  /// Total spans opened (stored or not).
  uint64_t count() const { return Opened; }

  /// Writes the stored spans as Chrome trace events plus per-name
  /// aggregates (count, total and self time) to \p Path.
  bool write(const std::string &Path) const;

private:
  static constexpr size_t MaxStored = 1 << 15;
  struct Agg {
    uint64_t Count = 0;
    int64_t TotalNs = 0;
    int64_t ChildNs = 0; ///< Time covered by direct child spans.
  };
  uint32_t nameId(const char *Name);

  std::vector<std::string> Names;
  std::vector<Agg> Aggs; ///< Indexed by name id.
  std::vector<Span> Stored;
  /// Open spans, innermost last: (stored index or -1, name, start,
  /// parent name id or -1).
  struct OpenSpan {
    int32_t Stored;
    uint32_t Name;
    int64_t Start;
    int32_t ParentName;
  };
  std::vector<OpenSpan> Stack;
  uint64_t Opened = 0;
};

/// RAII span; a null recorder records nothing (the untraced runs).
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, const char *Name)
      : R(R), Token(R ? R->open(Name) : -1) {}
  ~ScopedSpan() {
    if (R)
      R->close(Token);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *R;
  int32_t Token;
};

//===----------------------------------------------------------------------===//
// Workloads and probes
//===----------------------------------------------------------------------===//

/// Names of every per-layer metric, with units, in print order. A
/// workload that bypasses a layer reports 0 for that layer's metrics.
const std::vector<std::pair<const char *, const char *>> &perLayerMetrics();

/// Reports 0 for every per-layer metric whose name starts with
/// \p Prefix (a layer the workload bypasses).
void zeroLayer(Outcome &Out, const char *Prefix);

/// Ends a traced run: records trace.spans and writes the span file.
void finishTrace(const RunOptions &Opt, const SpanRecorder &Spans,
                 Outcome &Out);

/// Compiles \p Src or aborts the run with the diagnostics on stderr.
p::CompiledProgram compileOrDie(const std::string &Src, bool EraseGhosts);

/// Per-layer probes over the workload's own program (Probes.cpp): times
/// the frontend on \p Source, and Executor::step, Config copies and the
/// StateHash functions along seeded random schedules. \p HostEvent, when
/// >= 0, is injected into machine 0 whenever the walk quiesces (the host
/// program has no environment of its own).
void runLayerProbes(const std::string &Source, bool EraseGhosts,
                    int32_t HostEvent, uint64_t Seed, SpanRecorder *Spans,
                    Outcome &Out);

/// Symmetry candidates per node of \p Prog: the product of the
/// factorials of its symmetric class sizes (live instances per
/// `symmetric` machine type), capped at 1024 like the checker's
/// enumeration.
uint64_t symmetryCandidates(const p::CompiledProgram &Prog);

/// The workloads. Each measures for Opt.Seconds, checks its outputs,
/// and fills \p Out with the end-to-end metrics (untraced) or the
/// per-layer metrics (traced).
void runGermanWorkload(const RunOptions &Opt, int Delay, int Workers,
                       Outcome &Out);
void runPoolWorkload(const RunOptions &Opt, Outcome &Out);
void runHostWorkload(const RunOptions &Opt, Outcome &Out);

/// Seconds from process spawn (or main) to now.
double secondsSinceSpawn(const RunOptions &Opt);

/// Checks that must fire on wrong inputs (SelfTest.cpp); returns the
/// number of checks that failed to fire.
int runSelfTest();

} // namespace bench

#endif // PERFBENCH_BENCH_H
