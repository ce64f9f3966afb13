//===- perfbench/Support.cpp - Spans, timing and compile helpers -----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "frontend/Frontend.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace bench {

uint64_t processPeakRssBytes() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10) * 1024;
  return 0;
}

double secondsSinceSpawn(const RunOptions &Opt) {
  static const int64_t MainNs = nowNs();
  int64_t From = Opt.SpawnNs > 0 ? Opt.SpawnNs : MainNs;
  return static_cast<double>(nowNs() - From) * 1e-9;
}

p::CompiledProgram compileOrDie(const std::string &Src, bool EraseGhosts) {
  p::LowerOptions LO;
  LO.EraseGhosts = EraseGhosts;
  p::CompileResult R = p::compileString(Src, LO);
  if (!R.ok()) {
    std::fprintf(stderr, "perfbench: compile error:\n%s",
                 R.Diags.str().c_str());
    std::exit(2);
  }
  return std::move(*R.Program);
}

const std::vector<std::pair<const char *, const char *>> &perLayerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"frontend.parse_ms", "ms"},
      {"frontend.lower_ms", "ms"},
      {"runtime.step_ns", "ns"},
      {"runtime.config_copy_ns", "ns"},
      {"statehash.hash_incremental_ns", "ns"},
      {"statehash.hash_fresh_ns", "ns"},
      {"statehash.serialize_bytes", "bytes"},
      {"statehash.hash_permuted_ns", "ns"},
      {"statehash.candidates_per_node", "count"},
      {"checker.check_s", "s"},
      {"checker.states_per_s", "1/s"},
      {"checker.nodes", "count"},
      {"checker.slices", "count"},
      {"checker.visited_mb", "MB"},
      {"checker.useful_ratio", "ratio"},
      {"checker.steal_count", "count"},
      {"checker.contention_ms", "ms"},
      {"checker.symmetry_collapsed", "count"},
      {"checker.profiled_slice_s", "s"},
      {"checker.unaccounted_s", "s"},
      {"host.events_per_s", "1/s"},
      {"host.add_event_us", "us"},
      {"host.slices_per_event", "ratio"},
      {"host.create_machine_us", "us"},
      {"host.generator_lag_p99_us", "us"},
      {"host.queue_highwater", "count"},
      {"host.dispatch_p50_us", "us"},
      {"host.latency_p90_us", "us"},
      {"host.latency_p99_us", "us"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return M;
}

void zeroLayer(Outcome &Out, const char *Prefix) {
  for (const auto &[Name, Unit] : perLayerMetrics())
    if (std::string(Name).rfind(Prefix, 0) == 0)
      Out.set(Name, 0, Unit);
}

void finishTrace(const RunOptions &Opt, const SpanRecorder &Spans,
                 Outcome &Out) {
  Out.set("trace.spans", static_cast<double>(Spans.count()), "count");
  std::string Path = std::string(SpanDir) + "/spans-" + Opt.Workload +
                     "-seed" + std::to_string(Opt.Seed) + ".json";
  if (!Spans.write(Path))
    std::fprintf(stderr, "perfbench: could not write %s\n", Path.c_str());
}

//===----------------------------------------------------------------------===//
// SpanRecorder
//===----------------------------------------------------------------------===//

uint32_t SpanRecorder::nameId(const char *Name) {
  for (uint32_t I = 0; I != Names.size(); ++I)
    if (Names[I] == Name)
      return I;
  Names.emplace_back(Name);
  Aggs.emplace_back();
  return static_cast<uint32_t>(Names.size() - 1);
}

int32_t SpanRecorder::open(const char *Name) {
  uint32_t Id = nameId(Name);
  int32_t Parent = Stack.empty() ? -1 : Stack.back().Stored;
  int32_t ParentName =
      Stack.empty() ? -1 : static_cast<int32_t>(Stack.back().Name);
  int32_t StoredIdx = -1;
  int64_t Start = nowNs();
  if (Stored.size() < MaxStored) {
    StoredIdx = static_cast<int32_t>(Stored.size());
    Stored.push_back(Span{Id, Parent, Start, Start});
  }
  Stack.push_back(OpenSpan{StoredIdx, Id, Start, ParentName});
  ++Opened;
  return static_cast<int32_t>(Stack.size() - 1);
}

void SpanRecorder::close(int32_t Token) {
  int64_t End = nowNs();
  // Spans nest strictly (RAII), so the token is always the innermost.
  OpenSpan O = Stack[static_cast<size_t>(Token)];
  Stack.resize(static_cast<size_t>(Token));
  if (O.Stored >= 0)
    Stored[static_cast<size_t>(O.Stored)].End = End;
  Agg &A = Aggs[O.Name];
  A.Count += 1;
  A.TotalNs += End - O.Start;
  if (O.ParentName >= 0)
    Aggs[static_cast<size_t>(O.ParentName)].ChildNs += End - O.Start;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  // Chrome trace-event JSON (chrome://tracing, Perfetto), with the
  // aggregates in a side field the viewers ignore.
  std::fprintf(F, "{\"aggregates\": [\n");
  for (size_t I = 0; I != Names.size(); ++I)
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"count\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld}%s\n",
                 Names[I].c_str(),
                 static_cast<unsigned long long>(Aggs[I].Count),
                 static_cast<long long>(Aggs[I].TotalNs),
                 static_cast<long long>(Aggs[I].TotalNs - Aggs[I].ChildNs),
                 I + 1 == Names.size() ? "" : ",");
  std::fprintf(F, "], \"spans_opened\": %llu, \"traceEvents\": [\n",
               static_cast<unsigned long long>(Opened));
  int64_t Base = Stored.empty() ? 0 : Stored.front().Start;
  for (size_t I = 0; I != Stored.size(); ++I) {
    const Span &S = Stored[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}"
                 "%s\n",
                 Names[S.Name].c_str(),
                 static_cast<double>(S.Start - Base) * 1e-3,
                 static_cast<double>(S.End - S.Start) * 1e-3, I, S.Parent,
                 I + 1 == Stored.size() ? "" : ",");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

} // namespace bench
