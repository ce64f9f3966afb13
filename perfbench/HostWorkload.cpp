//===- perfbench/HostWorkload.cpp - host-open-loop ---------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The host workload: Groups independent pubsub-shaped groups in one
// Host, each a Broker that fans every Publish(seq) out to Subs
// Subscribers through internal sends. A subscriber hands each message
// back to its environment through the foreign call Complete(seq), which
// the benchmark registers: that callback is where completion is
// observed, whichever pump delivered the event. The checker is not
// involved.
//
// One generator (the main thread) drives two phases:
//   open loop — Poisson arrivals at a fixed offered rate, each event
//               timed from its due time to its last subscriber's
//               completion, so a stall also delays every event due
//               during it;
//   flood     — whole batches sent back to back for the sustained
//               completed-publish rate.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "host/Host.h"
#include "obs/Metrics.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>

using namespace p;

namespace bench {

namespace {

constexpr int Groups = 64;
constexpr int Subs = 4;
constexpr double DefaultRate = 50000; ///< Offered events/s, open loop.
constexpr double OpenShare = 0.8;     ///< Share of the run in open loop.
constexpr int FloodBatch = 4096;

std::string hostSource() {
  std::string S = R"(
event unit;
// Environment -> Broker; the payload is the group's sequence number.
event Publish(int);
// Broker -> Subscriber, carrying the same sequence number.
event Deliver(int);

main machine Broker {
)";
  for (int I = 1; I <= Subs; ++I)
    S += "  var Sub" + std::to_string(I) + ": id;\n";
  S += R"(  var Published: int;

  state Starting {
    entry {
      Published = 0;
)";
  for (int I = 1; I <= Subs; ++I)
    S += "      Sub" + std::to_string(I) + " = new Subscriber();\n";
  S += R"(      raise(unit);
    }
    on unit goto Serving;
  }

  state Serving {
    entry { }
    on Publish do Fanout;
  }

  action Fanout {
    Published = Published + 1;
)";
  for (int I = 1; I <= Subs; ++I)
    S += "    send(Sub" + std::to_string(I) + ", Deliver, arg);\n";
  S += R"(  }
}

machine Subscriber {
  var Received: int;
  var Last: int;
  // Hands the message back to the environment (registered natively).
  foreign fun Complete(seq: int): void;

  state Listening {
    entry { Received = 0; Last = 0; }
    on Deliver do Consume;
  }

  action Consume {
    Received = Received + 1;
    Last = arg;
    Complete(arg);
  }
}
)";
  return S;
}

/// Completion bookkeeping shared with the Complete callback. Per-
/// subscriber fields are touched only by that subscriber's slices; the
/// per-event countdown is atomic because a group's subscribers may run
/// on different reactor workers.
struct Tracker {
  std::vector<int32_t> GroupOf, SubOf; ///< By machine id; -1 = broker.
  std::vector<std::vector<int64_t>> NextSeq, Completions;
  std::atomic<uint64_t> OutOfOrder{0};
  /// Open-loop events: per group, the event index of sequence number
  /// k + 1 (sequence numbers beyond belong to the flood).
  std::vector<std::vector<uint32_t>> OpenEvent;
  std::unique_ptr<std::atomic<int32_t>[]> Remaining;
  std::vector<int64_t> DoneNs;

  void complete(int32_t Self, int64_t Seq) {
    int32_t G = GroupOf[static_cast<size_t>(Self)];
    int32_t S = SubOf[static_cast<size_t>(Self)];
    int64_t &Next = NextSeq[G][S];
    if (Seq != Next)
      OutOfOrder.fetch_add(1, std::memory_order_relaxed);
    Next = Seq + 1;
    Completions[G][S] += 1;
    const auto &Open = OpenEvent[G];
    if (Seq >= 1 && Seq <= static_cast<int64_t>(Open.size())) {
      uint32_t E = Open[static_cast<size_t>(Seq - 1)];
      if (Remaining[E].fetch_sub(1, std::memory_order_acq_rel) == 1)
        DoneNs[E] = nowNs();
    }
  }
};

struct RoundResult {
  double SetupS = 0;
  std::vector<double> LatencyUs, LagUs;
  double EventsPerS = 0;
  double AddEventUs = 0, CreateMachineUs = 0, SlicesPerEvent = 0;
  double QueueHighWater = 0, DispatchP50Us = 0, PeakRssMb = 0;
  uint64_t Attempted = 0, Failed = 0;
  Failures Checks;
};

RoundResult runRound(const RunOptions &Opt, const CompiledProgram &Prog,
                     SpanRecorder *Spans) {
  RoundResult Out;
  std::mt19937_64 Rng(Opt.Seed);
  Tracker T;
  auto H = std::make_unique<Host>(Prog);
  H->registerForeign("Subscriber", "Complete",
                     [&T](Config &, int32_t Self, const std::vector<Value> &A) {
                       T.complete(Self, A.empty() ? -1 : A[0].asInt());
                       return Value::null();
                     });

  // Set-up: the host with every machine created.
  std::vector<int32_t> Broker(Groups);
  T.NextSeq.assign(Groups, std::vector<int64_t>(Subs, 1));
  T.Completions.assign(Groups, std::vector<int64_t>(Subs, 0));
  SumTimer Create;
  for (int G = 0; G != Groups; ++G) {
    ScopedSpan S(Spans, "host.createMachine");
    int64_t T0 = nowNs();
    Broker[G] = H->createMachine("Broker");
    Create.Ns += nowNs() - T0;
    Create.N += 1;
    if (Broker[G] < 0) {
      Out.Checks.push_back("createMachine(Broker) failed");
      return Out;
    }
    for (int I = 0; I != Subs; ++I) {
      Value Id = H->readVar(Broker[G], "Sub" + std::to_string(I + 1));
      size_t Need = static_cast<size_t>(Id.asInt()) + 1;
      if (T.GroupOf.size() < Need) {
        T.GroupOf.resize(Need, -1);
        T.SubOf.resize(Need, -1);
      }
      T.GroupOf[Need - 1] = G;
      T.SubOf[Need - 1] = I;
    }
  }
  Out.CreateMachineUs = Create.meanNs() * 1e-3;
  Out.SetupS = secondsSinceSpawn(Opt);
  if (Opt.Reactor)
    H->startReactor();

  // Open-loop schedule from the seed: Poisson arrivals, uniform groups.
  double Rate = Opt.Rate > 0 ? Opt.Rate : DefaultRate;
  size_t NOpen = static_cast<size_t>(std::llround(Rate * Opt.Seconds * OpenShare));
  std::exponential_distribution<double> Gap(Rate);
  std::vector<int64_t> DueOffset(NOpen);
  std::vector<int32_t> GroupOfEvent(NOpen);
  std::vector<int64_t> Sent(Groups, 0);
  T.OpenEvent.assign(Groups, {});
  double At = 0;
  for (size_t E = 0; E != NOpen; ++E) {
    At += Gap(Rng);
    DueOffset[E] = static_cast<int64_t>(At * 1e9);
    int32_t G = static_cast<int32_t>(Rng() % Groups);
    GroupOfEvent[E] = G;
    T.OpenEvent[G].push_back(static_cast<uint32_t>(E));
  }
  T.Remaining.reset(new std::atomic<int32_t>[NOpen]);
  for (size_t E = 0; E != NOpen; ++E)
    T.Remaining[E].store(Subs, std::memory_order_relaxed);
  T.DoneNs.assign(NOpen, 0);
  std::vector<int64_t> DueNs(NOpen);

  auto Publish = [&](int32_t G) {
    ScopedSpan S(Spans, "host.addEvent");
    ++Out.Attempted;
    if (!H->addEvent(Broker[G], "Publish", Value::integer(++Sent[G])))
      ++Out.Failed;
  };

  int64_t Base = nowNs() + 1000000;
  for (size_t E = 0; E != NOpen; ++E) {
    DueNs[E] = Base + DueOffset[E];
    int64_t Now;
    while ((Now = nowNs()) < DueNs[E]) {
    }
    Out.LagUs.push_back(static_cast<double>(Now - DueNs[E]) * 1e-3);
    Publish(GroupOfEvent[E]);
  }
  H->runToCompletion();

  // Flood: whole batches, back to back, until the phase is used up.
  double FloodSeconds = Opt.Seconds * (1 - OpenShare);
  std::vector<int32_t> Batch(FloodBatch);
  uint64_t Flooded = 0;
  std::vector<double> BatchRates;
  SumTimer AddEvent;
  int64_t F0 = nowNs(), F1 = F0;
  do {
    for (int32_t &G : Batch)
      G = static_cast<int32_t>(Rng() % Groups);
    for (int32_t G : Batch) {
      int64_t C0 = nowNs();
      Publish(G);
      AddEvent.Ns += nowNs() - C0;
      AddEvent.N += 1;
    }
    Flooded += FloodBatch;
    H->runToCompletion();
    int64_t B0 = F1;
    F1 = nowNs();
    BatchRates.push_back(FloodBatch / (static_cast<double>(F1 - B0) * 1e-9));
  } while (static_cast<double>(F1 - F0) * 1e-9 < FloodSeconds);
  if (Opt.Reactor)
    H->stopReactor();

  // The median batch keeps a short stall (or a burst) from deciding
  // the figure; the overall rate goes to stderr.
  Out.EventsPerS = median(BatchRates);
  std::fprintf(stderr,
               "perfbench: flood %llu publishes, overall %.0f/s, batch "
               "q10 %.0f quartiles %.0f %.0f %.0f /s\n",
               static_cast<unsigned long long>(Flooded),
               static_cast<double>(Flooded) /
                   (static_cast<double>(F1 - F0) * 1e-9),
               quantile(BatchRates, 0.1), quantile(BatchRates, 0.25),
               Out.EventsPerS,
               quantile(BatchRates, 0.75));
  Out.AddEventUs = AddEvent.meanNs() * 1e-3;
  Out.PeakRssMb = static_cast<double>(processPeakRssBytes()) * 1e-6;

  // Outputs against the generator's own counts.
  HostObservation O;
  O.HostError = H->hasError();
  O.Sent = Out.Attempted;
  O.Rejected = Out.Failed;
  const HostStats &St = H->stats();
  O.EventsDelivered = St.EventsDelivered;
  O.GroupSent = Sent;
  O.GroupLast = Sent; // Sequence numbers run 1..count per group.
  O.OutOfOrder = T.OutOfOrder.load();
  for (int G = 0; G != Groups; ++G) {
    O.BrokerPublished.push_back(H->readVar(Broker[G], "Published").asInt());
    std::vector<int64_t> Rec, Last;
    for (int I = 0; I != Subs; ++I) {
      int32_t Id = H->readVar(Broker[G], "Sub" + std::to_string(I + 1))
                       .asInt();
      Rec.push_back(H->readVar(Id, "Received").asInt());
      Last.push_back(H->readVar(Id, "Last").asInt());
    }
    O.SubReceived.push_back(Rec);
    O.SubLast.push_back(Last);
  }
  O.SubCompletions = T.Completions;
  for (size_t E = 0; E != NOpen; ++E) {
    if (T.Remaining[E].load() != 0) {
      ++O.Incomplete;
      continue;
    }
    Out.LatencyUs.push_back(static_cast<double>(T.DoneNs[E] - DueNs[E]) *
                            1e-3);
  }
  Out.Checks = checkHostRun(O);

  Out.SlicesPerEvent = static_cast<double>(St.SlicesRun) /
                       static_cast<double>(St.EventsDelivered);
  Out.QueueHighWater = static_cast<double>(St.QueueDepthHighWater);
  Out.DispatchP50Us = obs::histogramQuantile(H->dispatchLatency(), 0.5) * 1e6;
  return Out;
}

} // namespace

void runHostWorkload(const RunOptions &Opt, Outcome &Out) {
  SpanRecorder Rec;
  SpanRecorder *Spans = Opt.Trace ? &Rec : nullptr;
  std::string Source = hostSource();
  CompiledProgram Prog;
  {
    ScopedSpan S(Spans, "compile");
    Prog = compileOrDie(Source, true);
  }

  RoundResult R = runRound(Opt, Prog, nullptr);
  Out.Attempted += R.Attempted;
  Out.Failed += R.Failed;
  Out.expect(R.Checks);
  double P50 = median(R.LatencyUs);
  if (!Opt.Trace) {
    Out.set("setup_s", R.SetupS, "s");
    Out.set("latency_p50_us", P50, "us");
    Out.set("peak_rss_mb", R.PeakRssMb, "MB");
    std::fprintf(stderr,
                 "perfbench: host open loop %zu events, p50 %.2f us, p90 "
                 "%.2f us, p99 %.2f us, generator lag p99 %.2f us; flood "
                 "%.0f events/s\n",
                 R.LatencyUs.size(), P50, quantile(R.LatencyUs, 0.9),
                 quantile(R.LatencyUs, 0.99), quantile(R.LagUs, 0.99),
                 R.EventsPerS);
    return;
  }

  // Traced run: the same round again with a span around every Host call.
  RoundResult Tr = runRound(Opt, Prog, Spans);
  Out.Attempted += Tr.Attempted;
  Out.Failed += Tr.Failed;
  Out.expect(Tr.Checks);
  runLayerProbes(Source, true, Prog.findEvent("Publish"), Opt.Seed, Spans,
                 Out);
  zeroLayer(Out, "checker.");
  Out.set("host.events_per_s", R.EventsPerS, "1/s");
  Out.set("host.add_event_us", Tr.AddEventUs, "us");
  Out.set("host.slices_per_event", Tr.SlicesPerEvent, "ratio");
  Out.set("host.create_machine_us", Tr.CreateMachineUs, "us");
  Out.set("host.generator_lag_p99_us", quantile(R.LagUs, 0.99), "us");
  Out.set("host.queue_highwater", R.QueueHighWater, "count");
  Out.set("host.dispatch_p50_us", R.DispatchP50Us, "us");
  Out.set("host.latency_p90_us", quantile(R.LatencyUs, 0.9), "us");
  Out.set("host.latency_p99_us", quantile(R.LatencyUs, 0.99), "us");
  Out.set("trace.overhead_pct", (R.EventsPerS / Tr.EventsPerS - 1) * 100,
          "%");
  if (P50 < R.DispatchP50Us)
    Out.fail("reconciliation: outside latency p50 " + std::to_string(P50) +
             " us is below the host's dispatch p50 " +
             std::to_string(R.DispatchP50Us));
  finishTrace(Opt, Rec, Out);
}

} // namespace bench
