//===--- Daemon.cpp - daemon_mix: CompileService behind net::Server -------===//
//
// An in-process compile service (its disk store in a fresh directory, its
// memory cache smaller than the working set) behind the Unix-socket
// server. Each client connection runs a closed loop with a fixed window
// over a seeded stream that interleaves four job kinds:
//
//   hot      a small set of sources with fixed flags      -> L3 reads
//   family   a new source, then the same source under other
//            flags (IR builder: L1 hit; unroll, -O1: L2 hit)
//   unique   a source never seen before -> miss, fill, disk publish and,
//            past the budget, evictions
//   execute  `-run` on a hot source, checked against its reference
//
// The shares of the four kinds are assumed, not taken from a recorded
// stream (the repository has none); each kind's measured share of the
// round-trip time is printed with every run.
//
// The client cannot see the compile/exec split. compile_ms, exec_ms and
// code_bytes keep the meaning they have on every workload: the timed
// pass's unique sources (the jobs the service must compile from source)
// and its `-run` jobs go through the in-process job of the other
// workloads after each socket pass. The traced run replays the stream
// straight into CompileService::compile for the service side of each
// round trip.
//
//===----------------------------------------------------------------------===//
#include "Bench.h"

#include "net/Client.h"
#include "net/Server.h"
#include "runtime/KMPRuntime.h"
#include "service/CompileService.h"
#include "service/JobSpec.h"

#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

namespace pb {
namespace {

using namespace mcc;

/// Memory cache budget: holds the hot set and the recent family
/// sources, but not the unique stream, so the LRU evicts all pass long.
constexpr std::size_t CacheBudget = 6u << 20;
constexpr unsigned HotSetSize = 24;

enum class Kind { Hot, Family, Unique, Execute };
constexpr unsigned NumKinds = 4;
const char *const KindNames[NumKinds] = {"hot", "family", "unique", "execute"};

struct WireJob {
  std::string Flags;
  const Program *Prog = nullptr; ///< owned by the Stream or the hot set
  CompilerOptions Opts;          ///< Flags, parsed
  Kind K = Kind::Hot;

  svc::CompileJob compileJob() const {
    svc::CompileJob J;
    J.Source = Prog->Source;
    J.Options = Opts;
    return J;
  }
};

/// One client's job list plus the sources it points into.
struct Stream {
  std::vector<std::unique_ptr<Program>> Programs;
  std::vector<WireJob> Jobs;
};

/// A family source under each flag set in turn: cold, then an L1 hit
/// (the IR builder changes the AST), then L2 hits (unroll factor and the
/// mid-end change only the module).
const char *const FamilyFlags[] = {"", "-fopenmp-enable-irbuilder",
                                   "-unroll-factor=2",
                                   "-fopenmp-enable-irbuilder -unroll-factor=2",
                                   "-O1"};
constexpr unsigned NumFamilyFlags = 5;

/// Slot pattern of ten jobs: 4 hot, 2 family, 2 unique, 2 execute. An
/// assumed mix: reads outnumber writes, and every kind recurs every ten
/// jobs, so a pass of any length holds each in the same share.
const Kind Pattern[] = {Kind::Hot,    Kind::Family, Kind::Unique,
                        Kind::Hot,    Kind::Execute, Kind::Hot,
                        Kind::Family, Kind::Unique,  Kind::Hot,
                        Kind::Execute};

/// Execute jobs run on an OpenMP team of one: a hot source runs for tens
/// of microseconds, where waking a parked team would be most of the time
/// and most of the noise. kernel_run measures the team.
const char *const ExecuteFlags = "-run -num-threads=1";

WireJob makeWire(const Program &P, std::string Flags, Kind K) {
  WireJob W;
  W.Flags = std::move(Flags);
  W.Prog = &P;
  W.K = K;
  svc::CompileJob J;
  std::string Err;
  for (const std::string &Word : svc::splitJobWords(W.Flags))
    svc::parseJobFlagWord(Word, J, Err);
  W.Opts = J.Options;
  return W;
}

/// The hot set: shared by every stream of a seed. Trip counts up to 12
/// give its `-run` jobs a few hundred microseconds of execution, long
/// enough not to be timing cache misses alone.
std::vector<std::unique_ptr<Program>> makeHotSet(std::uint64_t Seed) {
  Draw D(0x686f74ull, Seed);
  unsigned Cursor = 0;
  std::vector<std::unique_ptr<Program>> Hot;
  for (unsigned I = 0; I < HotSetSize; ++I)
    Hot.push_back(std::make_unique<Program>(
        makeNestProgram(D, 1, 1 + I % 2, 12, Cursor)));
  return Hot;
}

/// Client \p Client's stream for pass \p PassId (below Rounds: the
/// warm-ups; Rounds: the timed pass). Unique and family sources are fresh
/// in every pass, so a warm-up never turns the timed pass's misses into
/// hits.
Stream makeStream(std::uint64_t Seed, unsigned PassId, unsigned Client,
                  unsigned Count,
                  const std::vector<std::unique_ptr<Program>> &Hot) {
  Draw D(0x6d6978ull + PassId * 7 + Client, Seed);
  Rng &R = D.Shape;
  Stream S;
  unsigned Cursor = PassId * 5 + Client;
  auto HotPick = [&]() -> const Program & {
    return *Hot[static_cast<std::size_t>(R.range(0, HotSetSize - 1))];
  };
  auto Fresh = [&]() -> const Program & {
    S.Programs.push_back(
        std::make_unique<Program>(makeNestProgram(D, 1, 1, 6, Cursor)));
    return *S.Programs.back();
  };
  // Family sources in flight: each is requested under every flag set,
  // one flag set per family slot, before it retires.
  std::vector<std::pair<const Program *, unsigned>> Families;
  for (unsigned I = 0; I < Count; ++I) {
    Kind K = Pattern[I % 10];
    switch (K) {
    case Kind::Hot:
      S.Jobs.push_back(makeWire(HotPick(), "", K));
      break;
    case Kind::Execute:
      S.Jobs.push_back(makeWire(HotPick(), ExecuteFlags, K));
      break;
    case Kind::Unique:
      S.Jobs.push_back(makeWire(Fresh(), "", K));
      break;
    case Kind::Family: {
      if (Families.size() < 3 || R.range(0, 3) == 0)
        Families.push_back({&Fresh(), 0});
      std::size_t Pick = static_cast<std::size_t>(
          R.range(0, static_cast<std::int64_t>(Families.size()) - 1));
      auto &[P, Next] = Families[Pick];
      S.Jobs.push_back(makeWire(*P, FamilyFlags[Next], K));
      if (++Next == NumFamilyFlags)
        Families.erase(Families.begin() + static_cast<std::ptrdiff_t>(Pick));
      break;
    }
    }
  }
  return S;
}

bool checkResult(const WireJob &W, const net::ResultMsg &R, JobSample &S) {
  if (R.Status != net::ResultStatus::Ok) {
    S.Why = "daemon status " + std::to_string(static_cast<int>(R.Status)) +
            ": " + R.Diagnostics;
    return false;
  }
  if (W.K == Kind::Execute &&
      (!R.Executed || R.ExitValue != W.Prog->Reference)) {
    S.Why = "main returned " + std::to_string(R.ExitValue) + ", reference " +
            std::to_string(W.Prog->Reference);
    return false;
  }
  return true;
}

struct ClientTotals {
  std::uint64_t Rejects = 0, Retries = 0;
};

/// One closed-loop client: at most \p Window jobs in flight; the next is
/// sent only when a result comes back. Fills \p Out[i] for job i and,
/// with \p RoundTrips, a span per job numbered from \p IdBase.
std::string clientLoop(const std::string &SocketPath, const Stream &S,
                       unsigned Window, std::vector<JobSample> &Out,
                       ClientTotals &Totals, std::uint32_t IdBase,
                       std::vector<Span> *RoundTrips) {
  net::Client C;
  std::string Error;
  if (!C.connect(SocketPath, Error))
    return Error;
  Out.assign(S.Jobs.size(), JobSample());
  std::vector<std::int64_t> Sent(S.Jobs.size(), 0);
  std::size_t Next = 0, Done = 0, InFlight = 0;
  auto Submit = [&](std::size_t I) {
    const WireJob &W = S.Jobs[I];
    ++InFlight;
    return C.submit(I + 1, "input.c", W.Flags, W.Prog->Source);
  };
  while (Done < S.Jobs.size()) {
    while (Next < S.Jobs.size() && InFlight < Window) {
      Sent[Next] = nowNs();
      if (!Submit(Next++))
        return "lost connection to the daemon";
    }
    net::ClientEvent Ev;
    if (!C.next(Ev, Error))
      return Error.empty() ? "daemon closed the connection" : Error;
    if (Ev.JobId == 0 || Ev.JobId > S.Jobs.size())
      continue;
    const std::size_t I = Ev.JobId - 1;
    --InFlight;
    if (Ev.Type == net::MsgType::Reject) {
      ++Totals.Rejects;
      if (Ev.Reject.Code == net::RejectCode::Busy ||
          Ev.Reject.Code == net::RejectCode::Quota) {
        // Resubmitted under its first send time: the wait counts.
        ++Totals.Retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            Ev.Reject.RetryAfterMs ? Ev.Reject.RetryAfterMs : 20));
        if (!Submit(I))
          return "lost connection to the daemon";
        continue;
      }
      Out[I].JobMs = static_cast<double>(nowNs() - Sent[I]) / 1e6;
      Out[I].Why = "rejected: " + Ev.Reject.Message;
      ++Done;
      continue;
    }
    if (Ev.Type != net::MsgType::Result)
      continue;
    const std::int64_t End = nowNs();
    Out[I].JobMs = static_cast<double>(End - Sent[I]) / 1e6;
    Out[I].Ok = checkResult(S.Jobs[I], Ev.Result, Out[I]);
    if (RoundTrips)
      RoundTrips->push_back({"net.roundtrip",
                             IdBase + static_cast<std::uint32_t>(I), -1,
                             Sent[I], End});
    ++Done;
  }
  return std::string();
}

/// A service, optionally behind its socket server, in a fresh directory
/// that is removed with it.
struct Env {
  std::string Dir;
  std::unique_ptr<svc::CompileService> Service;
  std::unique_ptr<net::Server> Server;
  std::string SocketPath;

  ~Env() {
    Server.reset();
    Service.reset();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
};

std::unique_ptr<Env> makeEnv(const DaemonConfig &Cfg, const std::string &Name,
                             bool WithServer, std::string &Error) {
  auto E = std::make_unique<Env>();
  E->Dir = Cfg.TmpDir + "/" + Name;
  std::error_code EC;
  std::filesystem::remove_all(E->Dir, EC);
  std::filesystem::create_directories(E->Dir, EC);
  if (EC) {
    Error = "cannot create " + E->Dir + ": " + EC.message();
    return nullptr;
  }
  svc::ServiceOptions O;
  O.NumWorkers = Cfg.Workers;
  O.CacheBudgetBytes = CacheBudget;
  O.DiskStorePath = E->Dir + "/store";
  E->Service = std::make_unique<svc::CompileService>(O);
  if (WithServer) {
    net::ServerOptions SO;
    E->SocketPath = E->Dir + "/s.sock";
    SO.SocketPath = E->SocketPath;
    E->Server = std::make_unique<net::Server>(*E->Service, SO);
    if (!E->Server->start(Error))
      return nullptr;
  }
  return E;
}

/// Runs every client's stream concurrently against \p E; Out[i] is job i
/// of the streams laid end to end. With \p RoundTrips, also one span per
/// job (they overlap across clients, so they have no parent).
std::string socketPass(const Env &E, const std::vector<Stream> &Streams,
                       unsigned Window, std::vector<JobSample> &Out,
                       ClientTotals &Totals,
                       std::vector<Span> *RoundTrips = nullptr) {
  std::vector<std::vector<JobSample>> Per(Streams.size());
  std::vector<std::vector<Span>> PerSpans(Streams.size());
  std::vector<ClientTotals> PerTotals(Streams.size());
  std::vector<std::string> Errors(Streams.size());
  {
    std::vector<std::thread> Threads;
    std::uint32_t Base = 0;
    for (std::size_t C = 0; C < Streams.size(); ++C) {
      Threads.emplace_back([&, C, Base] {
        Errors[C] = clientLoop(E.SocketPath, Streams[C], Window, Per[C],
                               PerTotals[C], Base,
                               RoundTrips ? &PerSpans[C] : nullptr);
      });
      Base += static_cast<std::uint32_t>(Streams[C].Jobs.size());
    }
    for (std::thread &T : Threads)
      T.join();
  }
  for (std::size_t C = 0; C < Streams.size(); ++C) {
    if (!Errors[C].empty())
      return Errors[C];
    Out.insert(Out.end(), Per[C].begin(), Per[C].end());
    Totals.Rejects += PerTotals[C].Rejects;
    Totals.Retries += PerTotals[C].Retries;
    if (RoundTrips)
      RoundTrips->insert(RoundTrips->end(), PerSpans[C].begin(),
                         PerSpans[C].end());
  }
  return std::string();
}

/// Replays \p S straight into the service: compile through the cache,
/// then (Execute jobs) build an engine on the cached module and run
/// main. With a tracer, one "service.job" span per Execute job and one
/// span per call.
void replayStream(svc::CompileService &Svc, const Stream &S, Tracer *T,
                  std::uint32_t IdBase, std::vector<JobSample> &Out) {
  for (std::size_t I = 0; I < S.Jobs.size(); ++I) {
    const WireJob &W = S.Jobs[I];
    const std::uint32_t Id = IdBase + static_cast<std::uint32_t>(I);
    JobSample Smp;
    svc::CompileJob CJ = W.compileJob();
    svc::CompileResult R;
    std::int64_t Value = 0;
    std::unique_ptr<interp::ExecutionEngine> EE;
    // A compile-only job is one service call, so its span is the job's
    // root; an Execute job's root span holds its calls. Timestamps are
    // taken inside the child spans, so that a root holds nothing but its
    // children.
    std::int64_t T0 = 0, T1 = 0;
    Scope Job(W.K == Kind::Execute ? T : nullptr, "service.job", Id);
    {
      Scope Sp(T, "service.compile", Id);
      T0 = nowNs();
      R = Svc.compile(CJ);
      T1 = nowNs();
    }
    if (W.K == Kind::Execute && R.Succeeded && R.Module->hasLiveModule()) {
      {
        Scope Sp(T, "interp.init", Id);
        EE = std::make_unique<interp::ExecutionEngine>(
            R.Module->module(), W.Opts.ExecEngine, R.Module->Bytecode);
      }
      Scope Sp(T, "interp.exec", Id);
      Value = EE->runFunction("main", {}).I;
      T1 = nowNs();
    } else if (W.K == Kind::Execute) {
      // Served as a disk stub, which holds no module: the service's own
      // Execute path promotes it, compiling and running in one call.
      Scope Sp(T, "service.execute", Id);
      CJ.Execute = true;
      R = Svc.compile(CJ);
      Value = R.ExitValue;
      T1 = nowNs();
    }
    Job.close();
    Smp.JobMs = static_cast<double>(T1 - T0) / 1e6;
    Smp.Ok = R.Succeeded &&
             (W.K != Kind::Execute || Value == W.Prog->Reference);
    if (!Smp.Ok)
      Smp.Why = R.Succeeded ? "replayed main returned " + std::to_string(Value)
                            : "replayed compile failed: " + R.Diagnostics;
    Out.push_back(std::move(Smp));
  }
}

/// Replays every client's stream, one thread per client; Out[i] is job
/// i of the streams laid end to end.
void replay(svc::CompileService &Svc, const std::vector<Stream> &Streams,
            std::vector<Tracer> *Tracers, std::vector<JobSample> &Out) {
  std::vector<std::vector<JobSample>> Per(Streams.size());
  {
    std::vector<std::thread> Threads;
    std::uint32_t Base = 0;
    for (std::size_t C = 0; C < Streams.size(); ++C) {
      if (Tracers)
        (*Tracers)[C].reserve(Streams[C].Jobs.size() * 4);
      Threads.emplace_back([&, C, Base] {
        replayStream(Svc, Streams[C], Tracers ? &(*Tracers)[C] : nullptr,
                     Base, Per[C]);
      });
      Base += static_cast<std::uint32_t>(Streams[C].Jobs.size());
    }
    for (std::thread &T : Threads)
      T.join();
  }
  for (auto &P : Per)
    Out.insert(Out.end(), P.begin(), P.end());
}

double ratio(std::uint64_t Hits, std::uint64_t Misses) {
  return Hits + Misses ? static_cast<double>(Hits) /
                             static_cast<double>(Hits + Misses)
                       : 0.0;
}

void collectFailures(const std::vector<JobSample> &Samples,
                     DaemonReport &Rep) {
  Rep.Attempted += Samples.size();
  for (const JobSample &S : Samples)
    if (!S.Ok)
      Rep.Failures.push_back(S);
}

/// Fills the service.* and net.* metrics from the last round's socket
/// pass (service counters \p S0 -> \p S1, client totals) and the traced
/// replay of the same stream.
void layerMetrics(const svc::ServiceStatsSnapshot &S0,
                  const svc::ServiceStatsSnapshot &S1,
                  const ClientTotals &Totals,
                  const std::vector<JobSample> &Pass,
                  const std::vector<JobSample> &TracedReplay,
                  DaemonReport &Rep) {
  std::map<std::string, SpanTotals> T = summarize(Rep.Spans);
  const double N = static_cast<double>(Pass.size());
  double RoundTrip = 0, ReplayMs = 0;
  for (const JobSample &S : Pass)
    RoundTrip += S.JobMs;
  for (const JobSample &S : TracedReplay)
    ReplayMs += S.JobMs;
  auto Delta = [](std::uint64_t A, std::uint64_t B) {
    return static_cast<double>(B - A);
  };
  auto Sum3 = [](const svc::ServiceStatsSnapshot &S,
                 std::uint64_t svc::CacheLevelSnapshot::*F) {
    return S.L1.*F + S.L2.*F + S.L3.*F;
  };
  Metrics &L = Rep.Layer;
  L["service.compile_ms"] = {T["service.compile"].SelfMs / N, "ms"};
  L["interp.init_ms"] = {T["interp.init"].SelfMs / N, "ms"};
  L["interp.exec_ms"] = {T["interp.exec"].SelfMs / N, "ms"};
  L["service.l1_hit_ratio"] = {
      ratio(S1.L1.Hits - S0.L1.Hits, S1.L1.Misses - S0.L1.Misses), "1"};
  L["service.l2_hit_ratio"] = {
      ratio(S1.L2.Hits - S0.L2.Hits, S1.L2.Misses - S0.L2.Misses), "1"};
  L["service.l3_hit_ratio"] = {
      ratio(S1.L3.Hits - S0.L3.Hits, S1.L3.Misses - S0.L3.Misses), "1"};
  L["service.disk_hit_ratio"] = {
      ratio(S1.Disk.Hits - S0.Disk.Hits, S1.Disk.Misses - S0.Disk.Misses),
      "1"};
  L["service.inflight_waits"] = {
      Delta(Sum3(S0, &svc::CacheLevelSnapshot::InFlightWaits),
            Sum3(S1, &svc::CacheLevelSnapshot::InFlightWaits)),
      "count"};
  L["service.evictions"] = {
      Delta(Sum3(S0, &svc::CacheLevelSnapshot::Evictions),
            Sum3(S1, &svc::CacheLevelSnapshot::Evictions)),
      "count"};
  L["service.disk_stores"] = {Delta(S0.Disk.Stores, S1.Disk.Stores), "count"};
  L["net.roundtrip_ms"] = {RoundTrip / N, "ms"};
  L["net.self_ms"] = {(RoundTrip - ReplayMs) / N, "ms"};
  L["net.rejects"] = {static_cast<double>(Totals.Rejects), "count"};
  L["net.retries"] = {static_cast<double>(Totals.Retries), "count"};
  const double ExecMs = T["interp.init"].SelfMs + T["interp.exec"].SelfMs +
                        T["service.execute"].SelfMs;
  std::printf("# shares of round-trip time: front end and mid-end 0.0%% "
              "(inside the service), bytecode/JIT/runtime %.1f%%, "
              "service/net %.1f%%\n",
              100 * ExecMs / RoundTrip, 100 - 100 * ExecMs / RoundTrip);
}

/// IR parity: every distinct (source, flags) of \p Streams must print the
/// same IR through the service as through CompilerInstance. Returns the
/// number that differ.
std::uint64_t parityFailures(const DaemonConfig &Cfg,
                             const std::vector<Stream> &Streams,
                             std::string &Error) {
  std::unique_ptr<Env> E = makeEnv(Cfg, "parity", false, Error);
  if (!E)
    return 0;
  std::uint64_t Failures = 0;
  std::set<std::pair<const Program *, std::string>> Seen;
  for (const Stream &St : Streams)
    for (const WireJob &W : St.Jobs) {
      if (!Seen.insert({W.Prog, W.Flags}).second)
        continue;
      svc::CompileResult R = E->Service->compile(W.compileJob());
      CompilerInstance CI(W.Opts);
      bool OK = CI.compileSource(W.Prog->Source);
      if (OK != R.Succeeded || (OK && CI.getIRText() != R.Module->irText()))
        ++Failures;
    }
  return Failures;
}

/// The jobs behind compile_ms, exec_ms and code_bytes: each unique source
/// (a full compile from source in the service) compiled alone, and each
/// `-run` job compiled and run, as the in-process workloads do.
std::vector<Job> splitJobs(const std::vector<Stream> &Streams) {
  std::vector<Job> Jobs;
  for (const Stream &St : Streams)
    for (const WireJob &W : St.Jobs) {
      if (W.K != Kind::Unique && W.K != Kind::Execute)
        continue;
      Job J;
      J.Source = W.Prog->Source;
      J.Opts = W.Opts;
      J.Reference = W.Prog->Reference;
      J.Execute = W.K == Kind::Execute;
      J.Label = KindNames[static_cast<unsigned>(W.K)];
      Jobs.push_back(std::move(J));
    }
  return Jobs;
}

/// Each job kind's share of the jobs and of the round-trip time summed
/// over \p Rounds (each the streams laid end to end).
void printKindShares(const std::vector<Stream> &Streams,
                     const std::vector<std::vector<JobSample>> &Rounds) {
  double Ms[NumKinds] = {}, Total = 0;
  std::size_t Count[NumKinds] = {}, I = 0;
  for (const Stream &St : Streams)
    for (const WireJob &W : St.Jobs) {
      const unsigned K = static_cast<unsigned>(W.K);
      for (const std::vector<JobSample> &Pass : Rounds) {
        Ms[K] += Pass[I].JobMs;
        Total += Pass[I].JobMs;
      }
      ++I;
      ++Count[K];
    }
  std::printf("# job kinds (share of jobs / of round-trip time):");
  for (unsigned K = 0; K < NumKinds; ++K)
    std::printf(" %s %.0f%% / %.1f%%", KindNames[K],
                100.0 * static_cast<double>(Count[K]) /
                    static_cast<double>(I),
                Total > 0 ? 100 * Ms[K] / Total : 0.0);
  std::printf("\n");
}

/// Replays the warm-up and then the timed streams into a fresh service,
/// traced when \p Tracers is given; Out holds the timed jobs.
std::string replayFresh(const DaemonConfig &Cfg, const char *Name,
                        const std::vector<Stream> &Warm,
                        const std::vector<Stream> &Timed,
                        std::vector<Tracer> *Tracers, DaemonReport &Rep,
                        std::vector<JobSample> &Out) {
  std::string Error;
  std::unique_ptr<Env> E = makeEnv(Cfg, Name, false, Error);
  if (!E)
    return Error;
  std::vector<JobSample> WarmReplay;
  replay(*E->Service, Warm, nullptr, WarmReplay);
  replay(*E->Service, Timed, Tracers, Out);
  collectFailures(WarmReplay, Rep);
  collectFailures(Out, Rep);
  return std::string();
}

} // namespace

DaemonReport runDaemonMix(const DaemonConfig &Cfg) {
  DaemonReport Rep;
  std::vector<std::unique_ptr<Program>> Hot;
  std::vector<Stream> Timed, Warm;
  std::vector<std::vector<JobSample>> SplitRounds;
  svc::ServiceStatsSnapshot S0, S1;
  ClientTotals Totals;
  std::vector<Span> RoundTrips;

  for (unsigned Round = 0; Round < Rounds; ++Round) {
    // Set-up: generate the streams, start a fresh service and server,
    // and warm them with a stream of the same shape, 1/Rounds as long.
    const std::int64_t T0 = nowNs();
    Timed.clear();
    Warm.clear();
    Hot = makeHotSet(Cfg.Seed);
    for (unsigned C = 0; C < Cfg.Clients; ++C) {
      Timed.push_back(makeStream(Cfg.Seed, Rounds, C, Cfg.JobsPerClient, Hot));
      Warm.push_back(
          makeStream(Cfg.Seed, Round, C, Cfg.JobsPerClient / Rounds, Hot));
    }
    const std::vector<Job> Split = splitJobs(Timed);
    std::unique_ptr<Env> E =
        makeEnv(Cfg, "daemon" + std::to_string(Round), true, Rep.Error);
    if (!E)
      return Rep;
    std::vector<JobSample> WarmOut;
    ClientTotals WarmTotals;
    Rep.Error = socketPass(*E, Warm, Cfg.Window, WarmOut, WarmTotals);
    if (!Rep.Error.empty())
      return Rep;
    collectFailures(WarmOut, Rep);
    Rep.SetupSeconds.push_back(msSince(T0) / 1e3);

    // Timed pass through the socket.
    S0 = E->Service->statsSnapshot();
    Totals = ClientTotals();
    std::vector<JobSample> Pass;
    const bool LastTraced = Cfg.Trace && Round + 1 == Rounds;
    const std::int64_t P0 = nowNs();
    Rep.Error = socketPass(*E, Timed, Cfg.Window, Pass, Totals,
                           LastTraced ? &RoundTrips : nullptr);
    if (!Rep.Error.empty())
      return Rep;
    Rep.PassSeconds.push_back(msSince(P0) / 1e3);
    S1 = E->Service->statsSnapshot();
    E.reset();
    collectFailures(Pass, Rep);
    Rep.SocketRounds.push_back(std::move(Pass));

    // The compile/exec split, in process, on the team of one the `-run`
    // jobs ask the service for.
    mcc::rt::OpenMPRuntime::get().setDefaultNumThreads(1);
    std::vector<JobSample> SplitPass;
    for (const Job &J : Split)
      SplitPass.push_back(runJob(J));
    collectFailures(SplitPass, Rep);
    SplitRounds.push_back(std::move(SplitPass));
    releaseFreeMemory();
  }
  Rep.Split = bestOf(SplitRounds);
  printKindShares(Timed, Rep.SocketRounds);
  if (!Cfg.Trace)
    return Rep;

  // Traced: the timed streams replayed into a fresh service warmed like
  // the last round's, once untraced (the baseline of the tracing
  // overhead) and once with a span per service call.
  std::vector<JobSample> UntracedReplay, TracedReplay;
  std::vector<Tracer> Tracers(Timed.size());
  Rep.Error = replayFresh(Cfg, "untraced", Warm, Timed, nullptr, Rep,
                          UntracedReplay);
  if (Rep.Error.empty())
    Rep.Error = replayFresh(Cfg, "traced", Warm, Timed, &Tracers, Rep,
                            TracedReplay);
  if (!Rep.Error.empty())
    return Rep;
  std::vector<double> Untraced, Traced;
  for (const JobSample &S : UntracedReplay)
    Untraced.push_back(S.JobMs);
  for (const JobSample &S : TracedReplay)
    Traced.push_back(S.JobMs);
  Rep.UntracedJobMsP50 = median(Untraced);
  Rep.TracedJobMsP50 = median(Traced);
  for (Tracer &T : Tracers) {
    const std::int32_t Shift = static_cast<std::int32_t>(Rep.Spans.size());
    for (Span S : T.Spans) {
      if (S.Parent >= 0)
        S.Parent += Shift;
      Rep.Spans.push_back(S);
    }
  }
  // Coverage of each replayed Execute job by its call spans.
  {
    std::vector<std::int64_t> Cpu(Rep.Spans.size(), 0),
        Wall(Rep.Spans.size(), 0);
    for (const Span &S : Rep.Spans)
      if (S.Parent >= 0) {
        Cpu[static_cast<std::size_t>(S.Parent)] += S.CpuEndNs - S.CpuStartNs;
        Wall[static_cast<std::size_t>(S.Parent)] += S.EndNs - S.StartNs;
      }
    for (std::size_t I = 0; I < Rep.Spans.size(); ++I)
      if (std::string_view(Rep.Spans[I].Name) == "service.job")
        Rep.Cover.add(Rep.Spans[I], Cpu[I], Wall[I]);
    Rep.Cover.finish();
    for (std::uint64_t I = 0; I < Rep.Cover.Failures; ++I) {
      JobSample Bad;
      Bad.Why = "spans cover less than 95% of a replayed job";
      Rep.Failures.push_back(Bad);
    }
  }
  // The last round's client round trips.
  Rep.Spans.insert(Rep.Spans.end(), RoundTrips.begin(), RoundTrips.end());
  layerMetrics(S0, S1, Totals, Rep.SocketRounds.back(), TracedReplay, Rep);

  if (std::uint64_t Bad = parityFailures(Cfg, Timed, Rep.Error)) {
    JobSample S;
    S.Why = std::to_string(Bad) +
            " programs print different IR through the service";
    Rep.Failures.push_back(S);
  }
  return Rep;
}

} // namespace pb
