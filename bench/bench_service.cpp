//===--- bench_service.cpp - E14/E17: compile-service + daemon throughput --===//
//
// Measures what the content-addressed cache buys: cold (every request
// misses all three levels) vs warm (L3 hit) compile cost, partial reuse
// (an unroll-factor sweep sharing one token stream and AST), batch
// throughput on the 4-worker pool, and N concurrent clients hammering a
// warm cache. The acceptance figure for this subsystem is the cold vs
// warm batch-throughput ratio at 4 workers (>= 5x), recorded in
// BENCH_service.json.
//
// E17 adds the persistence and daemon layers: cold-start recovery (a
// fresh process answering the same job mix from the on-disk artifact
// store vs recompiling everything; acceptance >= 10x) and multi-client
// socket throughput against one daemon (round-trip and pipelined, up to
// 2x hardware threads, zero dropped jobs).
//
//===----------------------------------------------------------------------===//
#include "BenchUtils.h"
#include "RecoverySource.h"

#include "net/Client.h"
#include "net/Server.h"
#include "service/CompileService.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace mcc;

namespace {

/// A program with enough front-end surface (pragmas, nest, macro) that a
/// cold compile is real work.
std::string makeProgram(std::uint64_t Tag) {
  std::string S = "#define N 48\n";
  S += "long acc" + std::to_string(Tag) + " = " + std::to_string(Tag) + ";\n";
  S += "int a[N * N];\n"
       "int main(void) {\n"
       "  #pragma omp parallel for collapse(2)\n"
       "  for (int i = 0; i < N; i = i + 1)\n"
       "    for (int j = 0; j < N; j = j + 1)\n"
       "      a[i * N + j] = i + 2 * j;\n"
       "  long sum = 0;\n"
       "  #pragma omp unroll partial(4)\n"
       "  for (int k = 0; k < N * N; k = k + 1)\n"
       "    sum += a[k];\n"
       "  int out = sum;\n"
       "  return out;\n"
       "}\n";
  return S;
}

svc::CompileJob makeJob(std::string Source) {
  svc::CompileJob Job;
  Job.Source = std::move(Source);
  Job.Options.RunMidend = true;
  return Job;
}

std::atomic<std::uint64_t> UniqueTag{1};

} // namespace

//===----------------------------------------------------------------------===//
// Single-client latency: cold chain vs L3 hit vs partial reuse.
//===----------------------------------------------------------------------===//

void BM_ServiceColdCompile(benchmark::State &State) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  svc::CompileService Service(SO);
  for (auto _ : State) {
    // A tag never seen before: misses L1, L2 and L3.
    svc::CompileResult R =
        Service.compile(makeJob(makeProgram(UniqueTag.fetch_add(1))));
    benchmark::DoNotOptimize(R.Succeeded);
  }
}
BENCHMARK(BM_ServiceColdCompile);

void BM_ServiceWarmHit(benchmark::State &State) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  svc::CompileService Service(SO);
  svc::CompileJob Job = makeJob(makeProgram(0));
  Service.compile(Job); // prime
  for (auto _ : State) {
    svc::CompileResult R = Service.compile(Job);
    benchmark::DoNotOptimize(R.Trace.L3Hit);
  }
}
BENCHMARK(BM_ServiceWarmHit);

void BM_ServiceUnrollSweepSharesFrontend(benchmark::State &State) {
  // Mid-end knob sweep over one program: after the first lap every
  // factor's module is cached; the lap before that reused one token
  // stream and one AST four times (L3-only divergence).
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  svc::CompileService Service(SO);
  std::string Source = makeProgram(0);
  for (auto _ : State) {
    for (unsigned Factor : {2u, 4u, 8u, 16u}) {
      svc::CompileJob Job = makeJob(Source);
      Job.Options.UnrollOpts.HeuristicFactor = Factor;
      svc::CompileResult R = Service.compile(Job);
      benchmark::DoNotOptimize(R.Succeeded);
    }
  }
  State.SetItemsProcessed(State.iterations() * 4);
}
BENCHMARK(BM_ServiceUnrollSweepSharesFrontend);

//===----------------------------------------------------------------------===//
// Batch throughput on the worker pool (the acceptance ratio: warm vs
// cold items/s at 4 workers).
//===----------------------------------------------------------------------===//

constexpr unsigned BatchSize = 32;

void BM_ServiceBatchCold4Workers(benchmark::State &State) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 4;
  svc::CompileService Service(SO);
  for (auto _ : State) {
    std::vector<std::future<svc::CompileResult>> Futures;
    Futures.reserve(BatchSize);
    for (unsigned I = 0; I < BatchSize; ++I)
      Futures.push_back(
          Service.enqueue(makeJob(makeProgram(UniqueTag.fetch_add(1)))));
    for (auto &F : Futures)
      benchmark::DoNotOptimize(F.get().Succeeded);
  }
  State.SetItemsProcessed(State.iterations() * BatchSize);
}
BENCHMARK(BM_ServiceBatchCold4Workers)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServiceBatchWarm4Workers(benchmark::State &State) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 4;
  svc::CompileService Service(SO);
  // Eight distinct warm programs: requests spread over the cache instead
  // of serializing on one slot's publication.
  std::vector<svc::CompileJob> Jobs;
  for (unsigned I = 0; I < 8; ++I) {
    Jobs.push_back(makeJob(makeProgram(1000 + I)));
    Service.compile(Jobs.back()); // prime
  }
  for (auto _ : State) {
    std::vector<std::future<svc::CompileResult>> Futures;
    Futures.reserve(BatchSize);
    for (unsigned I = 0; I < BatchSize; ++I)
      Futures.push_back(Service.enqueue(Jobs[I % Jobs.size()]));
    for (auto &F : Futures)
      benchmark::DoNotOptimize(F.get().Succeeded);
  }
  State.SetItemsProcessed(State.iterations() * BatchSize);
}
BENCHMARK(BM_ServiceBatchWarm4Workers)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

//===----------------------------------------------------------------------===//
// N-client scaling against one warm service.
//===----------------------------------------------------------------------===//

namespace {
std::once_flag ClientsPrimeFlag;
svc::CompileService *clientsService() {
  static svc::ServiceOptions SO = [] {
    svc::ServiceOptions O;
    O.NumWorkers = 1; // clients call compile() directly; no pool needed
    return O;
  }();
  static svc::CompileService Service(SO);
  return &Service;
}
} // namespace

void BM_ServiceWarmClients(benchmark::State &State) {
  svc::CompileService *Service = clientsService();
  std::call_once(ClientsPrimeFlag, [&] {
    for (unsigned I = 0; I < 8; ++I)
      Service->compile(makeJob(makeProgram(2000 + I)));
  });
  unsigned I = static_cast<unsigned>(State.thread_index());
  for (auto _ : State) {
    svc::CompileResult R =
        Service->compile(makeJob(makeProgram(2000 + (I++ % 8))));
    benchmark::DoNotOptimize(R.Trace.L3Hit);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ServiceWarmClients)->ThreadRange(1, 8)->UseRealTime();

//===----------------------------------------------------------------------===//
// E17a: cold-start recovery. A fresh service process answering a known
// job mix — once with nothing (full recompiles), once warm-from-disk
// (every job served from the artifact store). The acceptance ratio is
// recovery >= 10x over cold on this mix.
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned RecoveryMix = 8;

/// The E17 job mix (bench/RecoverySource.h): eight pragma-annotated
/// nests per program, so a cold compile pays real front-end and mid-end
/// cost.
svc::CompileJob recoveryJob(unsigned I) {
  return makeJob(bench::recoverySource(I));
}

/// One-time population of a store root with the recovery mix.
const std::string &recoveryStoreRoot() {
  static const std::string Root = [] {
    std::string R = std::filesystem::temp_directory_path().string() +
                    "/mcc_bench_store_" + std::to_string(::getpid());
    std::filesystem::remove_all(R);
    svc::ServiceOptions SO;
    SO.NumWorkers = 4;
    SO.DiskStorePath = R;
    svc::CompileService Service(SO);
    for (unsigned I = 0; I < RecoveryMix; ++I) {
      // A failing mix would persist (and replay) cheap failure verdicts,
      // silently turning the recovery ratio into a diagnostics benchmark.
      if (!Service.compile(recoveryJob(I)).Succeeded) {
        std::fprintf(stderr, "recovery mix job %u does not compile\n", I);
        std::abort();
      }
    }
    Service.shutdown(); // flushes the index
    return R;
  }();
  return Root;
}

void runColdStart(benchmark::State &State, const std::string &DiskRoot) {
  // Timed: answering the mix on a fresh service, synchronously — the
  // compile-vs-disk-load difference, not worker handoff latency (which
  // swamps the disk arm on small machines). Untimed: spawning and
  // joining the pool and scanning the store index, identical setup cost
  // in both configurations.
  for (auto _ : State) {
    State.PauseTiming();
    svc::ServiceOptions SO;
    SO.NumWorkers = 1;
    SO.DiskStorePath = DiskRoot; // empty = no persistence
    auto Service = std::make_unique<svc::CompileService>(SO);
    State.ResumeTiming();
    for (unsigned I = 0; I < RecoveryMix; ++I)
      benchmark::DoNotOptimize(Service->compile(recoveryJob(I)).Succeeded);
    State.PauseTiming();
    Service->shutdown();
    Service.reset();
    State.ResumeTiming();
  }
  State.SetItemsProcessed(State.iterations() * RecoveryMix);
}

} // namespace

void BM_ServiceColdStartNoStore(benchmark::State &State) {
  runColdStart(State, "");
}
BENCHMARK(BM_ServiceColdStartNoStore)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServiceColdStartRecovery(benchmark::State &State) {
  runColdStart(State, recoveryStoreRoot());
}
BENCHMARK(BM_ServiceColdStartRecovery)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

//===----------------------------------------------------------------------===//
// E17b: multi-client socket throughput. One daemon (socket front end over
// a 4-worker service), N benchmark threads each holding a connection and
// driving warm jobs — round-trip (one in flight) and pipelined (a window
// of 8). Any dropped or failed job aborts the benchmark.
//===----------------------------------------------------------------------===//

namespace {

const std::string &daemonSocketPath() {
  static const std::string Path =
      std::filesystem::temp_directory_path().string() + "/mcc_bench_" +
      std::to_string(::getpid()) + ".sock";
  return Path;
}

svc::CompileService &daemonService() {
  static svc::ServiceOptions SO = [] {
    svc::ServiceOptions O;
    O.NumWorkers = 4;
    return O;
  }();
  static svc::CompileService Service(SO);
  return Service;
}

net::Server &daemonServer() {
  static net::ServerOptions NO = [] {
    net::ServerOptions O;
    O.SocketPath = daemonSocketPath();
    O.MaxPendingJobs = 4096; // the sweep wants throughput, not rejections
    O.PerClientInFlight = 64;
    return O;
  }();
  static net::Server Server(daemonService(), NO);
  return Server;
}

std::once_flag DaemonFlag;
std::vector<std::string> DaemonSources;

void ensureDaemon() {
  std::call_once(DaemonFlag, [] {
    for (unsigned I = 0; I < 8; ++I) {
      DaemonSources.push_back(makeProgram(4000 + I));
      svc::CompileJob Job = makeJob(DaemonSources.back());
      daemonService().compile(Job); // prime: clients measure the daemon,
                                    // not first-touch compiles
    }
    std::string Error;
    if (!daemonServer().start(Error))
      std::abort();
  });
}

int maxClientThreads() {
  return static_cast<int>(2 * std::max(1u, std::thread::hardware_concurrency()));
}

} // namespace

void BM_DaemonSocketRoundTrip(benchmark::State &State) {
  ensureDaemon();
  net::Client C;
  std::string Error;
  if (!C.connect(daemonSocketPath(), Error)) {
    State.SkipWithError("connect failed");
    return;
  }
  std::uint64_t Id = 0;
  std::size_t Mix = static_cast<std::size_t>(State.thread_index());
  for (auto _ : State) {
    const std::string &Src = DaemonSources[Mix++ % DaemonSources.size()];
    net::ClientEvent Ev;
    if (!C.submit(++Id, "bench.c", "", Src) || !C.next(Ev, Error) ||
        Ev.Type != net::MsgType::Result ||
        Ev.Result.Status != net::ResultStatus::Ok) {
      State.SkipWithError("dropped job"); // acceptance: zero of these
      return;
    }
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_DaemonSocketRoundTrip)
    ->ThreadRange(1, maxClientThreads())
    ->UseRealTime();

void BM_DaemonSocketPipelined(benchmark::State &State) {
  ensureDaemon();
  net::Client C;
  std::string Error;
  if (!C.connect(daemonSocketPath(), Error)) {
    State.SkipWithError("connect failed");
    return;
  }
  constexpr unsigned Window = 8;
  std::uint64_t Id = 0;
  unsigned InFlight = 0;
  std::size_t Mix = static_cast<std::size_t>(State.thread_index());
  auto awaitOne = [&]() -> bool {
    net::ClientEvent Ev;
    if (!C.next(Ev, Error) || Ev.Type != net::MsgType::Result ||
        Ev.Result.Status != net::ResultStatus::Ok)
      return false;
    --InFlight;
    return true;
  };
  for (auto _ : State) {
    const std::string &Src = DaemonSources[Mix++ % DaemonSources.size()];
    if (InFlight == Window && !awaitOne()) {
      State.SkipWithError("dropped job");
      return;
    }
    if (!C.submit(++Id, "bench.c", "", Src)) {
      State.SkipWithError("submit failed");
      return;
    }
    ++InFlight;
  }
  while (InFlight > 0)
    if (!awaitOne()) {
      State.SkipWithError("dropped job");
      return;
    }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_DaemonSocketPipelined)
    ->ThreadRange(1, maxClientThreads())
    ->UseRealTime();

MCC_BENCHMARK_MAIN()
