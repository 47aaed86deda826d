//===--- main.cpp - perfbench: end-to-end benchmark of the compiler -------===//
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--tmp DIR] [--spans FILE]
//
// Runs workload W's fixed job list for seed N in six rounds, each a
// set-up (a fresh environment plus an untimed warm-up over one sixth
// of the list) and a timed pass over the whole list. The pass length is
// fixed by the job count (about S seconds of work in all on the
// reference host), never by a timer. With --trace 1 a traced pass
// follows and the per-layer metrics are printed instead of the
// end-to-end ones. The last line of
// stdout is one JSON object; the exit code is non-zero when any job's
// result differs from its reference.
//
//===----------------------------------------------------------------------===//
#include "Bench.h"

#include "runtime/KMPRuntime.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace pb;

namespace {

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string TmpDir = ".";
  std::string SpansPath;
};

/// Jobs per second each workload sustains on the reference host (4
/// vCPUs); a pass holds Rate x --seconds / Rounds jobs, at least MinJobs
/// so that p90 rests on at least ten samples beyond it, rounded up to a
/// whole number of the list's Period (the cycle of nest counts and
/// lowerings, of refused units, of kernel x engine, of the daemon's job
/// slots), so that every kind of job is equally represented and the
/// percentiles do not land on a boundary between two kinds. Team is the
/// OpenMP team the jobs run on (0: min(4, nproc)).
struct WorkloadDef {
  const char *Name;
  double Rate;
  unsigned MinJobs;
  unsigned Period;
  std::vector<Job> (*Make)(std::uint64_t, unsigned);
  unsigned Team;
};

/// frontend_bulk runs its one `main` per unit on a team of one: its
/// parallel loops have trip counts up to 4, and a team of four only put
/// three spinning or parked workers beside the compiler (its timings
/// spread 16-38% over ten seeds then, 3-16% on a team of one).
/// kernel_run measures the team.
const WorkloadDef Workloads[] = {
    {"nest_compile", 100, 120, 6, makeNestCompileJobs, 0},
    {"frontend_bulk", 25, 112, 8, makeFrontendBulkJobs, 1},
    {"kernel_run", 50, 108, 27, makeKernelRunJobs, 0},
    {"daemon_mix", 1800, 1000, 20, nullptr, 1},
};

unsigned nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned teamSize(const WorkloadDef &W) {
  return W.Team ? W.Team : std::min(4u, nproc());
}

/// Peak resident set of this program. VmHWM starts afresh at exec;
/// getrusage's ru_maxrss does not, and would report the launching
/// process's footprint for a small workload.
double peakRssMB() {
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long KB = -1;
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %ld kB", &KB) == 1)
        break;
    std::fclose(F);
    if (KB >= 0)
      return static_cast<double>(KB) / 1024.0;
  }
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

std::string num(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

void printJSON(bool Correct, std::uint64_t Attempted, std::uint64_t Failed,
               const Metrics &M) {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Met] : M) {
    if (!First)
      S += ", ";
    First = false;
    S += "\"" + Name + "\": {\"value\": " + num(Met.Value) +
         ", \"unit\": \"" + Met.Unit + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
  std::fflush(stdout);
}

/// Percentile pair with the sample counts behind it.
struct Dist {
  double P50 = 0, P90 = 0;
  std::size_t N = 0;
};
Dist dist(std::vector<double> V) {
  Dist D;
  D.N = V.size();
  D.P50 = percentile(V, 50);
  D.P90 = percentile(V, 90);
  return D;
}
std::size_t beyondP90(std::size_t N) {
  return N - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(N)));
}

void printRounds(const std::vector<double> &PassSeconds, std::size_t Jobs) {
  std::printf("# %zu timed rounds of %zu jobs:", PassSeconds.size(), Jobs);
  for (double S : PassSeconds)
    std::printf(" %.3f s", S);
  std::printf("\n");
}

/// The median over rounds of each round's job_ms_p50: a single-shot
/// figure, comparable with the single traced pass.
double roundMedianP50(const std::vector<std::vector<JobSample>> &ByRound) {
  std::vector<double> P50s;
  for (const std::vector<JobSample> &Round : ByRound) {
    std::vector<double> Ms;
    for (const JobSample &S : Round)
      Ms.push_back(S.JobMs);
    P50s.push_back(median(Ms));
  }
  return median(P50s);
}

/// How the rounds of a run combine into one figure.
enum class Combine {
  /// In process: each job's best round, and the fastest pass. Other
  /// tenants of the host only ever add time to CPU-bound work, so the
  /// least-disturbed round is the steadiest estimate.
  Best,
  /// daemon_mix: each job's second-best round, and the median pass rate.
  /// The disk store's speed changes from pass to pass as a whole, and in
  /// both directions (a pass now and then runs 1.5x faster than the
  /// rest), so a best-of would follow whichever rare fast pass a run drew.
  /// A median over passes would follow a pass-long stall of the host,
  /// which stretches every short round trip of the pass.
  SecondBest,
};

/// Each job's second-least time over the rounds.
std::vector<double>
secondBestJobMs(const std::vector<std::vector<JobSample>> &ByRound) {
  std::vector<double> Out;
  for (std::size_t I = 0; I < ByRound.front().size(); ++I) {
    std::vector<double> Ms;
    for (const std::vector<JobSample> &Pass : ByRound)
      Ms.push_back(Pass[I].JobMs);
    std::sort(Ms.begin(), Ms.end());
    Out.push_back(Ms[std::min<std::size_t>(1, Ms.size() - 1)]);
  }
  return Out;
}

/// The end-to-end metrics. \p ByRound[r][i] is job i of the timed pass
/// of round r; \p Split holds the best-of-rounds compile/exec split (the
/// in-process job, on every workload).
Metrics endToEnd(const std::vector<std::vector<JobSample>> &ByRound,
                 Combine How, const std::vector<JobSample> &Split,
                 const std::vector<double> &PassSeconds,
                 const std::vector<double> &Setups) {
  std::vector<double> CompileMs, ExecMs, Rates;
  std::uint64_t CodeBytes = 0;
  const std::size_t Jobs = ByRound.front().size();
  std::printf("# jobs/s of each timed round:");
  for (double Sec : PassSeconds) {
    Rates.push_back(static_cast<double>(Jobs) / Sec);
    std::printf(" %.6g", Rates.back());
  }
  std::printf("\n");
  Dist J;
  double Rate = 0;
  if (How == Combine::Best) {
    std::vector<double> Ms;
    for (const JobSample &S : bestOf(ByRound))
      Ms.push_back(S.JobMs);
    J = dist(std::move(Ms));
    Rate = *std::max_element(Rates.begin(), Rates.end());
  } else {
    J = dist(secondBestJobMs(ByRound));
    Rate = median(Rates);
  }
  for (const JobSample &S : Split) {
    CompileMs.push_back(S.CompileMs);
    if (S.ExecMs >= 0)
      ExecMs.push_back(S.ExecMs);
    CodeBytes += S.CodeBytes;
  }
  Dist C = dist(CompileMs), E = dist(ExecMs);
  std::printf("# samples: job_ms %zu (%zu beyond p90; %s of %zu rounds), "
              "compile_ms %zu (%zu beyond p90), exec_ms %zu (%zu beyond "
              "p90; both best of %zu rounds), set-ups %zu\n",
              J.N, beyondP90(J.N),
              How == Combine::Best ? "best" : "second best", ByRound.size(),
              C.N, beyondP90(C.N), E.N, beyondP90(E.N), ByRound.size(),
              Setups.size());
  Metrics M;
  M["job_ms_p50"] = {J.P50, "ms"};
  M["job_ms_p90"] = {J.P90, "ms"};
  M["jobs_per_s"] = {Rate, "1/s"};
  M["compile_ms_p50"] = {C.P50, "ms"};
  M["compile_ms_p90"] = {C.P90, "ms"};
  M["exec_ms_p50"] = {E.P50, "ms"};
  M["exec_ms_p90"] = {E.P90, "ms"};
  M["code_bytes"] = {static_cast<double>(CodeBytes), "bytes"};
  M["peak_rss_mb"] = {peakRssMB(), "MB"};
  M["setup_s"] = {median(Setups), "s"};
  return M;
}

/// Prints the end-to-end metrics as comments (traced runs print the
/// per-layer metrics as their result).
void printUntraced(const Metrics &M) {
  for (const auto &[Name, Met] : M)
    std::printf("# untraced %s %s\n", Name.c_str(), num(Met.Value).c_str());
}

/// Every per-layer metric, zero where the workload does not reach the
/// layer; filled in by the workload that does.
Metrics emptyLayerMetrics() {
  static const std::pair<const char *, const char *> Names[] = {
      {"lex.ms", "ms"},
      {"lex.tokens", "count"},
      {"parse.ms", "ms"},
      {"parse.ast_nodes", "count"},
      {"parse.ast_bytes", "bytes"},
      {"parse.transforms_refused", "count"},
      {"analysis.ms", "ms"},
      {"codegen.ms", "ms"},
      {"codegen.ir_insts", "count"},
      {"ir.verify_ms", "ms"},
      {"midend.unroll_ms", "ms"},
      {"midend.simplifycfg_ms", "ms"},
      {"midend.storeforward_ms", "ms"},
      {"midend.scalarpromote_ms", "ms"},
      {"midend.dce_ms", "ms"},
      {"midend.ir_insts_out", "count"},
      {"midend.loops_unrolled", "count"},
      {"midend.loads_forwarded", "count"},
      {"midend.scalars_promoted", "count"},
      {"midend.insts_dced", "count"},
      {"midend.nest_exponent", "1"},
      {"interp.translate_ms", "ms"},
      {"interp.init_ms", "ms"},
      {"interp.bytecode_bytes", "bytes"},
      {"interp.exec_ms", "ms"},
      {"interp.insts_executed", "count"},
      {"interp.superinst_hits", "count"},
      {"jit.compile_ms", "ms"},
      {"jit.code_bytes", "bytes"},
      {"jit.functions_compiled", "count"},
      {"jit.fallbacks", "count"},
      {"jit.spills", "count"},
      {"jit.exec_ms", "ms"},
      {"jit.osr_promotions", "count"},
      {"runtime.forks", "count"},
      {"runtime.team_reuses", "count"},
      {"runtime.transient_forks", "count"},
      {"runtime.chunks", "count"},
      {"runtime.barrier_sleep_wakes", "count"},
      {"service.compile_ms", "ms"},
      {"service.l1_hit_ratio", "1"},
      {"service.l2_hit_ratio", "1"},
      {"service.l3_hit_ratio", "1"},
      {"service.disk_hit_ratio", "1"},
      {"service.inflight_waits", "count"},
      {"service.evictions", "count"},
      {"service.disk_stores", "count"},
      {"net.roundtrip_ms", "ms"},
      {"net.self_ms", "ms"},
      {"net.rejects", "count"},
      {"net.retries", "count"},
      {"trace.job_ms_p50", "ms"},
      {"trace.overhead_ratio", "1"},
      {"trace.coverage_min", "1"},
  };
  Metrics M;
  for (const auto &[Name, Unit] : Names)
    M[Name] = {0.0, Unit};
  return M;
}

/// Least-squares slope of log(y) over log(x).
double logLogSlope(const std::vector<std::pair<double, double>> &XY) {
  double SX = 0, SY = 0, SXX = 0, SXY = 0;
  const double N = static_cast<double>(XY.size());
  for (auto [X, Y] : XY) {
    double LX = std::log(X), LY = std::log(Y);
    SX += LX;
    SY += LY;
    SXX += LX * LX;
    SXY += LX * LY;
  }
  double Den = N * SXX - SX * SX;
  return Den == 0 ? 0 : (N * SXY - SX * SY) / Den;
}

using RTStats = mcc::rt::OpenMPRuntime::StatsSnapshot;

/// Fills the per-layer metrics of an in-process traced pass.
void layerMetrics(const std::vector<Job> &Jobs, const std::vector<Span> &Spans,
                  const LayerCounts &C, const RTStats &RT0,
                  const RTStats &RT1, Metrics &M) {
  const double N = static_cast<double>(Jobs.size());
  std::map<std::string, SpanTotals> T = summarize(Spans);
  auto Self = [&](const char *Name) { return T[Name].SelfMs; };
  auto PerJob = [&](const char *Name) { return Self(Name) / N; };
  M["lex.ms"].Value = PerJob("lex");
  M["parse.ms"].Value = PerJob("parse");
  M["analysis.ms"].Value = PerJob("analysis");
  M["codegen.ms"].Value = PerJob("codegen");
  M["ir.verify_ms"].Value = PerJob("ir.verify");
  M["midend.unroll_ms"].Value = PerJob("midend.unroll");
  M["midend.simplifycfg_ms"].Value = PerJob("midend.simplifycfg");
  M["midend.storeforward_ms"].Value = PerJob("midend.storeforward");
  M["midend.scalarpromote_ms"].Value = PerJob("midend.scalarpromote");
  M["midend.dce_ms"].Value = PerJob("midend.dce");
  M["interp.translate_ms"].Value = PerJob("interp.translate");
  M["interp.init_ms"].Value = PerJob("interp.init");
  M["interp.exec_ms"].Value = PerJob("interp.exec");
  M["jit.compile_ms"].Value = PerJob("jit.compile");
  M["jit.exec_ms"].Value = PerJob("jit.exec");
  M["lex.tokens"].Value = static_cast<double>(C.Tokens);
  M["parse.ast_nodes"].Value = static_cast<double>(C.ASTNodes);
  M["parse.ast_bytes"].Value = static_cast<double>(C.ASTBytes);
  M["parse.transforms_refused"].Value = static_cast<double>(C.Refused);
  M["codegen.ir_insts"].Value = static_cast<double>(C.IRInstsCodegen);
  M["midend.ir_insts_out"].Value = static_cast<double>(C.IRInstsOut);
  M["midend.loops_unrolled"].Value = static_cast<double>(C.LoopsUnrolled);
  M["midend.loads_forwarded"].Value = static_cast<double>(C.LoadsForwarded);
  M["midend.scalars_promoted"].Value = static_cast<double>(C.ScalarsPromoted);
  M["midend.insts_dced"].Value = static_cast<double>(C.InstsDCEd);
  M["interp.bytecode_bytes"].Value = static_cast<double>(C.BytecodeBytes);
  M["interp.insts_executed"].Value = static_cast<double>(C.InstsExecuted);
  M["interp.superinst_hits"].Value = static_cast<double>(C.SuperinstHits);
  M["jit.code_bytes"].Value = static_cast<double>(C.JITCodeBytes);
  M["jit.functions_compiled"].Value = static_cast<double>(C.JITFunctions);
  M["jit.fallbacks"].Value = static_cast<double>(C.JITFallbacks);
  M["jit.spills"].Value = static_cast<double>(C.JITSpills);
  M["jit.osr_promotions"].Value = static_cast<double>(C.JITOSR);
  M["runtime.forks"].Value =
      static_cast<double>(RT1.NumForkJoins - RT0.NumForkJoins);
  M["runtime.team_reuses"].Value =
      static_cast<double>(RT1.NumTeamReuses - RT0.NumTeamReuses);
  M["runtime.transient_forks"].Value =
      static_cast<double>(RT1.NumTransientForks - RT0.NumTransientForks);
  M["runtime.chunks"].Value = static_cast<double>(
      (RT1.NumChunksStatic + RT1.NumChunksStaticChunked +
       RT1.NumChunksDynamic + RT1.NumChunksGuided) -
      (RT0.NumChunksStatic + RT0.NumChunksStaticChunked +
       RT0.NumChunksDynamic + RT0.NumChunksGuided));
  M["runtime.barrier_sleep_wakes"].Value =
      static_cast<double>(RT1.BarrierSleepWakes - RT0.BarrierSleepWakes);

  // Mid-end time against nests per function: median per nest count.
  std::map<unsigned, std::vector<double>> ByNests;
  std::map<std::uint32_t, double> MidendMs;
  for (const Span &S : Spans)
    if (std::strncmp(S.Name, "midend.", 7) == 0)
      MidendMs[S.Job] += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
  for (const auto &[Id, Ms] : MidendMs)
    if (Jobs[Id].NestsPerFn)
      ByNests[Jobs[Id].NestsPerFn].push_back(Ms);
  std::vector<std::pair<double, double>> XY;
  for (auto &[Nests, V] : ByNests) {
    double Med = median(V);
    std::printf("# midend ms by nests per function: %u -> %.3f (%zu jobs)\n",
                Nests, Med, V.size());
    XY.push_back({static_cast<double>(Nests), Med});
  }
  if (XY.size() >= 2)
    M["midend.nest_exponent"].Value = logLogSlope(XY);

  double Job = T["job"].TotalMs;
  double Front = Self("lex") + Self("parse") + Self("analysis") +
                 Self("codegen") + Self("ir.verify");
  double Mid = Self("midend.unroll") + Self("midend.simplifycfg") +
               Self("midend.storeforward") + Self("midend.scalarpromote") +
               Self("midend.dce");
  double Exec = Self("interp.translate") + Self("interp.init") +
                Self("interp.exec") + Self("jit.compile") + Self("jit.exec");
  std::printf("# shares of traced job time: front end %.1f%%, mid-end %.1f%%, "
              "bytecode/JIT/runtime %.1f%%, service/net 0.0%%\n",
              100 * Front / Job, 100 * Mid / Job, 100 * Exec / Job);
}

void printCoverage(const Coverage &C) {
  std::printf("# span coverage: least %.4f over %llu jobs; %llu jobs under "
              "100 us of CPU covered %.4f in aggregate; %llu failures\n",
              C.Min, static_cast<unsigned long long>(C.Checked),
              static_cast<unsigned long long>(C.ShortJobs), C.shortCoverage(),
              static_cast<unsigned long long>(C.Failures));
}

/// Self time per span name, with its share of the root spans' time.
void printSpanTable(const std::vector<Span> &Spans, std::size_t Jobs,
                    const char *Root) {
  std::map<std::string, SpanTotals> T = summarize(Spans);
  const double Job = T[Root].TotalMs;
  std::printf("# %-24s %8s %12s %12s %7s\n", "span", "count", "self_ms/job",
              "total_ms", "share");
  for (const auto &[Name, S] : T)
    std::printf("# %-24s %8llu %12.4f %12.2f %6.1f%%\n", Name.c_str(),
                static_cast<unsigned long long>(S.Count),
                S.SelfMs / static_cast<double>(std::max<std::size_t>(1, Jobs)),
                S.TotalMs, Job > 0 ? 100 * S.SelfMs / Job : 0.0);
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    auto Number = [&V](std::uint64_t &Out) {
      auto [End, Err] = std::from_chars(V.data(), V.data() + V.size(), Out);
      return Err == std::errc() && End == V.data() + V.size();
    };
    std::uint64_t N = 0;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed" && Number(N))
      A.Seed = N;
    else if (K == "--seconds" && Number(N) && N <= 3600)
      A.Seconds = static_cast<unsigned>(N);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--tmp")
      A.TmpDir = V;
    else if (K == "--spans")
      A.SpansPath = V;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0;
}

void reportFailures(const std::vector<JobSample> &Samples,
                    const std::vector<Job> *Jobs, std::uint64_t &Failed) {
  for (std::size_t I = 0; I < Samples.size(); ++I) {
    if (Samples[I].Ok)
      continue;
    if (++Failed <= 10)
      std::printf("# FAILED job %zu%s%s: %s\n", I, Jobs ? " " : "",
                  Jobs ? (*Jobs)[I].Label : "", Samples[I].Why.c_str());
  }
}

unsigned jobsPerPass(const WorkloadDef &W, unsigned Seconds) {
  unsigned N =
      std::max(W.MinJobs, static_cast<unsigned>(W.Rate * Seconds / Rounds));
  return (N + W.Period - 1) / W.Period * W.Period;
}

int runInProcess(const Args &A, const WorkloadDef &W) {
  const unsigned Count = jobsPerPass(W, A.Seconds);
  mcc::rt::OpenMPRuntime &RT = mcc::rt::OpenMPRuntime::get();

  // Each round: set-up (generate the list, start from a fresh OpenMP
  // team, warm up over 1/Rounds of the list), then a timed pass over the
  // whole list.
  std::vector<Job> Jobs;
  std::vector<double> Setups, PassSeconds;
  std::vector<std::vector<JobSample>> ByRound;
  std::uint64_t Failed = 0, Attempted = 0;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    const std::int64_t T0 = nowNs();
    Jobs = W.Make(A.Seed, Count);
    mcc::interp::ExecutionEngine::resetOpenMPRuntime();
    RT.setDefaultNumThreads(static_cast<int>(teamSize(W)));
    std::vector<JobSample> Warm;
    for (std::size_t I = Round * Count / Rounds;
         I < (Round + 1) * Count / Rounds; ++I)
      Warm.push_back(runJob(Jobs[I]));
    Setups.push_back(msSince(T0) / 1e3);
    Attempted += Warm.size();
    reportFailures(Warm, &Jobs, Failed);

    std::vector<JobSample> Pass;
    Pass.reserve(Jobs.size());
    const std::int64_t P0 = nowNs();
    for (const Job &J : Jobs)
      Pass.push_back(runJob(J));
    PassSeconds.push_back(msSince(P0) / 1e3);
    Attempted += Pass.size();
    reportFailures(Pass, &Jobs, Failed);
    ByRound.push_back(std::move(Pass));
    releaseFreeMemory();
  }
  printRounds(PassSeconds, Count);
  Metrics M =
      endToEnd(ByRound, Combine::Best, bestOf(ByRound), PassSeconds, Setups);

  if (A.Trace) {
    printUntraced(M);
    Metrics L = emptyLayerMetrics();
    Tracer T;
    T.reserve(Jobs.size() * 24);
    LayerCounts C;
    std::vector<JobSample> Traced;
    auto RT0 = RT.statsSnapshot();
    for (std::size_t I = 0; I < Jobs.size(); ++I)
      Traced.push_back(tracedJob(Jobs[I], static_cast<std::uint32_t>(I), T, C));
    auto RT1 = RT.statsSnapshot();
    Attempted += Traced.size();
    reportFailures(Traced, &Jobs, Failed);
    layerMetrics(Jobs, T.Spans, C, RT0, RT1, L);
    std::vector<double> TracedMs;
    for (const JobSample &S : Traced)
      TracedMs.push_back(S.JobMs);
    L["trace.job_ms_p50"].Value = median(TracedMs);
    L["trace.overhead_ratio"].Value =
        L["trace.job_ms_p50"].Value / roundMedianP50(ByRound);
    printSpanTable(T.Spans, Jobs.size(), "job");
    C.Cover.finish();
    printCoverage(C.Cover);
    L["trace.coverage_min"].Value =
        std::min(C.Cover.Min, C.Cover.shortCoverage());
    std::printf("# traced pass: IR parity failures %llu, traced job_ms_p50 / "
                "untraced single-round job_ms_p50 %.4f\n",
                static_cast<unsigned long long>(C.ParityFailures),
                L["trace.overhead_ratio"].Value);
    Failed += C.Cover.Failures;
    if (!A.SpansPath.empty() && !writeSpans(A.SpansPath, T.Spans))
      std::printf("# could not write spans to %s\n", A.SpansPath.c_str());
    M = std::move(L);
  }
  printJSON(Failed == 0, Attempted, Failed, M);
  return Failed == 0 ? 0 : 1;
}

int runDaemon(const Args &A, const WorkloadDef &W) {
  DaemonConfig Cfg;
  Cfg.Seed = A.Seed;
  Cfg.JobsPerClient = jobsPerPass(W, A.Seconds) / Cfg.Clients;
  Cfg.TmpDir = A.TmpDir;
  Cfg.Trace = A.Trace;
  std::printf("# clients=%u window=%u service_workers=%u "
              "execute_omp_team=1\n",
              Cfg.Clients, Cfg.Window, Cfg.Workers);
  DaemonReport R = runDaemonMix(Cfg);
  if (!R.Error.empty()) {
    std::printf("# daemon_mix: %s\n", R.Error.c_str());
    return 2;
  }
  std::uint64_t Failed = 0;
  reportFailures(R.Failures, nullptr, Failed);
  const std::size_t Jobs = R.SocketRounds.front().size();
  printRounds(R.PassSeconds, Jobs);
  Metrics M = endToEnd(R.SocketRounds, Combine::SecondBest, R.Split,
                       R.PassSeconds, R.SetupSeconds);
  if (A.Trace) {
    printUntraced(M);
    Metrics L = emptyLayerMetrics();
    for (const auto &[Name, Met] : R.Layer)
      L[Name] = Met;
    L["trace.job_ms_p50"].Value = R.TracedJobMsP50;
    L["trace.overhead_ratio"].Value = R.TracedJobMsP50 / R.UntracedJobMsP50;
    L["trace.coverage_min"].Value =
        std::min(R.Cover.Min, R.Cover.shortCoverage());
    printSpanTable(R.Spans, Jobs, "net.roundtrip");
    printCoverage(R.Cover);
    if (!A.SpansPath.empty() && !writeSpans(A.SpansPath, R.Spans))
      std::printf("# could not write spans to %s\n", A.SpansPath.c_str());
    M = std::move(L);
  }
  printJSON(Failed == 0, R.Attempted, Failed, M);
  return Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 [--tmp DIR] [--spans FILE]\n");
    return 2;
  }
  const WorkloadDef *W = nullptr;
  for (const WorkloadDef &D : Workloads)
    if (A.Workload == D.Name)
      W = &D;
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%u trace=%d\n",
              W->Name, static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);
  const unsigned Count = jobsPerPass(*W, A.Seconds);
  std::printf("# host: nproc=%u build=%s compiler=%s omp_team=%u "
              "jobs_per_pass=%u\n",
              nproc(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, teamSize(*W),
              Count);
  return W->Make ? runInProcess(A, *W) : runDaemon(A, *W);
}
