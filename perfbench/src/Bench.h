//===--- Bench.h - End-to-end benchmark: jobs, spans, samples ---*- C++ -*-===//
//
// Shared declarations of the perfbench program. A workload is a fixed,
// seeded list of jobs; each job is MiniC source plus compile options and
// the result a reference that is not the compiler under test says it
// must produce (a host-evaluated exit value, or a legality refusal).
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "driver/CompilerInstance.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

//===----------------------------------------------------------------------===//
// Jobs and their references
//===----------------------------------------------------------------------===//

/// What a job must produce.
enum class Expect {
  Value,   ///< compiles, and main() returns Job::Reference
  Refusal, ///< Sema refuses a dependence-violating loop transformation
};

struct Job {
  std::string Source;
  mcc::CompilerOptions Opts;
  Expect Want = Expect::Value;
  std::int64_t Reference = 0;
  /// false: compile only (a daemon job without `-run`); the reference is
  /// then a clean compile.
  bool Execute = true;
  /// Pragma nests in the function that holds them (nest_compile: the
  /// x axis of midend.nest_exponent).
  unsigned NestsPerFn = 0;
  const char *Label = "";
};

/// Deterministic generator (splitmix64): the same seed gives the same
/// numbers on every platform and standard library.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  std::int64_t range(std::int64_t Lo, std::int64_t Hi) {
    return Lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(Hi - Lo + 1));
  }

private:
  std::uint64_t State;
};

/// The two draws behind a job list. Shape decides structure (directives,
/// depths, trip counts, kernel sizes, job kinds) from a constant of the
/// workload, so every seed holds the same amount of each kind of work;
/// Value draws the constants written into the sources (coefficients,
/// offsets) from the seed, so every seed compiles different programs.
struct Draw {
  Draw(std::uint64_t ShapeSeed, std::uint64_t ValueSeed)
      : Shape(ShapeSeed), Value(ValueSeed ^ ShapeSeed) {}
  Rng Shape;
  Rng Value;
};

/// Generated translation unit: source text plus its host reference.
struct Program {
  std::string Source;
  std::int64_t Reference = 0;
  bool ExpectRefusal = false;
};

/// A translation unit of \p NumFns functions holding \p NestsPerFn pragma
/// nests each, drawn from the accepted directive mix with trip counts up
/// to \p MaxTrip; \p Cursor walks the mix so every pass holds the same
/// share of each directive. With \p CarriedNest, one nest carries a flow
/// dependence that its `reverse` would violate, so Sema must refuse.
Program makeNestProgram(Draw &D, unsigned NumFns, unsigned NestsPerFn,
                        std::int64_t MaxTrip, unsigned &Cursor,
                        bool CarriedNest = false);

/// Job lists of the in-process workloads; \p Count jobs each.
std::vector<Job> makeNestCompileJobs(std::uint64_t Seed, unsigned Count);
std::vector<Job> makeFrontendBulkJobs(std::uint64_t Seed, unsigned Count);
std::vector<Job> makeKernelRunJobs(std::uint64_t Seed, unsigned Count);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double msSince(std::int64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e6;
}

/// CPU time the calling thread has consumed.
inline std::int64_t threadCpuNs() {
  timespec TS{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return static_cast<std::int64_t>(TS.tv_sec) * 1000000000 + TS.tv_nsec;
}

/// A traced call: wall-clock interval plus the calling thread's CPU time
/// at both ends.
struct Span {
  const char *Name;
  std::uint32_t Job;
  std::int32_t Parent; ///< index into the same tracer, -1 for a root
  std::int64_t StartNs;
  std::int64_t EndNs;
  std::int64_t CpuStartNs = 0;
  std::int64_t CpuEndNs = 0;
};

/// In-memory span recorder, one per thread. Spans nest: a span begun
/// while another is open becomes its child. The CPU reads sit inside the
/// wall reads, so a child's CPU interval lies within its parent's.
class Tracer {
public:
  /// Makes room for \p N spans and touches it, so that neither a
  /// reallocation nor a first-touch page fault lands inside a job.
  void reserve(std::size_t N) {
    Spans.resize(N);
    Spans.clear();
    Open.reserve(16);
  }
  std::int32_t begin(const char *Name, std::uint32_t Job) {
    std::int32_t Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back({Name, Job, Parent, nowNs(), 0, 0, 0});
    Spans.back().CpuStartNs = threadCpuNs();
    Open.push_back(static_cast<std::int32_t>(Spans.size() - 1));
    return Open.back();
  }
  void end(std::int32_t Id) {
    Span &S = Spans[static_cast<std::size_t>(Id)];
    S.CpuEndNs = threadCpuNs();
    S.EndNs = nowNs();
    Open.pop_back();
  }

  std::vector<Span> Spans;

private:
  std::vector<std::int32_t> Open;
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
  Scope(Tracer *T, const char *Name, std::uint32_t Job)
      : T(T), Id(T ? T->begin(Name, Job) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  void close() {
    if (T)
      T->end(Id);
    T = nullptr;
  }

private:
  Tracer *T;
  std::int32_t Id;
};

/// How much of each job its child spans cover. Every job must be covered
/// to at least 95%. A gap between child spans counts as uncovered only as
/// far as it is both wall time and CPU time of the job's thread: a phase
/// left untraced is both; a time slice the kernel gives another process
/// is wall time only; the tracer's own CPU-clock reads, which sit inside
/// each span's wall-clock reads, are (mostly) CPU time only. Coverage is
/// 1 - uncovered / job CPU time. Jobs that use less than 100 us of CPU
/// are held to 95% in aggregate only: there the tracer's clock reads
/// around the job's own span are already a few percent.
struct Coverage {
  static constexpr std::int64_t ShortNs = 100000;
  double Min = 1.0; ///< least coverage of a job held to 95% alone
  std::uint64_t Failures = 0, Checked = 0, ShortJobs = 0;
  std::int64_t ShortUncoveredNs = 0, ShortTotalNs = 0;

  /// Adds job span \p Job, whose direct children cover \p CpuNs of its
  /// CPU time and \p WallNs of its wall time.
  void add(const Span &Job, std::int64_t CpuNs, std::int64_t WallNs) {
    const std::int64_t TotalCpu = Job.CpuEndNs - Job.CpuStartNs;
    const std::int64_t Uncovered =
        std::max<std::int64_t>(0, std::min(TotalCpu - CpuNs,
                                           Job.EndNs - Job.StartNs - WallNs));
    if (TotalCpu < ShortNs) {
      ++ShortJobs;
      ShortUncoveredNs += Uncovered;
      ShortTotalNs += TotalCpu;
      return;
    }
    double C = 1.0 - static_cast<double>(Uncovered) /
                         static_cast<double>(TotalCpu);
    ++Checked;
    Min = std::min(Min, C);
    Failures += C < 0.95;
  }
  /// Adds one failure when the short jobs together fall below 95%.
  void finish() {
    if (ShortTotalNs > 0 && shortCoverage() < 0.95)
      ++Failures;
  }
  [[nodiscard]] double shortCoverage() const {
    return ShortTotalNs ? 1.0 - static_cast<double>(ShortUncoveredNs) /
                                    static_cast<double>(ShortTotalNs)
                        : 1.0;
  }
};

/// Per-name totals over a set of spans: count, total and self time
/// (duration minus the time covered by direct children).
struct SpanTotals {
  std::uint64_t Count = 0;
  double TotalMs = 0;
  double SelfMs = 0;
};
std::map<std::string, SpanTotals> summarize(const std::vector<Span> &Spans);

/// Writes spans as tab-separated lines (name, job, parent, wall start and
/// end, CPU start and end).
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

//===----------------------------------------------------------------------===//
// Samples and metrics
//===----------------------------------------------------------------------===//

/// Hands freed heap pages back to the system between rounds, so that the
/// peak resident set is one round's peak rather than whatever the
/// allocator's per-thread arenas accumulated over all rounds.
void releaseFreeMemory();

/// Nearest-rank percentile of \p V (sorted in place); 0 when empty.
double percentile(std::vector<double> &V, double P);
double median(std::vector<double> V);

struct Metric {
  double Value;
  const char *Unit;
};
using Metrics = std::map<std::string, Metric>;

/// Outcome of one job in the untraced, timed pass.
struct JobSample {
  double JobMs = 0;
  double CompileMs = 0;
  double ExecMs = -1; ///< < 0: the job did not execute (refused)
  std::uint64_t CodeBytes = 0;
  bool Ok = false;
  std::string Why; ///< failure description
};

/// In-process job, untraced: CompilerInstance construction ->
/// runFunction("main") returns (compileSource returns, for a compile-only
/// job), checked against the reference.
JobSample runJob(const Job &J);

/// Timed rounds per run. Every job runs once per round, a pass apart. In
/// process, a job's timing sample is the best of its rounds, so a few
/// seconds of contention from other tenants of the host do not land in
/// the result (contention only ever adds time). daemon_mix takes each
/// job's second-best round instead (see Combine in main.cpp).
constexpr unsigned Rounds = 6;

/// Per job: the least of each timing over the rounds; Ok only when every
/// round was. \p ByRound[r][i] is job i in round r.
std::vector<JobSample>
bestOf(const std::vector<std::vector<JobSample>> &ByRound);

/// Per-layer counters accumulated by the traced pipeline.
struct LayerCounts {
  std::uint64_t Tokens = 0, ASTNodes = 0, ASTBytes = 0, Refused = 0,
                IRInstsCodegen = 0, IRInstsOut = 0, LoopsUnrolled = 0,
                LoadsForwarded = 0, ScalarsPromoted = 0, InstsDCEd = 0,
                BytecodeBytes = 0, InstsExecuted = 0, SuperinstHits = 0,
                JITCodeBytes = 0, JITFunctions = 0, JITFallbacks = 0,
                JITSpills = 0, JITOSR = 0;
  std::uint64_t ParityFailures = 0;
  Coverage Cover;
};

/// The same job composed from each module's public calls with a span
/// around each call. Checks the reference and the printed IR against
/// CompilerInstance::compileSource (a difference fails the job), and adds
/// the job's span coverage and layer counts to \p C.
JobSample tracedJob(const Job &J, std::uint32_t Id, Tracer &T,
                    LayerCounts &C);

//===----------------------------------------------------------------------===//
// daemon_mix
//===----------------------------------------------------------------------===//

struct DaemonConfig {
  std::uint64_t Seed = 0;
  unsigned JobsPerClient = 0;
  unsigned Clients = 2;
  /// Jobs in flight per client. With one, a round trip holds the job's
  /// own service and socket time only; wider windows add waits behind
  /// whichever misses happen to be queued, which made p50 swing by 3x
  /// between runs on the reference host.
  unsigned Window = 1;
  unsigned Workers = 2;
  std::string TmpDir; ///< inside the checkout; removed afterwards
  bool Trace = false;
};

struct DaemonReport {
  /// Socket passes: SocketRounds[r][i] is job i (the streams laid end to
  /// end) in round r.
  std::vector<std::vector<JobSample>> SocketRounds;
  /// Unique and `-run` jobs through runJob, best of rounds: the
  /// compile/exec split the client cannot see.
  std::vector<JobSample> Split;
  std::vector<JobSample> Failures; ///< every failed job of any pass
  std::uint64_t Attempted = 0;
  std::vector<double> PassSeconds;
  std::vector<double> SetupSeconds;
  Metrics Layer; ///< service.* / net.* (traced run)
  std::vector<Span> Spans;
  double TracedJobMsP50 = 0;
  double UntracedJobMsP50 = 0;
  Coverage Cover; ///< of the traced replay's Execute jobs
  std::string Error; ///< set when the daemon could not be driven
};

DaemonReport runDaemonMix(const DaemonConfig &Cfg);

} // namespace pb

#endif // PERFBENCH_BENCH_H
