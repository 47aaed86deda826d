//===--- service_test.cpp - Compile service cache semantics ----------------===//
//
// Covers the content-addressed cache's key derivation (what shares, what
// diverges, at which level), single-flight deduplication under heavy
// concurrency, LRU eviction against a byte budget, failure caching, and
// execution through cached modules. The concurrency tests run reduced
// widths under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//
#include "service/CompileService.h"
#include "service/ArtifactStore.h"
#include "service/JobSpec.h"

#include "gtest/gtest.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

using namespace mcc;
using namespace mcc::svc;

#if defined(__SANITIZE_THREAD__)
#define MCC_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MCC_UNDER_TSAN 1
#endif
#endif

namespace {

const char *const SumProgram = "int main(void) {\n"
                               "  int sum = 0;\n"
                               "  for (int i = 0; i < 50; i = i + 1)\n"
                               "    sum += i;\n"
                               "  return sum;\n"
                               "}\n";

CompileJob makeJob(std::string Source, std::string Path = "input.c") {
  CompileJob Job;
  Job.Path = std::move(Path);
  Job.Source = std::move(Source);
  return Job;
}

unsigned stressWidth() {
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
#ifdef MCC_UNDER_TSAN
  return std::min(2 * HW, 8u); // TSan serializes; keep the fan-in bounded
#else
  return 2 * HW;
#endif
}

} // namespace

//===----------------------------------------------------------------------===//
// Key derivation
//===----------------------------------------------------------------------===//

TEST(ServiceKeys, PathNeverParticipates) {
  CompilerOptions Options;
  EXPECT_EQ(tokenStreamKey(SumProgram, Options),
            tokenStreamKey(SumProgram, Options));
  // tokenStreamKey has no path parameter at all — content addressing is
  // structural. This test documents that fact at the API level.
}

TEST(ServiceKeys, HashingIsPreLex) {
  // The key is derived from raw source bytes *before* lexing, so even a
  // semantically invisible whitespace change is a different L1 key. This
  // is deliberate: token-level canonicalization would break the
  // guarantee that a cached stream replays bit-for-bit what the lexer
  // produced for those exact bytes (and would put a full lex on the hot
  // lookup path, defeating the cache).
  CompilerOptions Options;
  std::string Spaced(SumProgram);
  Spaced.insert(Spaced.find("int sum"), " ");
  EXPECT_NE(tokenStreamKey(SumProgram, Options),
            tokenStreamKey(Spaced, Options));
}

TEST(ServiceKeys, LevelKnobsLandInTheirLevel) {
  CompilerOptions Base;
  const std::uint64_t L1 = tokenStreamKey(SumProgram, Base);
  const std::uint64_t L2 = astKey(L1, Base);

  // Runtime-only: thread width is in NO key.
  CompilerOptions Threads = Base;
  Threads.LangOpts.OpenMPDefaultNumThreads = 17;
  EXPECT_EQ(tokenStreamKey(SumProgram, Threads), L1);
  EXPECT_EQ(astKey(L1, Threads), L2);
  EXPECT_EQ(moduleKey(L2, Threads), moduleKey(L2, Base));

  // Sema-level: lowering mode changes the tree Sema builds.
  CompilerOptions IRB = Base;
  IRB.LangOpts.OpenMPEnableIRBuilder = true;
  EXPECT_EQ(tokenStreamKey(SumProgram, IRB), L1);
  EXPECT_NE(astKey(L1, IRB), L2);

  // Mid-end-level: unroll knobs only reshape the L3 module.
  CompilerOptions Unroll = Base;
  Unroll.UnrollOpts.HeuristicFactor = 8;
  EXPECT_EQ(astKey(L1, Unroll), L2);
  EXPECT_NE(moduleKey(L2, Unroll), moduleKey(L2, Base));

  // Lexer-level: -D changes the token stream.
  CompilerOptions Defined = Base;
  Defined.Defines.emplace_back("N", "50");
  EXPECT_NE(tokenStreamKey(SumProgram, Defined), L1);
}

//===----------------------------------------------------------------------===//
// Cache behaviour through the service
//===----------------------------------------------------------------------===//

TEST(ServiceCache, IdenticalSourceDifferentPathHitsL1) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  CompileResult A = Service.compile(makeJob(SumProgram, "alpha.c"));
  ASSERT_TRUE(A.Succeeded) << A.Diagnostics;
  EXPECT_FALSE(A.Trace.L1Hit);

  // Same bytes, different registration path: served entirely from cache.
  CompileResult B = Service.compile(makeJob(SumProgram, "beta.c"));
  ASSERT_TRUE(B.Succeeded) << B.Diagnostics;
  EXPECT_TRUE(B.Trace.L1Hit);
  EXPECT_TRUE(B.Trace.L2Hit);
  EXPECT_TRUE(B.Trace.L3Hit);
  EXPECT_EQ(A.Module.get(), B.Module.get());

  // Different path AND a Sema-level knob change: the chain diverges at
  // L2, which forces an actual L1 *lookup* — it must hit despite the
  // path difference (the stats see the hit; a path-keyed cache would
  // miss here).
  CompileJob C = makeJob(SumProgram, "gamma.c");
  C.Options.LangOpts.HeuristicUnrollFactor = 4;
  CompileResult R = Service.compile(C);
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_TRUE(R.Trace.L1Hit);
  EXPECT_FALSE(R.Trace.L2Hit);
  EXPECT_FALSE(R.Trace.L3Hit);
  EXPECT_EQ(Service.statsSnapshot().L1.Hits, 1u);
  EXPECT_EQ(Service.statsSnapshot().L1.Misses, 1u);
}

TEST(ServiceCache, WhitespaceChangeMissesL1) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  ASSERT_TRUE(Service.compile(makeJob(SumProgram)).Succeeded);

  std::string Spaced(SumProgram);
  Spaced.insert(Spaced.find("int sum"), "  ");
  CompileResult R = Service.compile(makeJob(Spaced));
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_FALSE(R.Trace.L1Hit);
  EXPECT_FALSE(R.Trace.L2Hit);
  EXPECT_FALSE(R.Trace.L3Hit);
  EXPECT_EQ(Service.statsSnapshot().L1.Misses, 2u);
  EXPECT_EQ(Service.statsSnapshot().L1.Hits, 0u);
}

TEST(ServiceCache, UnrollFactorOnlyChangeHitsL2MissesL3) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  CompileJob A = makeJob(SumProgram);
  A.Options.RunMidend = true;
  A.Options.UnrollOpts.HeuristicFactor = 2;
  ASSERT_TRUE(Service.compile(A).Succeeded);

  CompileJob B = A;
  B.Options.UnrollOpts.HeuristicFactor = 8;
  CompileResult R = Service.compile(B);
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_TRUE(R.Trace.L1Hit);
  EXPECT_TRUE(R.Trace.L2Hit);
  EXPECT_FALSE(R.Trace.L3Hit);

  ServiceStatsSnapshot S = Service.statsSnapshot();
  EXPECT_EQ(S.L2.Hits, 1u);    // shared AST
  EXPECT_EQ(S.L2.Misses, 1u);  // built once
  EXPECT_EQ(S.L3.Misses, 2u);  // one module per factor
  EXPECT_EQ(S.L1.Misses, 1u);  // tokens produced once, never re-consulted
  EXPECT_EQ(S.L1.Hits, 0u);
}

TEST(ServiceCache, FailuresAreCachedToo) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  const char *Broken = "int main(void) { return x; }\n";
  CompileResult A = Service.compile(makeJob(Broken));
  EXPECT_FALSE(A.Succeeded);
  EXPECT_FALSE(A.Diagnostics.empty());

  CompileResult B = Service.compile(makeJob(Broken));
  EXPECT_FALSE(B.Succeeded);
  EXPECT_TRUE(B.Trace.L3Hit); // the failure artifact was served from cache
  EXPECT_EQ(A.Diagnostics, B.Diagnostics);
}

TEST(ServiceCache, LRUEvictionRespectsByteBudget) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.CacheBudgetBytes = 96u << 10; // small enough that ~30 programs churn
  CompileService Service(SO);

  for (int K = 0; K < 30; ++K) {
    std::string Source = "int main(void) { return " + std::to_string(K) +
                         "; }\n";
    ASSERT_TRUE(Service.compile(makeJob(Source)).Succeeded);
  }
  ServiceStatsSnapshot S = Service.statsSnapshot();
  EXPECT_GT(S.L1.Evictions + S.L2.Evictions + S.L3.Evictions, 0u);
  EXPECT_LE(S.L1.Bytes, SO.CacheBudgetBytes / 4);

  // An evicted program recompiles from scratch, correctly.
  CompileResult R = Service.compile(makeJob("int main(void) { return 0; }\n"));
  EXPECT_TRUE(R.Succeeded) << R.Diagnostics;
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(ServiceConcurrency, SingleFlightDedupUnderConcurrentIdenticalRequests) {
  ServiceOptions SO;
  SO.NumWorkers = 2;
  CompileService Service(SO);

  const unsigned N = stressWidth();
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<CompileResult> Results(N);
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      Results[I] = Service.compile(makeJob(SumProgram));
    });
  while (Ready.load() != N)
    std::this_thread::yield();
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();

  const ModuleArtifact *Mod = Results[0].Module.get();
  for (const CompileResult &R : Results) {
    ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
    EXPECT_EQ(R.Module.get(), Mod); // everyone got the one shared artifact
  }

  // Single-flight: each level compiled exactly once; the other N-1
  // requests either blocked on the in-flight producer (waits) or arrived
  // after publication (hits). Nothing compiled redundantly.
  ServiceStatsSnapshot S = Service.statsSnapshot();
  EXPECT_EQ(S.L3.Misses, 1u);
  EXPECT_EQ(S.L3.Hits + S.L3.InFlightWaits, N - 1);
  EXPECT_EQ(S.L2.Misses, 1u);
  EXPECT_EQ(S.L1.Misses, 1u);
  EXPECT_EQ(S.Requests, N);
}

TEST(ServiceConcurrency, WorkerPoolServesQueuedJobs) {
  ServiceOptions SO;
  SO.NumWorkers = 4;
  CompileService Service(SO);

  const unsigned N = 24;
  std::vector<std::future<CompileResult>> Futures;
  Futures.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    // Half the jobs share one program, half are unique: exercises hits,
    // misses and in-flight waits on the pool simultaneously.
    std::string Source =
        I % 2 ? SumProgram
              : "int main(void) { return " + std::to_string(I) + "; }\n";
    CompileJob Job = makeJob(std::move(Source));
    Job.Execute = true;
    Futures.push_back(Service.enqueue(std::move(Job)));
  }
  for (unsigned I = 0; I < N; ++I) {
    CompileResult R = Futures[I].get();
    ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
    ASSERT_TRUE(R.Executed);
    EXPECT_EQ(R.ExitValue, I % 2 ? 1225 : static_cast<std::int64_t>(I));
  }
  EXPECT_EQ(Service.statsSnapshot().Executions, N);
}

TEST(ServiceConcurrency, ThreadWidthSweepSharesOneModule) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  const char *Parallel = "int a[64];\n"
                         "int main(void) {\n"
                         "  #pragma omp parallel for\n"
                         "  for (int i = 0; i < 64; i = i + 1)\n"
                         "    a[i] = 3 * i;\n"
                         "  int sum = 0;\n"
                         "  for (int i = 0; i < 64; i = i + 1)\n"
                         "    sum += a[i];\n"
                         "  return sum;\n"
                         "}\n";
  std::int64_t Expected = 3 * (64 * 63 / 2);
  const ModuleArtifact *Shared = nullptr;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    CompileJob Job = makeJob(Parallel);
    Job.Execute = true;
    Job.Options.LangOpts.OpenMPDefaultNumThreads = Threads;
    CompileResult R = Service.compile(Job);
    ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
    EXPECT_EQ(R.ExitValue, Expected) << "threads=" << Threads;
    if (!Shared)
      Shared = R.Module.get();
    else {
      // Thread width is in no cache key: one module serves the sweep.
      EXPECT_TRUE(R.Trace.L3Hit);
      EXPECT_EQ(R.Module.get(), Shared);
    }
  }
  EXPECT_EQ(Service.statsSnapshot().L3.Misses, 1u);
}

//===----------------------------------------------------------------------===//
// Parity with the single-shot pipeline
//===----------------------------------------------------------------------===//

TEST(ServiceParity, CachedModuleMatchesCompilerInstance) {
  for (bool IRBuilder : {false, true}) {
    CompilerOptions Options;
    Options.LangOpts.OpenMPEnableIRBuilder = IRBuilder;
    Options.RunMidend = true;

    CompilerInstance CI(Options);
    ASSERT_TRUE(CI.compileSource(SumProgram)) << CI.renderDiagnostics();

    ServiceOptions SO;
    SO.NumWorkers = 1;
    CompileService Service(SO);
    CompileJob Job = makeJob(SumProgram);
    Job.Options = Options;
    CompileResult R = Service.compile(Job);
    ASSERT_TRUE(R.Succeeded) << R.Diagnostics;

    // Same options, same source: the cached module prints identically to
    // the module the one-shot pipeline produces.
    EXPECT_EQ(ir::printModule(R.Module->module()), CI.getIRText());
  }
}

//===----------------------------------------------------------------------===//
// On-disk artifact store
//===----------------------------------------------------------------------===//

namespace {

/// Fresh store root per test, removed afterwards.
class DiskStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    Root = ::testing::TempDir() + "mcc_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(Root);
  }
  void TearDown() override { std::filesystem::remove_all(Root); }
  std::string Root;
};

} // namespace

TEST_F(DiskStoreTest, RoundTripPreservesEveryByte) {
  DiskArtifact In;
  In.Failed = false;
  In.DiagText = "warning: something\nnote: here\n";
  In.IRText = "func @main() {\n  ret 0\n}\n";
  {
    ArtifactStore Store({Root, 1u << 20});
    ASSERT_TRUE(Store.store(0xDEADBEEFull, In));
    EXPECT_TRUE(Store.contains(0xDEADBEEFull));
    std::optional<DiskArtifact> Out = Store.load(0xDEADBEEFull);
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(Out->Failed, In.Failed);
    EXPECT_EQ(Out->DiagText, In.DiagText);
    EXPECT_EQ(Out->IRText, In.IRText);
  }
  // A second store process (fresh index) finds the artifact again.
  ArtifactStore Store2({Root, 1u << 20});
  std::optional<DiskArtifact> Out = Store2.load(0xDEADBEEFull);
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(Out->IRText, In.IRText);
  EXPECT_EQ(Store2.statsSnapshot().Hits, 1u);
}

TEST_F(DiskStoreTest, CorruptedPayloadIsAVerifiedMiss) {
  ArtifactStore Store({Root, 1u << 20});
  DiskArtifact In;
  In.DiagText = "diagnostics";
  In.IRText = std::string(256, 'x');
  ASSERT_TRUE(Store.store(7, In));

  // Flip one payload byte behind the store's back. FNV-1a is only 64 bits
  // — the header hash must catch this and degrade to a miss, never hand
  // back a wrong artifact.
  std::string Path = Store.objectPath(7);
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekp(-10, std::ios::end);
    F.put('y');
  }
  ArtifactStore Fresh({Root, 1u << 20});
  EXPECT_FALSE(Fresh.load(7).has_value());
  EXPECT_EQ(Fresh.statsSnapshot().BadArtifacts, 1u);
  // The offending file was unlinked: the next load is a plain miss.
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(Fresh.load(7).has_value());
  EXPECT_EQ(Fresh.statsSnapshot().BadArtifacts, 1u);
}

TEST_F(DiskStoreTest, TruncatedArtifactIsAVerifiedMiss) {
  ArtifactStore Store({Root, 1u << 20});
  DiskArtifact In;
  In.IRText = std::string(512, 'z');
  ASSERT_TRUE(Store.store(9, In));
  std::string Path = Store.objectPath(9);
  std::filesystem::resize_file(Path, std::filesystem::file_size(Path) / 2);

  ArtifactStore Fresh({Root, 1u << 20});
  EXPECT_FALSE(Fresh.load(9).has_value());
  EXPECT_EQ(Fresh.statsSnapshot().BadArtifacts, 1u);
  EXPECT_FALSE(std::filesystem::exists(Path));
}

TEST_F(DiskStoreTest, WrongKeyFileIsRejected) {
  ArtifactStore Store({Root, 1u << 20});
  DiskArtifact In;
  In.IRText = "ir";
  ASSERT_TRUE(Store.store(11, In));
  // A file renamed to another key's slot must not satisfy that key.
  std::filesystem::rename(Store.objectPath(11), Store.objectPath(12));
  ArtifactStore Fresh({Root, 1u << 20});
  EXPECT_FALSE(Fresh.load(12).has_value());
  EXPECT_EQ(Fresh.statsSnapshot().BadArtifacts, 1u);
}

TEST_F(DiskStoreTest, BudgetDrivenLRUSweep) {
  ArtifactStore Store({Root, 4096});
  DiskArtifact Big;
  Big.IRText = std::string(1024, 'm');
  for (std::uint64_t K = 1; K <= 16; ++K)
    ASSERT_TRUE(Store.store(K, Big));

  DiskStoreSnapshot S = Store.statsSnapshot();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Bytes, 4096u);
  // Newest entries survive; the oldest were swept.
  EXPECT_TRUE(Store.contains(16));
  EXPECT_FALSE(Store.contains(1));
  EXPECT_FALSE(std::filesystem::exists(Store.objectPath(1)));
}

TEST_F(DiskStoreTest, IndexFlushPreservesRecencyAcrossRestart) {
  DiskArtifact A;
  A.IRText = std::string(1024, 'r');
  {
    ArtifactStore Store({Root, 1u << 20});
    for (std::uint64_t K = 1; K <= 4; ++K)
      ASSERT_TRUE(Store.store(K, A));
    // Touch key 1 so it becomes most-recent despite being stored first.
    ASSERT_TRUE(Store.load(1).has_value());
    Store.flushIndex();
  }
  // Restart with a budget that only fits two entries: the sweep must
  // honour the flushed recency order (1 was touched; 2 is the LRU tail).
  ArtifactStore Store({Root, 2 * (1024 + 128)});
  EXPECT_TRUE(Store.contains(1));
  EXPECT_FALSE(Store.contains(2));
}

TEST_F(DiskStoreTest, ServiceWarmFromDiskAfterRestart) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;

  CompileResult Cold;
  {
    CompileService Service(SO);
    Cold = Service.compile(makeJob(SumProgram));
    ASSERT_TRUE(Cold.Succeeded) << Cold.Diagnostics;
    EXPECT_FALSE(Cold.Trace.DiskHit);
    Service.shutdown(); // flushes the index
  }

  // A new service on the same root answers from disk: no parse, no sema,
  // no lowering — and the outcome contract is byte-identical.
  CompileService Warm(SO);
  CompileResult R = Warm.compile(makeJob(SumProgram));
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_TRUE(R.Trace.DiskHit);
  EXPECT_FALSE(R.Trace.L1Hit); // nothing below L3 was consulted
  EXPECT_EQ(R.Diagnostics, Cold.Diagnostics);
  ASSERT_TRUE(R.Module != nullptr);
  EXPECT_FALSE(R.Module->hasLiveModule()); // a disk stub, not a live module
  EXPECT_EQ(R.Module->irText(), ir::printModule(Cold.Module->module()));
  EXPECT_EQ(Warm.statsSnapshot().Disk.Hits, 1u);
}

TEST_F(DiskStoreTest, FailureVerdictsPersistByteForByte) {
  const char *Broken = "int main(void) { return undeclared; }\n";
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;

  std::string ColdDiag;
  {
    CompileService Service(SO);
    CompileResult A = Service.compile(makeJob(Broken));
    EXPECT_FALSE(A.Succeeded);
    ColdDiag = A.Diagnostics;
    Service.shutdown();
  }
  CompileService Warm(SO);
  CompileResult B = Warm.compile(makeJob(Broken));
  EXPECT_FALSE(B.Succeeded);
  EXPECT_TRUE(B.Trace.DiskHit);
  EXPECT_EQ(B.Diagnostics, ColdDiag);
}

TEST_F(DiskStoreTest, ExecuteJobsPromoteDiskStubsToLiveModules) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;
  {
    CompileService Service(SO);
    ASSERT_TRUE(Service.compile(makeJob(SumProgram)).Succeeded);
    Service.shutdown();
  }

  CompileService Warm(SO);
  // Populate L3 with the disk stub first.
  CompileResult Stub = Warm.compile(makeJob(SumProgram));
  EXPECT_TRUE(Stub.Trace.DiskHit);

  // An execute request cannot run a stub: it must rebuild a live module
  // (promoting the cache slot) and still produce the right answer.
  CompileJob Run = makeJob(SumProgram);
  Run.Execute = true;
  CompileResult R = Warm.compile(Run);
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  ASSERT_TRUE(R.Executed);
  EXPECT_EQ(R.ExitValue, 1225);
  ASSERT_TRUE(R.Module != nullptr);
  EXPECT_TRUE(R.Module->hasLiveModule());

  // The promotion is sticky: the next execute request hits the live
  // module in L3 without recompiling.
  CompileResult Again = Warm.compile(Run);
  ASSERT_TRUE(Again.Succeeded);
  EXPECT_TRUE(Again.Trace.L3Hit);
  EXPECT_EQ(Again.Module.get(), R.Module.get());
}

TEST_F(DiskStoreTest, CorruptedStoreOnlySlowsTheServiceDown) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;
  {
    CompileService Service(SO);
    ASSERT_TRUE(Service.compile(makeJob(SumProgram)).Succeeded);
    Service.shutdown();
  }
  // Corrupt every object in the store.
  for (const auto &E :
       std::filesystem::directory_iterator(Root + "/objects")) {
    std::fstream F(E.path(), std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(-1, std::ios::end);
    F.put('!');
  }
  CompileService Warm(SO);
  CompileResult R = Warm.compile(makeJob(SumProgram));
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_FALSE(R.Trace.DiskHit); // verified miss, recompiled from source
  EXPECT_GE(Warm.statsSnapshot().Disk.BadArtifacts, 1u);
}

//===----------------------------------------------------------------------===//
// Job-spec grammar (shared by job files and the wire protocol)
//===----------------------------------------------------------------------===//

TEST(JobSpec, FlagWordsRoundTripThroughRender) {
  CompileJob Job;
  std::string Error;
  for (const char *W :
       {"-O1", "-run", "-w", "-Werror", "-fopenmp-enable-irbuilder",
        "-num-threads=7", "-unroll-factor=4", "-exec-engine=bytecode",
        "-DN=32", "--analyze=deps"})
    ASSERT_TRUE(parseJobFlagWord(W, Job, Error)) << W << ": " << Error;

  // render -> parse -> render must be a fixed point.
  std::string Flags = renderJobFlags(Job);
  CompileJob Re;
  for (const std::string &W : splitJobWords(Flags))
    ASSERT_TRUE(parseJobFlagWord(W, Re, Error)) << W << ": " << Error;
  EXPECT_EQ(renderJobFlags(Re), Flags);
  EXPECT_EQ(Re.Execute, Job.Execute);
  EXPECT_EQ(Re.Options.RunMidend, Job.Options.RunMidend);
  EXPECT_EQ(Re.Options.UnrollOpts.HeuristicFactor,
            Job.Options.UnrollOpts.HeuristicFactor);
  EXPECT_EQ(Re.Options.LangOpts.OpenMPDefaultNumThreads,
            Job.Options.LangOpts.OpenMPDefaultNumThreads);
  EXPECT_EQ(Re.Options.Defines, Job.Options.Defines);
  EXPECT_EQ(Re.Options.AnalyzePasses, Job.Options.AnalyzePasses);
}

TEST(JobSpec, UnknownFlagsAndBadLinesAreRejected) {
  CompileJob Job;
  std::string Error;
  EXPECT_FALSE(parseJobFlagWord("-frobnicate", Job, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(parseJobFlagWord("-exec-engine=quantum", Job, Error));

  std::string File;
  Error.clear();
  EXPECT_FALSE(parseJobSpecLine("# just a comment", Job, File, Error));
  EXPECT_TRUE(Error.empty()); // comments are skipped, not errors
  EXPECT_FALSE(parseJobSpecLine("a.c b.c", Job, File, Error));
  EXPECT_FALSE(Error.empty()); // two file operands
  Error.clear();
  EXPECT_TRUE(parseJobSpecLine("-O1 -run prog.c", Job, File, Error)) << Error;
  EXPECT_EQ(File, "prog.c");
  EXPECT_TRUE(Job.Execute);
  EXPECT_TRUE(Job.Options.RunMidend);
}

TEST(ServiceParity, DiagnosticsMatchCompilerInstance) {
  const char *Warns = "int main(void) {\n"
                      "  int x = 0;\n"
                      "  #pragma omp bogus\n"
                      "  return x;\n"
                      "}\n";
  CompilerInstance CI{CompilerOptions{}};
  bool DirectOK = CI.compileSource(Warns);

  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);
  CompileResult R = Service.compile(makeJob(Warns));
  EXPECT_EQ(DirectOK, R.Succeeded);
  EXPECT_EQ(CI.renderDiagnostics(), R.Diagnostics);
}

// A job that used to crash a worker (a directive asking for more loops
// than a nested transformation generates, adversarially deep nesting, or
// a very long chain of binary operators)
// fails with a diagnostic, and the same worker serves the next job.
TEST(ServiceRobustness, RefusedJobsLeaveTheWorkerServing) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  CompileJob Arity = makeJob("int a[64];\n"
                             "int main(void) {\n"
                             "  #pragma omp tile sizes(4, 4, 4)\n"
                             "  #pragma omp unroll partial(2)\n"
                             "  for (int i = 0; i < 64; i += 1)\n"
                             "    a[i] = i;\n"
                             "  return a[5];\n"
                             "}\n");
  Arity.Options.LangOpts.OpenMPEnableIRBuilder = true;
  Arity.Execute = true;
  std::string Deep = "int main(void) { return ";
  Deep += std::string(100000, '(') + "1" + std::string(100000, ')') + "; }\n";
  CompileJob DeepJob = makeJob(Deep);
  DeepJob.Execute = true;
  // A left-deep chain of 10^5 additions: parsed iteratively, but every
  // later phase would recurse along it.
  std::string LongSum = "int main(void) { return 0";
  for (unsigned I = 0; I < 100000; ++I)
    LongSum += " + 1";
  LongSum += "; }\n";
  CompileJob SumJob = makeJob(LongSum);
  SumJob.Execute = true;
  // At the nesting limit every layer, down to execution, runs on the
  // worker's stack.
  std::string AtLimit = "int main(void) { return ";
  AtLimit += std::string(255, '(') + "7" + std::string(255, ')') + "; }\n";
  CompileJob AtLimitJob = makeJob(AtLimit);
  AtLimitJob.Execute = true;

  for (CompileJob *Bad : {&Arity, &DeepJob, &SumJob}) {
    CompileResult R = Service.enqueue(*Bad).get();
    EXPECT_FALSE(R.Succeeded);
    EXPECT_NE(R.Diagnostics.find("error:"), std::string::npos)
        << R.Diagnostics;
    CompileJob Next = makeJob(SumProgram);
    Next.Execute = true;
    CompileResult N = Service.enqueue(std::move(Next)).get();
    ASSERT_TRUE(N.Succeeded) << N.Diagnostics;
    EXPECT_EQ(N.ExitValue, 1225);
  }
  CompileResult R = Service.enqueue(std::move(AtLimitJob)).get();
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_EQ(R.ExitValue, 7);
}
