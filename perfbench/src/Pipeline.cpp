//===--- Pipeline.cpp - One job, untraced and traced ----------------------===//
//
// The untraced job is what a `minicc -run` user waits for:
// CompilerInstance construction -> compileSource -> ExecutionEngine ->
// runFunction("main"). The traced job composes the same pipeline from
// each module's public calls, the way CompilerInstance and the compile
// service do, with one span per call.
//
//===----------------------------------------------------------------------===//
#include "Bench.h"

#include "analysis/Analysis.h"
#include "interp/Bytecode.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace pb {

using namespace mcc;

namespace {

/// True when the compile failed only because Sema refused a loop
/// transformation on dependence grounds.
bool refusedOnLegality(const std::vector<Diagnostic> &Diags) {
  bool Refused = false;
  for (const Diagnostic &D : Diags) {
    if (D.Sev != diag::Severity::Error)
      continue;
    if (D.ID != diag::err_omp_transform_illegal_dep &&
        D.ID != diag::err_omp_transform_not_analyzable)
      return false;
    Refused = true;
  }
  return Refused;
}

std::uint64_t countInsts(const ir::Module &M) {
  std::uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += BB->instructions().size();
  return N;
}

/// Checks an outcome against the job's reference.
void check(const Job &J, bool Compiled, bool Refused, std::int64_t Value,
           JobSample &S) {
  if (J.Want == Expect::Refusal) {
    S.Ok = !Compiled && Refused;
    if (!S.Ok)
      S.Why = Compiled ? "expected a legality refusal, but it compiled"
                       : "compile failed, but not on legality";
    return;
  }
  S.Ok = Compiled && (!J.Execute || Value == J.Reference);
  if (!Compiled)
    S.Why = "compile failed";
  else if (!S.Ok)
    S.Why = "main returned " + std::to_string(Value) + ", reference " +
            std::to_string(J.Reference);
}

} // namespace

JobSample runJob(const Job &J) {
  JobSample S;
  const std::int64_t T0 = nowNs();
  auto CI = std::make_unique<CompilerInstance>(J.Opts);
  bool Compiled = CI->compileSource(J.Source);
  S.CompileMs = msSince(T0);
  std::int64_t Value = 0;
  std::unique_ptr<interp::ExecutionEngine> EE;
  if (Compiled && J.Execute) {
    const std::int64_t T1 = nowNs();
    EE = std::make_unique<interp::ExecutionEngine>(*CI->getIRModule(),
                                                   J.Opts.ExecEngine);
    Value = EE->runFunction("main", {}).I;
    S.ExecMs = msSince(T1);
  }
  S.JobMs = msSince(T0);
  if (EE) {
    interp::ExecStats ES = EE->statsSnapshot();
    S.CodeBytes = ES.BytecodeBytes + ES.JITCodeBytes;
  }
  const bool Refused =
      !Compiled && refusedOnLegality(CI->getDiagStore().getDiagnostics());
  check(J, Compiled, Refused, Value, S);
  return S;
}

std::vector<JobSample>
bestOf(const std::vector<std::vector<JobSample>> &ByRound) {
  std::vector<JobSample> Best = ByRound.front();
  for (std::size_t R = 1; R < ByRound.size(); ++R)
    for (std::size_t I = 0; I < Best.size(); ++I) {
      const JobSample &S = ByRound[R][I];
      JobSample &B = Best[I];
      B.JobMs = std::min(B.JobMs, S.JobMs);
      B.CompileMs = std::min(B.CompileMs, S.CompileMs);
      if (S.ExecMs >= 0)
        B.ExecMs = B.ExecMs < 0 ? S.ExecMs : std::min(B.ExecMs, S.ExecMs);
      if (B.Ok && !S.Ok) {
        B.Ok = false;
        B.Why = S.Why;
      }
    }
  return Best;
}

JobSample tracedJob(const Job &J, std::uint32_t Id, Tracer &T,
                    LayerCounts &C) {
  // Everything the pipeline builds lives here, so that tearing it down
  // happens after the job span closes (the untraced job does not time
  // destruction either).
  struct State {
    FileManager FM, ReplayFM;
    SourceManager SM;
    StoringDiagnosticConsumer Store;
    DiagnosticsEngine Diags{&Store};
    std::unique_ptr<Preprocessor> PP, Replay;
    std::vector<Token> Tokens;
    std::unique_ptr<ASTContext> Ctx;
    std::unique_ptr<Sema> Actions;
    TranslationUnitDecl *TU = nullptr;
    std::unique_ptr<ir::Module> M;
    std::shared_ptr<const interp::bc::BytecodeModule> BC;
    std::unique_ptr<interp::ExecutionEngine> EE;
  };
  JobSample S;
  const CompilerOptions &O = J.Opts;
  const std::size_t First = T.Spans.size();
  const std::int32_t JobSpan = T.begin("job", Id);
  auto St = std::make_unique<State>();
  bool Compiled = false;
  std::int64_t Value = 0;
  midend::PipelineStats MS;
  std::uint64_t InstsCodegen = 0;
  do {
    {
      Scope Sp(&T, "lex", Id);
      St->FM.addVirtualFile("input.c", J.Source);
      St->PP = std::make_unique<Preprocessor>(St->FM, St->SM, St->Diags);
      St->PP->setOpenMPEnabled(O.LangOpts.OpenMP);
      if (!St->PP->enterMainFile("input.c"))
        break;
      Token Tok;
      do {
        St->PP->lex(Tok);
        St->Tokens.push_back(Tok);
      } while (!Tok.is(tok::eof));
    }
    {
      // Parser and Sema over the recorded stream, so lexing is excluded.
      Scope Sp(&T, "parse", Id);
      St->Replay =
          std::make_unique<Preprocessor>(St->ReplayFM, St->SM, St->Diags);
      St->Replay->setOpenMPEnabled(O.LangOpts.OpenMP);
      St->Replay->enterTokenStream(St->Tokens);
      St->Ctx = std::make_unique<ASTContext>();
      St->Actions = std::make_unique<Sema>(*St->Ctx, St->Diags, O.LangOpts);
      Parser P(*St->Replay, *St->Actions);
      St->TU = P.parseTranslationUnit();
    }
    if (!St->TU || St->Diags.hasErrorOccurred())
      break;
    {
      Scope Sp(&T, "analysis", Id);
      analysis::AnalysisManager AM(*St->Ctx, St->Diags);
      analysis::registerDefaultAnalyses(AM, O.RunAnalyzers, O.RunASTVerifier);
      AM.run(St->TU);
    }
    if (St->Diags.hasErrorOccurred())
      break;
    {
      Scope Sp(&T, "codegen", Id);
      St->M = std::make_unique<ir::Module>("main");
      CodeGenModule CGM(*St->Ctx, O.LangOpts, *St->M);
      CGM.emitTranslationUnit(St->TU);
    }
    {
      Scope Sp(&T, "bench.count", Id);
      InstsCodegen = countInsts(*St->M);
    }
    {
      Scope Sp(&T, "ir.verify", Id);
      if (!ir::verifyModule(*St->M).empty())
        break;
    }
    if (O.RunMidend) {
      {
        Scope Sp(&T, "midend.unroll", Id);
        MS.Unroll = midend::runLoopUnroll(*St->M, O.UnrollOpts);
      }
      {
        Scope Sp(&T, "midend.simplifycfg", Id);
        MS.BlocksSimplified = midend::runSimplifyCFG(*St->M);
      }
      {
        Scope Sp(&T, "midend.storeforward", Id);
        MS.LoadsForwarded = midend::runStoreForward(*St->M);
      }
      {
        Scope Sp(&T, "midend.scalarpromote", Id);
        MS.ScalarsPromoted = midend::runScalarPromote(*St->M);
      }
      {
        Scope Sp(&T, "midend.dce", Id);
        MS.InstructionsDCEd = midend::runDCE(*St->M);
      }
      Scope Sp(&T, "ir.verify", Id);
      if (!ir::verifyModule(*St->M).empty())
        break;
    }
    Compiled = true;
    {
      Scope Sp(&T, "interp.translate", Id);
      St->BC = interp::bc::compileToBytecode(*St->M);
    }
    const bool Native = O.ExecEngine == interp::ExecEngineKind::Native;
    {
      // The native engine compiles every function here; the others only
      // bind the precompiled bytecode.
      Scope Sp(&T, Native ? "jit.compile" : "interp.init", Id);
      St->EE = std::make_unique<interp::ExecutionEngine>(*St->M, O.ExecEngine,
                                                         St->BC);
    }
    {
      Scope Sp(&T,
               O.ExecEngine == interp::ExecEngineKind::Bytecode ? "interp.exec"
                                                                : "jit.exec",
               Id);
      Value = St->EE->runFunction("main", {}).I;
    }
  } while (false);
  T.end(JobSpan);

  const Span &JS = T.Spans[First];
  S.JobMs = static_cast<double>(JS.EndNs - JS.StartNs) / 1e6;
  std::int64_t CpuNs = 0, WallNs = 0;
  for (std::size_t I = First + 1; I < T.Spans.size(); ++I)
    if (T.Spans[I].Parent == JobSpan) {
      CpuNs += T.Spans[I].CpuEndNs - T.Spans[I].CpuStartNs;
      WallNs += T.Spans[I].EndNs - T.Spans[I].StartNs;
    }
  C.Cover.add(JS, CpuNs, WallNs);

  const bool Refused =
      !Compiled && refusedOnLegality(St->Store.getDiagnostics());
  check(J, Compiled, Refused, Value, S);
  C.Tokens += St->Tokens.size();
  if (St->Ctx) {
    C.ASTNodes += St->Ctx->getNumNodes();
    C.ASTBytes += St->Ctx->getTotalAllocatedBytes();
  }
  C.Refused += Refused;
  C.IRInstsCodegen += InstsCodegen;
  if (Compiled) {
    C.IRInstsOut += countInsts(*St->M);
    C.LoopsUnrolled += MS.Unroll.LoopsUnrolled;
    C.LoadsForwarded += MS.LoadsForwarded;
    C.ScalarsPromoted += MS.ScalarsPromoted;
    C.InstsDCEd += MS.InstructionsDCEd;
    interp::ExecStats ES = St->EE->statsSnapshot();
    C.BytecodeBytes += St->BC->byteSize();
    // A tiered job's bytecode steps depend on when a team thread's OSR
    // promotion lands, so only the other engines' counts add up exactly.
    if (O.ExecEngine != interp::ExecEngineKind::Tiered) {
      C.InstsExecuted += ES.InstructionsExecuted;
      C.SuperinstHits += ES.SuperinstHits;
    }
    C.JITCodeBytes += ES.JITCodeBytes;
    C.JITFunctions += ES.JITFunctionsCompiled;
    C.JITFallbacks += ES.JITFallbacks;
    C.JITSpills += ES.JITSpills;
    C.JITOSR += ES.JITOSRPromotions;
  }

  // Parity: the composed pipeline must build the very module
  // CompilerInstance builds, or the spans time a different program.
  CompilerInstance CI(O);
  bool CIOK = CI.compileSource(J.Source);
  bool Same = CIOK == Compiled &&
              (!Compiled || CI.getIRText() == ir::printModule(*St->M));
  if (!Same) {
    ++C.ParityFailures;
    if (S.Ok) {
      S.Ok = false;
      S.Why = "traced pipeline IR differs from CompilerInstance";
    }
  }
  return S;
}

std::map<std::string, SpanTotals> summarize(const std::vector<Span> &Spans) {
  std::vector<std::int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<std::size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, SpanTotals> Out;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    SpanTotals &T = Out[Spans[I].Name];
    const std::int64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    ++T.Count;
    T.TotalMs += static_cast<double>(Dur) / 1e6;
    T.SelfMs += static_cast<double>(Dur - ChildNs[I]) / 1e6;
  }
  return Out;
}

bool writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "name\tjob\tparent\tstart_ns\tend_ns\tcpu_start_ns\t"
                  "cpu_end_ns\n");
  for (const Span &S : Spans)
    std::fprintf(F, "%s\t%u\t%d\t%lld\t%lld\t%lld\t%lld\n", S.Name, S.Job,
                 S.Parent, static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs),
                 static_cast<long long>(S.CpuStartNs),
                 static_cast<long long>(S.CpuEndNs));
  return std::fclose(F) == 0;
}

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const std::size_t Rank = static_cast<std::size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  return V[std::clamp<std::size_t>(Rank, 1, V.size()) - 1];
}

double median(std::vector<double> V) { return percentile(V, 50); }

void releaseFreeMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

} // namespace pb
