//===--- OMPRaceLinter.cpp - OpenMP data-race linter -----------------------===//
//
// Walks parallel / worksharing regions and warns on writes to variables
// that are shared by default and neither privatized, reduced,
// loop-iteration-local, nor protected by a synchronizing construct. This
// catches the two classic mistakes the paper's directives make easy to
// write: the un-privatized inner induction variable and the shared
// accumulator.
//
// Only the *syntactic* AST is walked, so every diagnostic lands on the
// user's literal code — never on a shadow node like '.capture_expr.'.
//
// Array-element writes are judged with the affine dependence analysis: a
// write a[f(i)] in a worksharing loop races exactly when some dependence on
// 'a' is carried by a parallelized loop level. Writes the analysis cannot
// model are surfaced as remarks instead of being silently ignored.
//
//===----------------------------------------------------------------------===//
#include "analysis/Analysis.h"
#include "analysis/DependenceAnalysis.h"

#include <set>
#include <vector>

namespace mcc::analysis {

namespace {

/// Directives that start a region whose statements execute concurrently on
/// the threads of a team.
bool isRaceRegionDirective(OpenMPDirectiveKind K) {
  return K == OpenMPDirectiveKind::Parallel ||
         isOpenMPWorksharingDirective(K);
}

/// Directives whose associated statement is executed by one thread at a
/// time (or by a single thread), so writes inside are not team races.
bool isSynchronizedDirective(OpenMPDirectiveKind K) {
  return K == OpenMPDirectiveKind::Critical ||
         K == OpenMPDirectiveKind::Single ||
         K == OpenMPDirectiveKind::Master;
}

/// Internal variables synthesized by Sema are never user races.
bool isInternalVar(const VarDecl *V) {
  return V->isImplicit() || (!V->getName().empty() && V->getName()[0] == '.');
}

void addClauseVars(const OMPExecutableDirective *D,
                   std::set<const VarDecl *> &Out) {
  for (const OMPClause *C : D->clauses())
    if (const auto *VL = clause_dyn_cast<OMPVarListClause>(C))
      for (const DeclRefExpr *Ref : VL->getVarRefs())
        if (auto *V = decl_dyn_cast<VarDecl>(Ref->getDecl()))
          Out.insert(V);
}

/// Collects the predetermined-private induction variables of the loop nest
/// associated with \p S up to \p Depth loops. Loops consumed by a nested
/// transformation directive are re-materialized per iteration in the
/// generated code, so their IVs are iteration-local as well.
void collectLoopPrivateIVs(Stmt *S, unsigned Depth,
                           std::set<const VarDecl *> &Out) {
  if (!S)
    return;
  S = skipLoopWrappers(S);
  if (auto *TD = stmt_dyn_cast<OMPLoopTransformationDirective>(S)) {
    collectLoopPrivateIVs(TD->getAssociatedStmt(), TD->getLoopsNumber(), Out);
    return;
  }
  if (Depth == 0)
    return;
  if (auto *For = stmt_dyn_cast<ForStmt>(S)) {
    if (VarDecl *IV = matchCanonicalLoop(For).IV)
      Out.insert(IV);
    collectLoopPrivateIVs(For->getBody(), Depth - 1, Out);
  }
}

/// All variables a directive makes safe to write inside its region:
/// explicit data-sharing clauses plus the associated-loop IVs.
void addRegionSafeVars(const OMPExecutableDirective *D,
                       std::set<const VarDecl *> &Out) {
  addClauseVars(D, Out);
  if (const auto *LB = stmt_dyn_cast<OMPLoopBasedDirective>(D))
    collectLoopPrivateIVs(LB->getAssociatedStmt(), LB->getLoopsNumber(), Out);
}

/// Scans the body of one region for unsynchronized shared writes.
class RegionScanner {
public:
  /// An array-element or pointer write whose race-freedom depends on the
  /// subscripts; decided after the scan by the dependence analysis.
  struct IndexedWrite {
    const VarDecl *Base = nullptr; ///< null when the base is no named array
    std::string Name;
    SourceLocation Loc;
  };

  RegionScanner(DiagnosticsEngine &Diags, OpenMPDirectiveKind RegionKind,
                std::set<const VarDecl *> Safe)
      : Diags(Diags), RegionKind(RegionKind), Safe(std::move(Safe)) {}

  [[nodiscard]] std::vector<IndexedWrite> takeIndexedWrites() {
    return std::move(IndexedWrites);
  }

  void scan(Stmt *S, bool Synchronized) {
    if (!S)
      return;

    if (auto *DS = stmt_dyn_cast<DeclStmt>(S)) {
      // Declared inside the region: every thread has its own instance.
      for (VarDecl *V : DS->decls()) {
        Safe.insert(V);
        scan(V->getInit(), Synchronized);
      }
      return;
    }

    if (auto *D = stmt_dyn_cast<OMPExecutableDirective>(S)) {
      OpenMPDirectiveKind K = D->getDirectiveKind();
      if (isRaceRegionDirective(K))
        return; // analyzed as its own region
      if (isSynchronizedDirective(K)) {
        scan(D->getAssociatedStmt(), /*Synchronized=*/true);
        return;
      }
      // simd / tile / unroll are transparent: extend the safe set with
      // their clauses and (re-materialized) loop IVs, then keep scanning
      // the literal associated statement.
      auto Saved = Safe;
      addRegionSafeVars(D, Safe);
      scan(D->getAssociatedStmt(), Synchronized);
      Safe = std::move(Saved);
      return;
    }

    if (auto *UO = stmt_dyn_cast<UnaryOperator>(S)) {
      if (UO->isIncrementDecrementOp())
        checkWrite(UO->getSubExpr(), Synchronized);
    } else if (auto *BO = stmt_dyn_cast<BinaryOperator>(S)) {
      if (BO->isAssignmentOp())
        checkWrite(BO->getLHS(), Synchronized);
    }

    for (Stmt *Child : S->children())
      scan(Child, Synchronized);
  }

private:
  void checkWrite(Expr *Target, bool Synchronized) {
    Expr *E = Target->ignoreParenImpCasts();
    if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(E)) {
      auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl());
      if (!V || Synchronized || Safe.count(V) || isInternalVar(V))
        return;
      if (!Warned.insert(V).second)
        return;
      Diags.report(DRE->getBeginLoc(), diag::warn_analysis_shared_write_race)
          << V->getName()
          << std::string(getOpenMPDirectiveName(RegionKind));
      Diags.report(V->getLocation(), diag::note_analysis_shared_decl_here)
          << V->getName();
      return;
    }

    if (Synchronized)
      return;

    // Array-element write: resolve the (possibly multi-dimensional) base
    // and queue it for the post-scan dependence query.
    if (auto *ASE = stmt_dyn_cast<ArraySubscriptExpr>(E)) {
      Expr *B = ASE->getBase()->ignoreParenImpCasts();
      while (auto *Inner = stmt_dyn_cast<ArraySubscriptExpr>(B))
        B = Inner->getBase()->ignoreParenImpCasts();
      if (auto *BDRE = stmt_dyn_cast<DeclRefExpr>(B))
        if (auto *V = decl_dyn_cast<VarDecl>(BDRE->getDecl())) {
          if (Safe.count(V) || isInternalVar(V))
            return;
          IndexedWrites.push_back(
              {V, std::string(V->getName()), E->getBeginLoc()});
          return;
        }
      IndexedWrites.push_back({nullptr, "<expression>", E->getBeginLoc()});
      return;
    }

    // *p = ... and anything else without a named base.
    std::string Name = "<expression>";
    if (auto *UO = stmt_dyn_cast<UnaryOperator>(E))
      if (UO->getOpcode() == UnaryOperatorKind::Deref)
        if (auto *P = stmt_dyn_cast<DeclRefExpr>(
                UO->getSubExpr()->ignoreParenImpCasts()))
          Name = std::string(P->getDecl()->getName());
    IndexedWrites.push_back({nullptr, Name, E->getBeginLoc()});
  }

  DiagnosticsEngine &Diags;
  OpenMPDirectiveKind RegionKind;
  std::set<const VarDecl *> Safe;
  std::set<const VarDecl *> Warned;
  std::vector<IndexedWrite> IndexedWrites;
};

class OpenMPRaceLinter final : public ASTAnalysis {
public:
  OpenMPRaceLinter() : ASTAnalysis("openmp-race-linter") {}

  void run(TranslationUnitDecl *TU, AnalysisManager &AM) override {
    for (Decl *D : TU->decls())
      if (auto *FD = decl_dyn_cast<FunctionDecl>(D))
        if (FD->hasBody())
          findRegions(FD->getBody(), {}, AM.getDiagnostics());
  }

private:
  /// Finds region directives, threading down the set of variables already
  /// made thread-local by enclosing regions (clauses, loop IVs, and
  /// declarations inside the enclosing region).
  void findRegions(Stmt *S, std::set<const VarDecl *> Inherited,
                   DiagnosticsEngine &Diags) {
    if (!S)
      return;
    if (auto *D = stmt_dyn_cast<OMPExecutableDirective>(S)) {
      if (isRaceRegionDirective(D->getDirectiveKind())) {
        addRegionSafeVars(D, Inherited);
        RegionScanner Scanner(Diags, D->getDirectiveKind(), Inherited);
        Scanner.scan(D->getAssociatedStmt(), /*Synchronized=*/false);
        judgeIndexedWrites(D, Scanner.takeIndexedWrites(), Diags);
        collectLocalDecls(D->getAssociatedStmt(), Inherited);
      }
    }
    for (Stmt *Child : S->children())
      findRegions(Child, Inherited, Diags);
  }

  /// Decides the queued array/pointer writes of one region. For a
  /// worksharing loop, a write races exactly when the dependence analysis
  /// finds a dependence on its base carried by a parallelized level; a
  /// dependence with unknown direction, an unanalyzable nest, or a
  /// non-loop region degrade to a remark naming what was skipped and why —
  /// never to a silent pass.
  static void judgeIndexedWrites(
      const OMPExecutableDirective *D,
      std::vector<RegionScanner::IndexedWrite> Writes,
      DiagnosticsEngine &Diags) {
    if (Writes.empty())
      return;
    std::string DirName(getOpenMPDirectiveName(D->getDirectiveKind()));

    const auto *LB = stmt_dyn_cast<OMPLoopBasedDirective>(D);
    if (!LB) {
      for (const auto &W : Writes)
        Diags.report(W.Loc, diag::remark_analysis_write_skipped)
            << W.Name
            << ("'#pragma omp " + DirName +
                "' is not a worksharing loop; subscripts not analyzed");
      return;
    }

    unsigned Levels = LB->getLoopsNumber();
    DependenceInfo Info = DependenceInfo::analyze(
        const_cast<OMPLoopBasedDirective *>(LB)->getAssociatedStmt(), Levels);
    if (!Info.isAnalyzable()) {
      for (const auto &W : Writes)
        Diags.report(W.Loc, diag::remark_analysis_write_skipped)
            << W.Name << ("loop nest not analyzable: " +
                          Info.getFailureReason());
      return;
    }

    std::set<std::string> Reported;
    for (const auto &W : Writes) {
      if (!Reported.insert(W.Name).second)
        continue;
      if (!W.Base) {
        Diags.report(W.Loc, diag::remark_analysis_write_skipped)
            << W.Name << "write target is not a named array";
        continue;
      }
      const Dependence *Dep = Info.findParallelConflict(Levels, W.Base);
      if (!Dep)
        continue; // proven independent across the parallelized iterations
      unsigned Carrier = Dep->carrierLevel();
      if (Carrier < Dep->Dirs.size() && Dep->Dirs[Carrier] != DepDir::Any) {
        std::string DepStr = Dep->describe();
        Diags.report(W.Loc, diag::warn_analysis_array_write_race)
            << W.Name << ("(" + DepStr + ")") << DirName;
        if (Dep->SrcLoc.isValid() && !(Dep->SrcLoc == W.Loc))
          Diags.report(Dep->SrcLoc, diag::note_omp_dependence_source)
              << W.Name;
      } else {
        Diags.report(W.Loc, diag::remark_analysis_write_skipped)
            << W.Name
            << (Dep->Detail.empty() ? std::string("dependence direction unknown")
                                    : Dep->Detail);
      }
    }

    // Writes the dependence analysis itself had to give up on (non-affine
    // subscripts, escaped bases, unrecognized scalar updates).
    for (const SkippedAccess &SW : Info.getSkippedWrites())
      if (Reported.insert(SW.Base).second)
        Diags.report(SW.Loc, diag::remark_analysis_write_skipped)
            << SW.Base << SW.Reason;
  }

  /// Every VarDecl declared anywhere inside \p S. Used to mark
  /// block-locals of an enclosing parallel region as thread-private for
  /// nested worksharing regions.
  static void collectLocalDecls(Stmt *S, std::set<const VarDecl *> &Out) {
    if (!S)
      return;
    if (auto *DS = stmt_dyn_cast<DeclStmt>(S))
      for (VarDecl *V : DS->decls())
        Out.insert(V);
    for (Stmt *Child : S->children())
      collectLocalDecls(Child, Out);
  }
};

} // namespace

std::unique_ptr<ASTAnalysis> createOpenMPRaceLinter() {
  return std::make_unique<OpenMPRaceLinter>();
}

} // namespace mcc::analysis
