//===--- CanonicalLoopCheck.cpp - Canonical-loop conformance checker -------===//
//
// Explains *why* a loop fails OpenMP canonical-loop form (OpenMP 5.1
// s4.4.1): one warning per offending loop, with notes pointing at each
// offending expression. Runs over the loops associated with every
// loop-based directive — including the generated loops of tile / unroll
// partial shadow ASTs, where diagnostics without a usable location are
// remapped to the literal loop (paper Section 2).
//
// Complements Sema: Sema *rejects* structurally unusable loops with
// errors; this pass warns about forms Sema accepts but that violate the
// canonical-loop contract in ways that change the iteration count at
// runtime (condition variable modified in the body) or lose iterations to
// rounding (non-integer induction variable).
//
//===----------------------------------------------------------------------===//
#include "analysis/Analysis.h"

#include <set>
#include <vector>

namespace mcc::analysis {

namespace {

/// Does \p E (ignoring parens/casts) reference exactly \p V?
bool isRefTo(const Expr *E, const VarDecl *V) {
  const auto *DRE = stmt_dyn_cast<DeclRefExpr>(E->ignoreParenImpCasts());
  return DRE && DRE->getDecl() == V;
}

void collectReferencedVars(const Stmt *S, std::set<const VarDecl *> &Out) {
  if (!S)
    return;
  if (const auto *DRE = stmt_dyn_cast<DeclRefExpr>(S))
    if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl()))
      Out.insert(V);
  for (Stmt *Child : S->children())
    collectReferencedVars(Child, Out);
}

/// First statement in \p S that modifies \p V (assignment target or
/// increment/decrement operand), or null.
const Stmt *findModification(const Stmt *S, const VarDecl *V) {
  if (!S)
    return nullptr;
  if (const auto *BO = stmt_dyn_cast<BinaryOperator>(S)) {
    if (BO->isAssignmentOp() && isRefTo(BO->getLHS(), V))
      return BO;
  } else if (const auto *UO = stmt_dyn_cast<UnaryOperator>(S)) {
    if (UO->isIncrementDecrementOp() && isRefTo(UO->getSubExpr(), V))
      return UO;
  }
  for (Stmt *Child : S->children())
    if (const Stmt *Found = findModification(Child, V))
      return Found;
  return nullptr;
}

bool isCanonicalCondition(const Expr *Cond, const VarDecl *IV) {
  const auto *BO = stmt_dyn_cast<BinaryOperator>(Cond->ignoreParenImpCasts());
  if (!BO || !BO->isComparisonOp() ||
      BO->getOpcode() == BinaryOperatorKind::EQ)
    return false;
  return isRefTo(BO->getLHS(), IV) || isRefTo(BO->getRHS(), IV);
}

bool isCanonicalIncrement(const Expr *Inc, const VarDecl *IV) {
  const Expr *E = Inc->ignoreParenImpCasts();
  if (const auto *UO = stmt_dyn_cast<UnaryOperator>(E))
    return UO->isIncrementDecrementOp() && isRefTo(UO->getSubExpr(), IV);
  const auto *BO = stmt_dyn_cast<BinaryOperator>(E);
  if (!BO || !isRefTo(BO->getLHS(), IV))
    return false;
  switch (BO->getOpcode()) {
  case BinaryOperatorKind::AddAssign:
  case BinaryOperatorKind::SubAssign:
    return true;
  case BinaryOperatorKind::Assign: {
    // var = var + incr / var = incr + var / var = var - incr
    const auto *RHS =
        stmt_dyn_cast<BinaryOperator>(BO->getRHS()->ignoreParenImpCasts());
    if (!RHS || !RHS->isAdditiveOp())
      return false;
    if (RHS->getOpcode() == BinaryOperatorKind::Sub)
      return isRefTo(RHS->getLHS(), IV);
    return isRefTo(RHS->getLHS(), IV) || isRefTo(RHS->getRHS(), IV);
  }
  default:
    return false;
  }
}

} // namespace

bool checkCanonicalLoopConformance(Stmt *Loop, OpenMPDirectiveKind DKind,
                                   DiagnosticsEngine &Diags) {
  Loop = skipLoopWrappers(Loop);
  std::string DirName(getOpenMPDirectiveName(DKind));

  auto *For = stmt_dyn_cast<ForStmt>(Loop);
  if (!For) {
    Diags.report(Loop->getBeginLoc(), diag::warn_analysis_loop_not_canonical)
        << DirName;
    Diags.report(Loop->getBeginLoc(), diag::note_analysis_not_a_loop)
        << Loop->getStmtClassName();
    return false;
  }

  struct Issue {
    diag::DiagID ID;
    SourceLocation Loc;
    std::vector<std::string> Args;
  };
  std::vector<Issue> Issues;

  VarDecl *IV = getLoopIterationVar(For);
  if (!IV) {
    Stmt *At = For->getInit() ? For->getInit() : static_cast<Stmt *>(For);
    Issues.push_back({diag::note_analysis_noncanonical_init,
                      At->getBeginLoc(),
                      {}});
  } else {
    std::string IVName(IV->getName());

    if (!IV->getType()->isIntegerType() && !IV->getType()->isPointerType())
      Issues.push_back({diag::note_analysis_noninteger_iv, IV->getLocation(),
                        {IVName, IV->getType().getAsString()}});

    Expr *Cond = For->getCond();
    if (!Cond || !isCanonicalCondition(Cond, IV))
      Issues.push_back(
          {diag::note_analysis_noncanonical_cond,
           Cond ? Cond->getBeginLoc() : For->getBeginLoc(),
           {IVName}});

    Expr *Inc = For->getInc();
    if (!Inc || !isCanonicalIncrement(Inc, IV))
      Issues.push_back({diag::note_analysis_noncanonical_inc,
                        Inc ? Inc->getBeginLoc() : For->getBeginLoc(),
                        {IVName}});

    // The trip count must be invariant: neither the iteration variable nor
    // any variable the condition depends on may be modified in the body.
    if (Cond) {
      std::set<const VarDecl *> CondVars;
      collectReferencedVars(Cond, CondVars);
      for (const VarDecl *V : CondVars) {
        const Stmt *Mod = findModification(For->getBody(), V);
        if (!Mod)
          continue;
        Issues.push_back({V == IV ? diag::note_analysis_iv_modified_here
                                  : diag::note_analysis_cond_var_modified_here,
                          Mod->getBeginLoc(),
                          {std::string(V->getName())}});
      }
    }
  }

  if (Issues.empty())
    return true;

  Diags.report(For->getBeginLoc(), diag::warn_analysis_loop_not_canonical)
      << DirName;
  for (const Issue &I : Issues) {
    DiagnosticBuilder B = Diags.report(I.Loc, I.ID);
    for (const std::string &A : I.Args)
      B << A;
  }
  return false;
}

namespace {

class CanonicalLoopConformance final : public ASTAnalysis {
public:
  CanonicalLoopConformance()
      : ASTAnalysis("canonical-loop-conformance") {}

  void run(TranslationUnitDecl *TU, AnalysisManager &AM) override {
    struct Finder : RecursiveASTVisitor<Finder> {
      CanonicalLoopConformance *Self = nullptr;
      DiagnosticsEngine *Diags = nullptr;
      bool visitStmt(Stmt *S) {
        if (auto *D = stmt_dyn_cast<OMPLoopBasedDirective>(S))
          Self->checkDirective(D, *Diags);
        return true;
      }
      bool visitDecl(Decl *) { return true; }
    } F;
    F.Self = this;
    F.Diags = &AM.getDiagnostics();
    F.traverseDecl(TU);
  }

private:
  void checkDirective(OMPLoopBasedDirective *D, DiagnosticsEngine &Diags) {
    std::string DirName(getOpenMPDirectiveName(D->getDirectiveKind()));

    // The literal associated nest.
    checkNest(D->getAssociatedStmt(), D->getLoopsNumber(),
              D->getDirectiveKind(), Diags);

    // The generated loops of a transformation's shadow AST: the floor
    // loops of tile, the strip-mined outer loop of unroll partial, and so
    // on. These are what an enclosing directive would associate with, so
    // they must be canonical too. Diagnostics lacking a location are
    // remapped to the directive (paper Section 2).
    auto *TD = stmt_dyn_cast<OMPLoopTransformationDirective>(D);
    if (!TD || !TD->getTransformedStmt())
      return;
    Diags.pushTransformRemap(D->getBeginLoc(), DirName);
    checkNest(TD->getTransformedStmt(), TD->getNumGeneratedLoops(),
              D->getDirectiveKind(), Diags);
    Diags.popTransformRemap();
  }

  void checkNest(Stmt *S, unsigned Depth, OpenMPDirectiveKind DKind,
                 DiagnosticsEngine &Diags) {
    for (unsigned D = 0; D < Depth && S; ++D) {
      S = skipLoopWrappers(S);
      // A nested transformation directive is checked at its own visit.
      if (stmt_dyn_cast<OMPLoopTransformationDirective>(S))
        return;
      auto *For = stmt_dyn_cast<ForStmt>(S);
      if (!For)
        return; // structural problems are Sema's / the verifier's job
      // Generated loops reuse the literal loop's source range, so keying
      // on the begin location dedups the literal nest against its clones.
      // Loops without a location (fully synthesized) are always checked.
      if (For->getBeginLoc().isInvalid() ||
          Checked.insert(For->getBeginLoc().getRawEncoding()).second)
        checkCanonicalLoopConformance(For, DKind, Diags);
      S = For->getBody();
    }
  }

  std::set<std::uint32_t> Checked;
};

} // namespace

std::unique_ptr<ASTAnalysis> createCanonicalLoopConformanceCheck() {
  return std::make_unique<CanonicalLoopConformance>();
}

} // namespace mcc::analysis
