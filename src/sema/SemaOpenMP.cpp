//===--- SemaOpenMP.cpp - OpenMP directive & canonical loop analysis ------===//
//
// Implements clause validation, directive construction, and the OpenMP 5.1
// canonical-loop-form analysis (section 4.4.1 of the specification). The
// transformed-AST construction lives in SemaOpenMPTransform.cpp.
//
//===----------------------------------------------------------------------===//
#include "ast/RecursiveASTVisitor.h"
#include "sema/Sema.h"

#include <set>

namespace mcc {

namespace {

/// Collects all variables declared within a subtree.
class DeclCollector : public RecursiveASTVisitor<DeclCollector> {
public:
  std::set<const VarDecl *> Declared;

  bool visitStmt(Stmt *S) {
    if (auto *DS = stmt_dyn_cast<DeclStmt>(S))
      for (VarDecl *D : DS->decls())
        Declared.insert(D);
    if (auto *CS = stmt_dyn_cast<CapturedStmt>(S))
      for (ImplicitParamDecl *P : CS->getCapturedDecl()->parameters())
        Declared.insert(P);
    // Loop-transformation shadow trees also declare variables.
    return true;
  }
};

/// Collects all variables referenced within a subtree.
class RefCollector : public RecursiveASTVisitor<RefCollector> {
public:
  std::vector<const VarDecl *> Referenced;
  std::set<const VarDecl *> Seen;

  bool visitStmt(Stmt *S) {
    if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(S))
      if (auto *VD = decl_dyn_cast<VarDecl>(DRE->getDecl()))
        if (Seen.insert(VD).second)
          Referenced.push_back(VD);
    return true;
  }
};

/// Checks whether \p Var is written (assigned, incremented, decremented or
/// address-taken) anywhere in the subtree.
bool isVarModifiedIn(const Stmt *S, const VarDecl *Var) {
  if (!S)
    return false;
  if (const auto *BO = stmt_dyn_cast<BinaryOperator>(S)) {
    if (BO->isAssignmentOp()) {
      const Expr *LHS = BO->getLHS()->ignoreParenImpCasts();
      if (const auto *DRE = stmt_dyn_cast<DeclRefExpr>(LHS))
        if (DRE->getDecl() == Var)
          return true;
    }
  }
  if (const auto *UO = stmt_dyn_cast<UnaryOperator>(S)) {
    if (UO->isIncrementDecrementOp() ||
        UO->getOpcode() == UnaryOperatorKind::AddrOf) {
      const Expr *Sub = UO->getSubExpr()->ignoreParenImpCasts();
      if (const auto *DRE = stmt_dyn_cast<DeclRefExpr>(Sub))
        if (DRE->getDecl() == Var)
          return true;
    }
  }
  for (const Stmt *Child : S->children())
    if (isVarModifiedIn(Child, Var))
      return true;
  return false;
}

/// True if the subtree contains a break statement that would leave the
/// current loop (i.e. not nested inside an inner loop).
bool containsLoopBreak(const Stmt *S) {
  if (!S)
    return false;
  if (stmt_dyn_cast<BreakStmt>(S))
    return true;
  // A break inside a nested loop terminates that loop, which is fine.
  if (stmt_dyn_cast<ForStmt>(S) || stmt_dyn_cast<WhileStmt>(S) ||
      stmt_dyn_cast<DoStmt>(S))
    return false;
  for (const Stmt *Child : S->children())
    if (containsLoopBreak(Child))
      return true;
  return false;
}

/// True if \p E references any of the variables in \p Vars.
bool referencesAnyVar(const Expr *E, const std::set<const VarDecl *> &Vars) {
  if (!E)
    return false;
  if (const auto *DRE = stmt_dyn_cast<DeclRefExpr>(E))
    if (Vars.count(decl_dyn_cast<VarDecl>(DRE->getDecl())))
      return true;
  for (const Stmt *Child : E->children())
    if (const auto *CE = stmt_dyn_cast<Expr>(Child))
      if (referencesAnyVar(CE, Vars))
        return true;
  return false;
}

/// True if the expression contains a function call (used to enforce
/// loop-invariant, re-evaluable bounds).
bool containsCall(const Expr *E) {
  if (!E)
    return false;
  if (stmt_dyn_cast<CallExpr>(E))
    return true;
  for (const Stmt *Child : E->children())
    if (const auto *CE = stmt_dyn_cast<Expr>(Child))
      if (containsCall(CE))
        return true;
  return false;
}

} // namespace

// ===------------------------------------------------------------------=== //
// Clause actions
// ===------------------------------------------------------------------=== //

OMPClause *Sema::ActOnOpenMPNumThreadsClause(SourceRange R,
                                             Expr *NumThreads) {
  if (!NumThreads)
    return nullptr;
  NumThreads = defaultFunctionArrayLvalueConversion(NumThreads);
  if (auto V = evaluateIntegerWithConstVars(NumThreads); V && *V <= 0) {
    Diags.report(R.getBegin(), diag::err_omp_num_threads_requires_positive);
    return nullptr;
  }
  return Ctx.create<OMPNumThreadsClause>(R, NumThreads);
}

OMPClause *Sema::ActOnOpenMPScheduleClause(SourceRange R,
                                           OpenMPScheduleKind Kind,
                                           Expr *Chunk) {
  if (Chunk)
    Chunk = defaultFunctionArrayLvalueConversion(Chunk);
  return Ctx.create<OMPScheduleClause>(R, Kind, Chunk);
}

OMPClause *Sema::ActOnOpenMPCollapseClause(SourceRange R, Expr *Num) {
  if (!Num)
    return nullptr;
  auto V = evaluateIntegerWithConstVars(Num);
  if (!V) {
    Diags.report(Num->getBeginLoc(), diag::err_omp_expected_constant);
    return nullptr;
  }
  if (*V <= 0) {
    Diags.report(Num->getBeginLoc(),
                 diag::err_omp_collapse_requires_positive);
    return nullptr;
  }
  auto *CE = Ctx.create<ConstantExpr>(Num, *V);
  return Ctx.create<OMPCollapseClause>(R, CE);
}

OMPClause *Sema::ActOnOpenMPFullClause(SourceRange R) {
  return Ctx.create<OMPFullClause>(R);
}

OMPClause *Sema::ActOnOpenMPPartialClause(SourceRange R, Expr *Factor) {
  ConstantExpr *CE = nullptr;
  if (Factor) {
    auto V = evaluateIntegerWithConstVars(Factor);
    if (!V) {
      Diags.report(Factor->getBeginLoc(), diag::err_omp_expected_constant);
      return nullptr;
    }
    if (*V <= 0) {
      Diags.report(Factor->getBeginLoc(),
                   diag::err_omp_partial_requires_positive);
      return nullptr;
    }
    CE = Ctx.create<ConstantExpr>(Factor, *V);
  }
  return Ctx.create<OMPPartialClause>(R, CE);
}

OMPClause *Sema::ActOnOpenMPSizesClause(SourceRange R,
                                        std::vector<Expr *> Sizes) {
  std::vector<ConstantExpr *> Consts;
  unsigned Index = 0;
  for (Expr *E : Sizes) {
    ++Index;
    if (!E)
      return nullptr;
    auto V = evaluateIntegerWithConstVars(E);
    if (!V) {
      Diags.report(E->getBeginLoc(), diag::err_omp_expected_constant);
      return nullptr;
    }
    if (*V <= 0) {
      Diags.report(E->getBeginLoc(), diag::err_omp_sizes_requires_positive)
          << Index;
      return nullptr;
    }
    Consts.push_back(Ctx.create<ConstantExpr>(E, *V));
  }
  auto Stored = Ctx.allocateCopy(Consts);
  return Ctx.create<OMPSizesClause>(
      R, std::span<ConstantExpr *const>(Stored.data(), Stored.size()));
}

OMPClause *Sema::ActOnOpenMPPermutationClause(SourceRange R,
                                              std::vector<Expr *> Args) {
  // Each argument must be a positive integer constant; whether the values
  // form a permutation of 1..n is checked when the directive is built (the
  // associated loop count is not known here).
  std::vector<ConstantExpr *> Consts;
  for (Expr *E : Args) {
    if (!E)
      return nullptr;
    auto V = evaluateIntegerWithConstVars(E);
    if (!V) {
      Diags.report(E->getBeginLoc(), diag::err_omp_expected_constant);
      return nullptr;
    }
    if (*V <= 0) {
      Diags.report(E->getBeginLoc(), diag::err_omp_permutation_invalid)
          << static_cast<unsigned>(Args.size());
      return nullptr;
    }
    Consts.push_back(Ctx.create<ConstantExpr>(E, *V));
  }
  auto Stored = Ctx.allocateCopy(Consts);
  return Ctx.create<OMPPermutationClause>(
      R, std::span<ConstantExpr *const>(Stored.data(), Stored.size()));
}

OMPClause *Sema::ActOnOpenMPLoopRangeClause(SourceRange R,
                                            std::vector<Expr *> Args) {
  if (Args.size() != 2) {
    Diags.report(R.getBegin(), diag::err_omp_looprange_two_args);
    return nullptr;
  }
  std::vector<ConstantExpr *> Consts;
  unsigned Index = 0;
  for (Expr *E : Args) {
    ++Index;
    if (!E)
      return nullptr;
    auto V = evaluateIntegerWithConstVars(E);
    if (!V) {
      Diags.report(E->getBeginLoc(), diag::err_omp_expected_constant);
      return nullptr;
    }
    if (*V <= 0) {
      Diags.report(E->getBeginLoc(),
                   diag::err_omp_looprange_requires_positive)
          << Index;
      return nullptr;
    }
    Consts.push_back(Ctx.create<ConstantExpr>(E, *V));
  }
  if (Consts[1]->getResult() < 2) {
    Diags.report(Consts[1]->getBeginLoc(),
                 diag::err_omp_looprange_count_too_small);
    return nullptr;
  }
  return Ctx.create<OMPLoopRangeClause>(R, Consts[0], Consts[1]);
}

OMPClause *Sema::ActOnOpenMPVarListClause(OpenMPClauseKind Kind,
                                          SourceRange R,
                                          std::vector<Expr *> Vars,
                                          OpenMPReductionOp RedOp) {
  std::vector<DeclRefExpr *> Refs;
  for (Expr *E : Vars) {
    if (!E)
      return nullptr;
    auto *DRE = stmt_dyn_cast<DeclRefExpr>(E->ignoreParenImpCasts());
    if (!DRE || !decl_dyn_cast<VarDecl>(DRE->getDecl())) {
      Diags.report(E->getBeginLoc(), diag::err_expected_identifier);
      return nullptr;
    }
    Refs.push_back(DRE);
  }
  auto Stored = Ctx.allocateCopy(Refs);
  std::span<DeclRefExpr *const> Span(Stored.data(), Stored.size());
  switch (Kind) {
  case OpenMPClauseKind::Private:
    return Ctx.create<OMPPrivateClause>(R, Span);
  case OpenMPClauseKind::FirstPrivate:
    return Ctx.create<OMPFirstPrivateClause>(R, Span);
  case OpenMPClauseKind::Shared:
    return Ctx.create<OMPSharedClause>(R, Span);
  case OpenMPClauseKind::Reduction:
    return Ctx.create<OMPReductionClause>(R, RedOp, Span);
  default:
    return nullptr;
  }
}

OMPClause *Sema::ActOnOpenMPNoWaitClause(SourceRange R) {
  return Ctx.create<OMPNoWaitClause>(R);
}

// ===------------------------------------------------------------------=== //
// Canonical loop analysis (OpenMP 5.1 section 4.4.1)
// ===------------------------------------------------------------------=== //

bool Sema::checkOpenMPCanonicalLoop(Stmt *S, OpenMPDirectiveKind Kind,
                                    OMPLoopInfo &Info) {
  // An OMPCanonicalLoop wrapper can be losslessly removed for re-analysis
  // (paper Section 3.1).
  if (auto *CL = stmt_dyn_cast<OMPCanonicalLoop>(S))
    S = CL->getLoopStmt();

  auto *For = stmt_dyn_cast<ForStmt>(S);
  if (!For) {
    Diags.report(S ? S->getBeginLoc() : SourceLocation(),
                 diag::err_omp_not_for)
        << std::string(getOpenMPDirectiveName(Kind));
    return false;
  }
  Info.Loop = For;

  CanonicalLoopForm F = matchCanonicalLoop(For, evaluateInteger);
  if (!F.InitMatched) {
    Diags.report(For->getBeginLoc(), diag::err_omp_loop_no_init_var);
    Diags.report(For->getBeginLoc(), diag::note_omp_canonical_requirement);
    return false;
  }
  Info.IterVar = F.IV;
  Info.LowerBound = F.LowerBound;
  Info.IVType = F.IV->getType().withoutConst();
  Info.LogicalType = Info.IVType->isPointerType()
                         ? Ctx.getULongType()
                         : Ctx.getCorrespondingUnsignedType(Info.IVType);

  std::string IVName(F.IV->getName());
  if (!F.CondMatched) {
    Diags.report(F.CondLoc, diag::err_omp_loop_bad_cond) << IVName;
    Diags.report(For->getBeginLoc(), diag::note_omp_canonical_requirement);
    return false;
  }
  Info.UpperBound = F.UpperBound;
  if (!F.IncMatched) {
    Diags.report(F.IncLoc, diag::err_omp_loop_bad_incr) << IVName;
    Diags.report(For->getBeginLoc(), diag::note_omp_canonical_requirement);
    return false;
  }
  if (F.StepMagnitude == 0u) {
    Diags.report(F.IncLoc, diag::err_omp_loop_zero_step);
    return false;
  }
  // The step as a positive magnitude: "i += -3" steps down by 3.
  if (!F.Step)
    Info.Step = buildIntLiteral(1, Ctx.getIntType());
  else if (F.StepNegated)
    Info.Step = buildIntLiteral(*F.StepMagnitude, Ctx.getLongType());
  else
    Info.Step = F.Step;
  Info.Decreasing = F.Decreasing;
  Info.InclusiveBound = F.isInclusive();

  // Direction must agree with the comparison; '!=' requires a step of
  // constant magnitude 1.
  if (F.Rel == BinaryOperatorKind::NE) {
    if (F.StepMagnitude != 1u) {
      Diags.report(F.CondLoc, diag::err_omp_loop_bad_cond) << IVName;
      return false;
    }
  } else if (F.Decreasing != (F.Rel == BinaryOperatorKind::GT ||
                              F.Rel == BinaryOperatorKind::GE)) {
    Diags.report(F.IncLoc, diag::err_omp_loop_bad_incr) << IVName;
    return false;
  }

  // Loop-invariant bounds: no calls permitted (see DESIGN.md; stricter
  // than Clang, which evaluates bounds once into captures).
  for (const Expr *BoundExpr : {Info.LowerBound, Info.UpperBound, Info.Step})
    if (containsCall(BoundExpr)) {
      Diags.report(BoundExpr->getBeginLoc(),
                   diag::err_omp_loop_bound_not_invariant);
      return false;
    }

  // The iteration variable must not be modified in the body.
  if (isVarModifiedIn(For->getBody(), F.IV)) {
    Diags.report(For->getBody()->getBeginLoc(),
                 diag::err_omp_loop_var_modified)
        << IVName;
    return false;
  }

  // No break out of the associated loop.
  if (containsLoopBreak(For->getBody())) {
    Diags.report(For->getBody()->getBeginLoc(), diag::err_omp_loop_break);
    return false;
  }

  // Constant trip count, computed in the unsigned logical type so that
  // INT_MIN..INT_MAX loops fold correctly (Section 3.1).
  auto LBC = evaluateIntegerWithConstVars(Info.LowerBound);
  auto UBC = evaluateIntegerWithConstVars(Info.UpperBound);
  if (LBC && UBC)
    Info.ConstantTripCount = getLogicalTripCount(F, *LBC, *UBC);
  return true;
}

bool Sema::analyzeLoopNest(Stmt *AStmt, OpenMPDirectiveKind Kind,
                           unsigned NumLoops, std::vector<OMPLoopInfo> &Infos,
                           std::vector<Stmt *> &PreInitsFromTransforms) {
  Stmt *Cur = AStmt;
  std::set<const VarDecl *> OuterIVs;

  for (unsigned Depth = 0; Depth < NumLoops; ++Depth) {
    // Allow braces around nested loops, but nothing else (perfect nesting).
    Cur = skipLoopWrappers(Cur);
    if (stmt_dyn_cast<CompoundStmt>(Cur)) {
      Diags.report(Cur->getBeginLoc(), Depth == 0
                                           ? diag::err_omp_not_for
                                           : diag::err_omp_not_perfectly_nested)
          << std::string(getOpenMPDirectiveName(Kind));
      return false;
    }

    // A nested loop-transformation directive: consume its generated loop
    // via the transformed statement (the mechanism of Section 2).
    while (auto *TD = stmt_dyn_cast<OMPLoopTransformationDirective>(Cur)) {
      if (stmt_dyn_cast<OMPDistributeLoopDirective>(TD)) {
        // distribute_loop generates a *sequence* of loops, which no
        // loop-associated directive can consume as a single nest.
        Diags.report(TD->getBeginLoc(),
                     diag::err_omp_distribute_result_consumed)
            << std::string(getOpenMPDirectiveName(Kind));
        return false;
      }
      if (auto *UD = stmt_dyn_cast<OMPUnrollDirective>(TD)) {
        if (UD->hasFullClause()) {
          // Full unrolling leaves no loop to associate with.
          Diags.report(UD->getBeginLoc(),
                       diag::err_omp_directive_needs_loop_result)
              << std::string(getOpenMPDirectiveName(Kind));
          return false;
        }
        if (!UD->getTransformedStmt() && !UD->hasPartialClause() &&
            !Opts.OpenMPEnableIRBuilder) {
          // Heuristic unroll consumed by another directive: the unroll
          // factor becomes observable, so a concrete factor must be chosen
          // now. The implementation (like Clang's) uses a factor of two.
          Diags.report(UD->getBeginLoc(),
                       diag::warn_omp_unroll_factor_forced)
              << Opts.HeuristicUnrollFactor;
          std::vector<OMPLoopInfo> Inner(1);
          if (!checkOpenMPCanonicalLoop(UD->getAssociatedStmt(),
                                        OpenMPDirectiveKind::Unroll,
                                        Inner.front()))
            return false;
          UD->setTransformedStmt(buildTransformedStmt(UD, Inner));
        }
      }
      if (!TD->getTransformedStmt()) {
        if (!Opts.OpenMPEnableIRBuilder) {
          Diags.report(TD->getBeginLoc(),
                       diag::err_omp_directive_needs_loop_result)
              << std::string(getOpenMPDirectiveName(Kind));
          return false;
        }
        // IRBuilder mode: transformations are applied on CanonicalLoopInfo
        // handles in CodeGen, so Sema cannot descend further (the inner
        // directive validated its own loops). CodeGen composes them only
        // at the top of the nest and only up to the loops they generate.
        std::string Name(getOpenMPDirectiveName(Kind));
        if (Depth > 0) {
          Diags.report(TD->getBeginLoc(),
                       diag::err_omp_irbuilder_transform_below_loop)
              << Name
              << std::string(getOpenMPDirectiveName(TD->getDirectiveKind()));
          return false;
        }
        if (TD->getNumGeneratedLoops() < NumLoops) {
          Diags.report(AStmt->getBeginLoc(), diag::err_omp_not_enough_loops)
              << Name << NumLoops << TD->getNumGeneratedLoops();
          return false;
        }
        return true;
      }
      if (Stmt *PI = TD->getPreInits())
        PreInitsFromTransforms.push_back(PI);
      Cur = skipLoopWrappers(TD->getTransformedStmt());
    }

    OMPLoopInfo Info;
    // While analyzing a transformed (shadow) loop, retarget diagnostics
    // without usable locations at the directive and explain the history
    // with a note (the representative-location policy of Section 2).
    bool InTransformed = !PreInitsFromTransforms.empty() ||
                         Cur->getBeginLoc().isInvalid();
    if (InTransformed)
      Diags.pushTransformRemap(AStmt->getBeginLoc(),
                               std::string(getOpenMPDirectiveName(Kind)));
    bool LoopOK = checkOpenMPCanonicalLoop(Cur, Kind, Info);
    if (InTransformed)
      Diags.popTransformRemap();
    if (!LoopOK) {
      if (Depth > 0)
        Diags.report(AStmt->getBeginLoc(), diag::err_omp_not_enough_loops)
            << std::string(getOpenMPDirectiveName(Kind)) << NumLoops << Depth;
      return false;
    }

    // Rectangularity: the bounds of an inner loop must not depend on the
    // iteration variable of an enclosing loop.
    for (const Expr *BoundExpr : {Info.LowerBound, Info.UpperBound, Info.Step})
      if (referencesAnyVar(BoundExpr, OuterIVs)) {
        std::string Offender;
        for (const VarDecl *V : OuterIVs)
          if (referencesAnyVar(BoundExpr, {V}))
            Offender = std::string(V->getName());
        Diags.report(BoundExpr->getBeginLoc(), diag::err_omp_nonrectangular)
            << Offender;
        return false;
      }

    OuterIVs.insert(Info.IterVar);
    Infos.push_back(Info);
    Cur = Info.Loop->getBody();
  }
  return true;
}

// ===------------------------------------------------------------------=== //
// Directive actions
// ===------------------------------------------------------------------=== //

bool Sema::checkDuplicateClauses(const std::vector<OMPClause *> &Clauses,
                                 OpenMPDirectiveKind Kind) {
  bool OK = true;
  std::set<OpenMPClauseKind> Seen;
  for (const OMPClause *C : Clauses) {
    if (!C)
      continue;
    OpenMPClauseKind CK = C->getClauseKind();
    // Variable-list clauses may be repeated.
    if (CK == OpenMPClauseKind::Private ||
        CK == OpenMPClauseKind::FirstPrivate ||
        CK == OpenMPClauseKind::Shared || CK == OpenMPClauseKind::Reduction)
      continue;
    if (!Seen.insert(CK).second) {
      Diags.report(C->getBeginLoc(), diag::err_omp_duplicate_clause)
          << std::string(getOpenMPClauseName(CK))
          << std::string(getOpenMPDirectiveName(Kind));
      OK = false;
    }
  }
  return OK;
}

std::vector<VarDecl *> Sema::computeCaptures(Stmt *S) {
  DeclCollector Declared;
  Declared.ShouldVisitShadowAST = true;
  Declared.traverseStmt(S);
  RefCollector Refs;
  Refs.ShouldVisitShadowAST = true;
  Refs.traverseStmt(S);

  std::vector<VarDecl *> Captures;
  for (const VarDecl *V : Refs.Referenced) {
    if (Declared.Declared.count(V))
      continue;
    if (V->isFileScope())
      continue; // globals are accessed directly, not captured
    Captures.push_back(const_cast<VarDecl *>(V));
  }
  return Captures;
}

CapturedStmt *
Sema::buildCaptureForOutlining(Stmt *S, std::vector<VarDecl *> ExtraCaptures) {
  std::vector<VarDecl *> Captured = computeCaptures(S);
  for (VarDecl *V : ExtraCaptures)
    if (std::find(Captured.begin(), Captured.end(), V) == Captured.end())
      Captured.push_back(V);

  // The implicit parameters of the outlined 'lambda' (paper Listing 3):
  // thread identifiers and the context structure with the captures.
  QualType IntPtr = Ctx.getPointerType(Ctx.getIntType());
  QualType VoidPtr = Ctx.getPointerType(Ctx.getVoidType());
  std::vector<ImplicitParamDecl *> Params = {
      Ctx.create<ImplicitParamDecl>(SourceLocation(),
                                    Ctx.internString(".global_tid."),
                                    IntPtr.withConst()),
      Ctx.create<ImplicitParamDecl>(SourceLocation(),
                                    Ctx.internString(".bound_tid."),
                                    IntPtr.withConst()),
      Ctx.create<ImplicitParamDecl>(SourceLocation(),
                                    Ctx.internString("__context"), VoidPtr),
  };
  auto StoredParams = Ctx.allocateCopy(Params);
  auto *CD = Ctx.create<CapturedDecl>(
      S->getBeginLoc(), S,
      std::span<ImplicitParamDecl *const>(StoredParams.data(),
                                          StoredParams.size()));

  std::vector<CapturedStmt::Capture> Caps;
  for (VarDecl *V : Captured)
    Caps.push_back({V, /*ByRef=*/true});
  auto StoredCaps = Ctx.allocateCopy(Caps);
  return Ctx.create<CapturedStmt>(
      S->getSourceRange(), CD,
      std::span<const CapturedStmt::Capture>(StoredCaps.data(),
                                             StoredCaps.size()));
}

Stmt *Sema::ActOnOpenMPExecutableDirective(OpenMPDirectiveKind Kind,
                                           std::vector<OMPClause *> Clauses,
                                           Stmt *AStmt, SourceRange R) {
  // Clause validation failures surface as null clauses.
  if (std::find(Clauses.begin(), Clauses.end(), nullptr) != Clauses.end())
    return nullptr;
  if (!checkDuplicateClauses(Clauses, Kind))
    return nullptr;

  switch (Kind) {
  case OpenMPDirectiveKind::Parallel: {
    if (!AStmt)
      return nullptr;
    CapturedStmt *CS = buildCaptureForOutlining(AStmt, {});
    auto Stored = Ctx.allocateCopy(Clauses);
    return Ctx.create<OMPParallelDirective>(
        R, std::span<OMPClause *const>(Stored.data(), Stored.size()), CS);
  }
  case OpenMPDirectiveKind::Barrier:
    return Ctx.create<OMPBarrierDirective>(R);
  case OpenMPDirectiveKind::Critical:
    return AStmt ? Ctx.create<OMPCriticalDirective>(R, AStmt) : nullptr;
  case OpenMPDirectiveKind::Master:
    return AStmt ? Ctx.create<OMPMasterDirective>(R, AStmt) : nullptr;
  case OpenMPDirectiveKind::Single: {
    if (!AStmt)
      return nullptr;
    auto Stored = Ctx.allocateCopy(Clauses);
    return Ctx.create<OMPSingleDirective>(
        R, std::span<OMPClause *const>(Stored.data(), Stored.size()), AStmt);
  }
  case OpenMPDirectiveKind::For:
  case OpenMPDirectiveKind::ParallelFor:
  case OpenMPDirectiveKind::Simd:
  case OpenMPDirectiveKind::ForSimd:
    return buildLoopDirective(Kind, std::move(Clauses), AStmt, R);
  case OpenMPDirectiveKind::Tile:
  case OpenMPDirectiveKind::Unroll:
  case OpenMPDirectiveKind::Reverse:
  case OpenMPDirectiveKind::Interchange:
    return buildNestTransformDirective(Kind, std::move(Clauses), AStmt, R);
  case OpenMPDirectiveKind::Fuse:
    return buildFuseDirective(std::move(Clauses), AStmt, R);
  case OpenMPDirectiveKind::DistributeLoop:
    return buildDistributeLoopDirective(std::move(Clauses), AStmt, R);
  case OpenMPDirectiveKind::Unknown:
    return nullptr;
  }
  return nullptr;
}

} // namespace mcc
