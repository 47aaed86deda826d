//===--- SemaOpenMPTransform.cpp - Shadow-AST & canonical loop building ---===//
//
// Implements both representations of the paper:
//
//  Section 2 (shadow AST): buildUnrollPartialTransformation and
//  buildTileTransformation construct the *transformed statement* — a loop
//  nest over the logical iteration space whose innermost body materializes
//  the original iteration variables and re-uses (a clone of) the original
//  body. buildLoopDirectiveHelpers constructs the ~30+6n helper expressions
//  of OMPLoopDirective.
//
//  Section 3 (canonical loop): buildOMPCanonicalLoop wraps a literal loop
//  with the three pieces of meta-information (distance function, loop-
//  user-variable function, loop-variable reference), each a CapturedStmt.
//
//===----------------------------------------------------------------------===//
#include "sema/Sema.h"

#include "analysis/DependenceAnalysis.h"

#include <set>

namespace mcc {

namespace {

/// Clones an expression (the AST is immutable; reusing a node in two
/// places would create a DAG).
Expr *cloneExpr(ASTContext &Ctx, Expr *E) {
  if (!E)
    return nullptr;
  TreeTransform TT(Ctx);
  return TT.transformExpr(E);
}

/// Builds the de-normalized loop-variable *value* for a logical iteration:
///   lb + counter * step   (or lb - counter * step for decreasing loops).
Expr *buildCounterValue(Sema &S, const OMPLoopInfo &Info, Expr *CounterRV) {
  ASTContext &Ctx = S.getASTContext();
  QualType LT = Info.LogicalType;

  Expr *StepU = S.convertTo(cloneExpr(Ctx, Info.Step), LT, SourceLocation());
  Expr *Prod = S.buildBinOp(BinaryOperatorKind::Mul,
                            S.convertTo(CounterRV, LT, SourceLocation()),
                            StepU);
  BinaryOperatorKind AddOp =
      Info.Decreasing ? BinaryOperatorKind::Sub : BinaryOperatorKind::Add;

  Expr *LB = S.defaultFunctionArrayLvalueConversion(
      cloneExpr(Ctx, Info.LowerBound));
  if (Info.IVType->isPointerType()) {
    // Pointer arithmetic: the offset operand must be a (signed) integer.
    Expr *Offset =
        S.convertTo(Prod, Ctx.getLongType(), SourceLocation());
    return S.buildBinOp(AddOp, LB, Offset);
  }
  Expr *Value = S.buildBinOp(
      AddOp, S.convertTo(LB, LT, SourceLocation()), Prod);
  return S.convertTo(Value, Info.IVType.withoutConst(), SourceLocation());
}

} // namespace

Expr *Sema::buildNumIterationsExpr(const OMPLoopInfo &Info) {
  QualType LT = Info.LogicalType;

  if (Info.ConstantTripCount)
    return buildIntLiteral(*Info.ConstantTripCount, LT);

  // Distance, computed with unsigned wrap-around so the full value range
  // of the iteration variable is supported (Section 3.1).
  Expr *Range;
  Expr *Lo = defaultFunctionArrayLvalueConversion(
      cloneExpr(Ctx, Info.LowerBound));
  Expr *Hi = defaultFunctionArrayLvalueConversion(
      cloneExpr(Ctx, Info.UpperBound));
  if (Info.Decreasing)
    std::swap(Lo, Hi);
  if (Info.IVType->isPointerType()) {
    Expr *Diff = buildBinOp(BinaryOperatorKind::Sub, Hi, Lo); // long
    Range = convertTo(Diff, LT, SourceLocation());
  } else {
    Range = buildBinOp(BinaryOperatorKind::Sub,
                       convertTo(Hi, LT, SourceLocation()),
                       convertTo(Lo, LT, SourceLocation()));
  }
  if (Info.InclusiveBound)
    Range = buildBinOp(BinaryOperatorKind::Add, Range,
                       buildIntLiteral(1, LT));

  Expr *Count = Range;
  auto StepConst = evaluateInteger(Info.Step);
  if (!(StepConst && *StepConst == 1)) {
    // ceil(range / step) == (range + step - 1) / step
    Expr *StepU =
        convertTo(cloneExpr(Ctx, Info.Step), LT, SourceLocation());
    Expr *Adjust = buildBinOp(BinaryOperatorKind::Sub, StepU,
                              buildIntLiteral(1, LT));
    Expr *Sum = buildBinOp(BinaryOperatorKind::Add, Range, Adjust);
    Count = buildBinOp(
        BinaryOperatorKind::Div, Sum,
        convertTo(cloneExpr(Ctx, Info.Step), LT, SourceLocation()));
  }

  // Guard against zero-trip loops: (lb REL ub) ? count : 0. Without the
  // guard the unsigned subtraction would wrap to a huge value.
  BinaryOperatorKind PreRel;
  if (!Info.Decreasing)
    PreRel = Info.InclusiveBound ? BinaryOperatorKind::LE
                                 : BinaryOperatorKind::LT;
  else
    PreRel = Info.InclusiveBound ? BinaryOperatorKind::GE
                                 : BinaryOperatorKind::GT;
  Expr *PreCond = buildBinOp(
      PreRel,
      defaultFunctionArrayLvalueConversion(cloneExpr(Ctx, Info.LowerBound)),
      defaultFunctionArrayLvalueConversion(cloneExpr(Ctx, Info.UpperBound)));
  return ActOnConditionalOp(SourceLocation(), PreCond, Count,
                            buildIntLiteral(0, LT));
}

Expr *Sema::buildCounterUpdate(const OMPLoopInfo &Info, Expr *CounterRValue) {
  Expr *Value = buildCounterValue(*this, Info, CounterRValue);
  return buildBinOp(BinaryOperatorKind::Assign, buildDeclRef(Info.IterVar),
                    Value);
}

// ===------------------------------------------------------------------=== //
// Section 2: shadow-AST transformations
// ===------------------------------------------------------------------=== //

Stmt *Sema::buildDeclStmt(VarDecl *V) {
  std::vector<VarDecl *> Decls{V};
  auto Stored = Ctx.allocateCopy(Decls);
  return Ctx.create<DeclStmt>(SourceRange(),
                              std::span<VarDecl *const>(Stored.data(), 1));
}

Stmt *Sema::buildShadowLoop(SourceRange R, VarDecl *IV, Expr *Cond,
                            Expr *Inc, Stmt *Body) {
  if (!Inc)
    Inc = ActOnUnaryOp(SourceLocation(), UnaryOperatorKind::PreInc,
                       buildDeclRef(IV));
  return Ctx.create<ForStmt>(R, buildDeclStmt(IV), Cond, Inc, Body);
}

Stmt *Sema::buildMaterializedBody(std::span<const OMPLoopInfo> Infos,
                                  std::span<Expr *const> Logicals,
                                  Stmt *Body) {
  TreeTransform Clone(Ctx);
  std::vector<Stmt *> Stmts;
  for (std::size_t K = 0; K < Infos.size(); ++K) {
    const OMPLoopInfo &Info = Infos[K];
    VarDecl *UserIV = Ctx.create<VarDecl>(
        Info.IterVar->getLocation(), Info.IterVar->getName(), Info.IVType,
        buildCounterValue(*this, Info, Logicals[K]));
    Clone.addDeclSubstitution(Info.IterVar, UserIV);
    Stmts.push_back(buildDeclStmt(UserIV));
  }
  Stmts.push_back(Clone.transformStmt(Body));
  auto Stored = Ctx.allocateCopy(Stmts);
  return Ctx.create<CompoundStmt>(
      Body->getSourceRange(),
      std::span<Stmt *const>(Stored.data(), Stored.size()));
}

Stmt *Sema::buildUnrollPartialTransformation(const OMPLoopInfo &Info,
                                             unsigned Factor) {
  QualType LT = Info.LogicalType;
  std::string BaseName(Info.IterVar->getName());

  // Outer (strip-mined) loop over the logical iteration space:
  //   for (LT unrolled.iv.NAME = 0; unrolled.iv < N; unrolled.iv += F)
  VarDecl *OuterIV = buildInternalVar(
      Ctx.internString("unrolled.iv." + BaseName), LT,
      buildIntLiteral(0, LT));

  // Inner loop: kept as a loop annotated with a LoopHintAttr (paper Fig. 8)
  // instead of duplicating the body; the mid-end LoopUnroll pass performs
  // the duplication.
  //   for (LT unroll_inner.iv = unrolled.iv;
  //        unroll_inner.iv < unrolled.iv + F && unroll_inner.iv < N;
  //        ++unroll_inner.iv)
  VarDecl *InnerIV = buildInternalVar(
      Ctx.internString("unroll_inner.iv." + BaseName), LT,
      buildRValueRef(OuterIV));
  Expr *TileEnd =
      buildBinOp(BinaryOperatorKind::Add, buildRValueRef(OuterIV),
                 buildIntLiteral(Factor, LT));
  Expr *InnerCond = buildBinOp(
      BinaryOperatorKind::LAnd,
      buildBinOp(BinaryOperatorKind::LT, buildRValueRef(InnerIV), TileEnd),
      buildBinOp(BinaryOperatorKind::LT, buildRValueRef(InnerIV),
                 buildNumIterationsExpr(Info)));

  // Innermost body: materialize the original iteration variable from the
  // logical iteration number, then the (cloned, re-bound) original body.
  Expr *Logical = buildRValueRef(InnerIV);
  Stmt *InnerLoop = buildShadowLoop(
      Info.Loop->getSourceRange(), InnerIV, InnerCond, nullptr,
      buildMaterializedBody({&Info, 1}, {&Logical, 1}, Info.Loop->getBody()));

  const Attr *Hint = Ctx.create<LoopHintAttr>(
      LoopHintAttr::OptionKind::UnrollCount,
      buildIntLiteral(Factor, Ctx.getIntType()), /*Implicit=*/true);
  std::vector<const Attr *> Attrs{Hint};
  auto AttrStored = Ctx.allocateCopy(Attrs);
  Stmt *Attributed = Ctx.create<AttributedStmt>(
      Info.Loop->getSourceRange(),
      std::span<const Attr *const>(AttrStored.data(), AttrStored.size()),
      InnerLoop);

  return buildShadowLoop(
      Info.Loop->getSourceRange(), OuterIV,
      buildBinOp(BinaryOperatorKind::LT, buildRValueRef(OuterIV),
                 buildNumIterationsExpr(Info)),
      buildBinOp(BinaryOperatorKind::AddAssign, buildDeclRef(OuterIV),
                 buildIntLiteral(Factor, LT)),
      Attributed);
}

Stmt *Sema::buildTileTransformation(OMPTileDirective *Dir,
                                    const std::vector<OMPLoopInfo> &Infos) {
  const auto *Sizes = Dir->getSingleClause<OMPSizesClause>();
  assert(Sizes && Sizes->getNumSizes() == Infos.size());
  unsigned N = static_cast<unsigned>(Infos.size());

  // Build the 2n loops inside-out: first the innermost body (original IV
  // materialization + cloned original body), then tile loops n-1..0, then
  // floor loops n-1..0.
  std::vector<VarDecl *> FloorIVs(N), TileIVs(N);
  std::vector<Expr *> Logicals(N);
  for (unsigned K = 0; K < N; ++K) {
    std::string BaseName(Infos[K].IterVar->getName());
    QualType LT = Infos[K].LogicalType;
    FloorIVs[K] = buildInternalVar(
        Ctx.internString(".floor." + std::to_string(K) + ".iv." + BaseName),
        LT, buildIntLiteral(0, LT));
    TileIVs[K] = buildInternalVar(
        Ctx.internString(".tile." + std::to_string(K) + ".iv." + BaseName),
        LT, buildRValueRef(FloorIVs[K]));
    Logicals[K] = buildRValueRef(TileIVs[K]);
  }
  Stmt *Inner =
      buildMaterializedBody(Infos, Logicals, Infos[N - 1].Loop->getBody());

  // Tile loops, innermost first.
  for (unsigned K = N; K-- > 0;) {
    QualType LT = Infos[K].LogicalType;
    Expr *TileEnd = buildBinOp(
        BinaryOperatorKind::Add, buildRValueRef(FloorIVs[K]),
        buildIntLiteral(static_cast<std::uint64_t>(Sizes->getSize(K)), LT));
    Expr *Cond = buildBinOp(
        BinaryOperatorKind::LAnd,
        buildBinOp(BinaryOperatorKind::LT, buildRValueRef(TileIVs[K]),
                   TileEnd),
        buildBinOp(BinaryOperatorKind::LT, buildRValueRef(TileIVs[K]),
                   buildNumIterationsExpr(Infos[K])));
    Inner = buildShadowLoop(Infos[K].Loop->getSourceRange(), TileIVs[K], Cond,
                            nullptr, Inner);
  }

  // Floor loops, innermost first.
  for (unsigned K = N; K-- > 0;) {
    QualType LT = Infos[K].LogicalType;
    Inner = buildShadowLoop(
        Infos[K].Loop->getSourceRange(), FloorIVs[K],
        buildBinOp(BinaryOperatorKind::LT, buildRValueRef(FloorIVs[K]),
                   buildNumIterationsExpr(Infos[K])),
        buildBinOp(BinaryOperatorKind::AddAssign, buildDeclRef(FloorIVs[K]),
                   buildIntLiteral(
                       static_cast<std::uint64_t>(Sizes->getSize(K)), LT)),
        Inner);
  }
  return Inner;
}

Stmt *Sema::buildReverseTransformation(const OMPLoopInfo &Info) {
  QualType LT = Info.LogicalType;

  // One loop over the logical iteration space:
  //   for (LT reversed.iv.NAME = 0; reversed.iv < N; ++reversed.iv)
  VarDecl *RevIV = buildInternalVar(
      Ctx.internString("reversed.iv." + std::string(Info.IterVar->getName())),
      LT, buildIntLiteral(0, LT));

  // Body: materialize the user variable from the *mirrored* logical
  // iteration (N-1) - reversed.iv, then the cloned original body.
  Expr *Mirrored = buildBinOp(
      BinaryOperatorKind::Sub,
      buildBinOp(BinaryOperatorKind::Sub, buildNumIterationsExpr(Info),
                 buildIntLiteral(1, LT)),
      buildRValueRef(RevIV));
  return buildShadowLoop(
      Info.Loop->getSourceRange(), RevIV,
      buildBinOp(BinaryOperatorKind::LT, buildRValueRef(RevIV),
                 buildNumIterationsExpr(Info)),
      nullptr,
      buildMaterializedBody({&Info, 1}, {&Mirrored, 1}, Info.Loop->getBody()));
}

Stmt *Sema::buildInterchangeTransformation(
    const std::vector<OMPLoopInfo> &Infos, std::span<const unsigned> Perm) {
  unsigned N = static_cast<unsigned>(Infos.size());

  // Position-indexed internal IVs: position P iterates the logical space
  // of original level Perm[P].
  std::vector<VarDecl *> PosIVs(N);
  std::vector<unsigned> PosOfLevel(N);
  for (unsigned P = 0; P < N; ++P) {
    unsigned L = Perm[P];
    PosOfLevel[L] = P;
    PosIVs[P] = buildInternalVar(
        Ctx.internString(".interchange." + std::to_string(P) + ".iv." +
                         std::string(Infos[L].IterVar->getName())),
        Infos[L].LogicalType, buildIntLiteral(0, Infos[L].LogicalType));
  }

  // Innermost body: materialize the user variables (in original level
  // order) from their position's counter, then the cloned original body.
  std::vector<Expr *> Logicals(N);
  for (unsigned K = 0; K < N; ++K)
    Logicals[K] = buildRValueRef(PosIVs[PosOfLevel[K]]);
  Stmt *Inner =
      buildMaterializedBody(Infos, Logicals, Infos[N - 1].Loop->getBody());

  // Loops, innermost position first.
  for (unsigned P = N; P-- > 0;) {
    unsigned L = Perm[P];
    Inner = buildShadowLoop(
        Infos[L].Loop->getSourceRange(), PosIVs[P],
        buildBinOp(BinaryOperatorKind::LT, buildRValueRef(PosIVs[P]),
                   buildNumIterationsExpr(Infos[L])),
        nullptr, Inner);
  }
  return Inner;
}

Stmt *Sema::buildFuseTransformation(const std::vector<OMPLoopInfo> &Infos,
                                    std::span<Stmt *const> Siblings,
                                    unsigned FirstIdx,
                                    std::vector<Stmt *> &PreInits) {
  unsigned N = static_cast<unsigned>(Infos.size());
  QualType LT = Ctx.getULongType();

  // Whether every member has the same constant trip count — then the
  // per-member guards are provably always true and are omitted.
  bool AllEqualConst = true;
  for (const OMPLoopInfo &I : Infos)
    if (!I.ConstantTripCount ||
        *I.ConstantTripCount != *Infos.front().ConstantTripCount) {
      AllEqualConst = false;
      break;
    }

  // Trip counts captured once in PreInits ('.capture_expr.' style) so the
  // fused bound and the guards agree, and the transformed statement stays
  // consumable by an enclosing directive.
  std::vector<VarDecl *> NVars(N);
  for (unsigned K = 0; K < N; ++K) {
    NVars[K] = buildInternalVar(
        Ctx.internString(".fuse.n" + std::to_string(K)), LT,
        convertTo(buildNumIterationsExpr(Infos[K]), LT, SourceLocation()));
    PreInits.push_back(buildDeclStmt(NVars[K]));
  }
  Expr *MaxInit = buildRValueRef(NVars[0]);
  for (unsigned K = 1; K < N; ++K) {
    Expr *Gt = buildBinOp(BinaryOperatorKind::GT, buildRValueRef(NVars[K]),
                          cloneExpr(Ctx, MaxInit));
    MaxInit = ActOnConditionalOp(SourceLocation(), Gt,
                                 buildRValueRef(NVars[K]), MaxInit);
  }
  VarDecl *MaxVar =
      buildInternalVar(Ctx.internString(".fuse.max"), LT, MaxInit);
  PreInits.push_back(buildDeclStmt(MaxVar));

  // One loop over the maximal logical iteration space:
  //   for (ULong fused.iv = 0; fused.iv < .fuse.max; ++fused.iv)
  VarDecl *FusedIV = buildInternalVar(Ctx.internString("fused.iv"), LT,
                                      buildIntLiteral(0, LT));

  // Body: iteration t of every member in sibling order — materialize the
  // member's iteration variable, then its cloned body, guarded by
  // "fused.iv < n_k" when trip counts may differ.
  std::vector<Stmt *> BodyStmts;
  for (unsigned K = 0; K < N; ++K) {
    Expr *Logical = buildRValueRef(FusedIV);
    Stmt *Member = buildMaterializedBody({&Infos[K], 1}, {&Logical, 1},
                                         Infos[K].Loop->getBody());
    if (!AllEqualConst) {
      Expr *Guard =
          buildBinOp(BinaryOperatorKind::LT, buildRValueRef(FusedIV),
                     buildRValueRef(NVars[K]));
      Member = ActOnIfStmt(SourceRange(), Guard, Member, nullptr);
    }
    BodyStmts.push_back(Member);
  }
  auto BodyStored = Ctx.allocateCopy(BodyStmts);
  SourceRange FusedRange(Siblings[FirstIdx]->getBeginLoc(),
                         Siblings[FirstIdx + N - 1]->getEndLoc());
  Stmt *Body = Ctx.create<CompoundStmt>(
      FusedRange,
      std::span<Stmt *const>(BodyStored.data(), BodyStored.size()));
  Stmt *FusedLoop = buildShadowLoop(
      FusedRange, FusedIV,
      buildBinOp(BinaryOperatorKind::LT, buildRValueRef(FusedIV),
                 buildRValueRef(MaxVar)),
      nullptr, Body);

  // Siblings outside the looprange are re-emitted around the fused loop.
  std::vector<Stmt *> Out(Siblings.begin(), Siblings.begin() + FirstIdx);
  Out.push_back(FusedLoop);
  Out.insert(Out.end(), Siblings.begin() + FirstIdx + N, Siblings.end());
  auto OutStored = Ctx.allocateCopy(Out);
  return Ctx.create<CompoundStmt>(
      FusedRange, std::span<Stmt *const>(OutStored.data(), OutStored.size()));
}

Stmt *Sema::buildDistributeTransformation(const OMPLoopInfo &Info) {
  QualType LT = Info.LogicalType;
  const auto *Body = stmt_cast<CompoundStmt>(Info.Loop->getBody());
  std::string BaseName(Info.IterVar->getName());

  // Shared trip count, evaluated once before the loop sequence.
  VarDecl *NVar =
      buildInternalVar(Ctx.internString(".distribute.n." + BaseName), LT,
                       buildNumIterationsExpr(Info));
  std::vector<Stmt *> Out{buildDeclStmt(NVar)};

  // One loop per statement group, in source order, each over the full
  // logical iteration space.
  unsigned G = 0;
  for (Stmt *GroupStmt : Body->body()) {
    VarDecl *DistIV = buildInternalVar(
        Ctx.internString("distributed." + std::to_string(G++) + ".iv." +
                         BaseName),
        LT, buildIntLiteral(0, LT));
    Expr *Logical = buildRValueRef(DistIV);
    Out.push_back(buildShadowLoop(
        Info.Loop->getSourceRange(), DistIV,
        buildBinOp(BinaryOperatorKind::LT, buildRValueRef(DistIV),
                   buildRValueRef(NVar)),
        nullptr, buildMaterializedBody({&Info, 1}, {&Logical, 1}, GroupStmt)));
  }
  auto OutStored = Ctx.allocateCopy(Out);
  return Ctx.create<CompoundStmt>(
      Info.Loop->getSourceRange(),
      std::span<Stmt *const>(OutStored.data(), OutStored.size()));
}

Stmt *Sema::buildTransformedStmt(OMPLoopTransformationDirective *TD,
                                 const std::vector<OMPLoopInfo> &Infos) {
  switch (TD->getDirectiveKind()) {
  case OpenMPDirectiveKind::Tile:
    return buildTileTransformation(stmt_cast<OMPTileDirective>(TD), Infos);
  case OpenMPDirectiveKind::Unroll:
    return buildUnrollPartialTransformation(
        Infos.front(), stmt_cast<OMPUnrollDirective>(TD)->getUnrollFactor(
                           Opts.HeuristicUnrollFactor));
  case OpenMPDirectiveKind::Reverse:
    return buildReverseTransformation(Infos.front());
  case OpenMPDirectiveKind::Interchange:
    return buildInterchangeTransformation(
        Infos, stmt_cast<OMPInterchangeDirective>(TD)->getPermutation());
  default:
    return nullptr;
  }
}

void Sema::buildLoopDirectiveHelpers(OMPLoopDirective *Dir,
                                     const std::vector<OMPLoopInfo> &Infos,
                                     Stmt *ExtraPreInits) {
  unsigned N = static_cast<unsigned>(Infos.size());

  // The logical iteration space of the (possibly collapsed) nest uses the
  // widest unsigned type: collapse products can exceed 32 bits, and the
  // runtime's loop bookkeeping ABI (__kmpc_for_static_init et al.) works
  // on 64-bit logical bounds.
  QualType LT = Ctx.getULongType();

  OMPLoopHelperExprs H;

  // PreInits: capture each loop's trip count once ('.capture_expr.', the
  // internal naming the paper quotes in its diagnostics discussion).
  std::vector<Stmt *> PreInitStmts;
  if (ExtraPreInits)
    PreInitStmts.push_back(ExtraPreInits);
  std::vector<VarDecl *> TripCountVars(N);
  std::vector<OMPLoopHelperExprs::LoopData> LoopData(N);
  for (unsigned K = 0; K < N; ++K) {
    Expr *NumIterK =
        convertTo(buildNumIterationsExpr(Infos[K]), LT, SourceLocation());
    TripCountVars[K] = buildInternalVar(
        Ctx.internString(".capture_expr.n" + std::to_string(K)), LT,
        NumIterK);
    PreInitStmts.push_back(buildDeclStmt(TripCountVars[K]));
  }
  auto PreStored = Ctx.allocateCopy(PreInitStmts);
  H.PreInits = Ctx.create<CompoundStmt>(
      SourceRange(),
      std::span<Stmt *const>(PreStored.data(), PreStored.size()));

  // Whole-nest iteration count: the product of the member counts.
  auto BuildNumIterations = [&]() {
    Expr *Total = buildRValueRef(TripCountVars[0]);
    for (unsigned K = 1; K < N; ++K)
      Total = buildBinOp(BinaryOperatorKind::Mul, Total,
                         buildRValueRef(TripCountVars[K]));
    return Total;
  };
  H.NumIterations = BuildNumIterations();
  H.LastIteration = buildBinOp(BinaryOperatorKind::Sub, BuildNumIterations(),
                               buildIntLiteral(1, LT));
  H.PreCond = buildBinOp(BinaryOperatorKind::GT, BuildNumIterations(),
                         buildIntLiteral(0, LT));

  // Normalized loop control variables.
  H.IterationVar =
      buildInternalVar(Ctx.internString(".omp.iv"), LT, nullptr);
  H.IterationVarRef = buildRValueRef(H.IterationVar);
  H.LowerBoundVar = buildInternalVar(Ctx.internString(".omp.lb"), LT,
                                     buildIntLiteral(0, LT));
  H.UpperBoundVar =
      buildInternalVar(Ctx.internString(".omp.ub"), LT,
                       buildBinOp(BinaryOperatorKind::Sub,
                                  BuildNumIterations(),
                                  buildIntLiteral(1, LT)));
  H.StrideVar = buildInternalVar(Ctx.internString(".omp.stride"), LT,
                                 buildIntLiteral(1, LT));
  H.IsLastIterVar =
      buildInternalVar(Ctx.internString(".omp.is_last"), Ctx.getIntType(),
                       buildIntLiteral(0, Ctx.getIntType()));
  H.LowerBoundRef = buildRValueRef(H.LowerBoundVar);
  H.UpperBoundRef = buildRValueRef(H.UpperBoundVar);
  H.StrideRef = buildRValueRef(H.StrideVar);
  H.IsLastIterRef = buildRValueRef(H.IsLastIterVar);

  // iv = lb; iv <= ub; ++iv
  H.Init = buildBinOp(BinaryOperatorKind::Assign,
                      buildDeclRef(H.IterationVar),
                      buildRValueRef(H.LowerBoundVar));
  H.Cond = buildBinOp(BinaryOperatorKind::LE, buildRValueRef(H.IterationVar),
                      buildRValueRef(H.UpperBoundVar));
  H.Inc = ActOnUnaryOp(SourceLocation(), UnaryOperatorKind::PreInc,
                       buildDeclRef(H.IterationVar));

  // ub = min(ub, last-iteration): after the runtime assigned a chunk, clamp
  // to the global bound.
  H.EnsureUpperBound = buildBinOp(
      BinaryOperatorKind::Assign, buildDeclRef(H.UpperBoundVar),
      ActOnConditionalOp(
          SourceLocation(),
          buildBinOp(BinaryOperatorKind::GT,
                     buildRValueRef(H.UpperBoundVar),
                     buildBinOp(BinaryOperatorKind::Sub,
                                BuildNumIterations(),
                                buildIntLiteral(1, LT))),
          buildBinOp(BinaryOperatorKind::Sub, BuildNumIterations(),
                     buildIntLiteral(1, LT)),
          buildRValueRef(H.UpperBoundVar)));

  // lb += stride; ub += stride (chunked static schedules).
  H.NextLowerBound =
      buildBinOp(BinaryOperatorKind::AddAssign, buildDeclRef(H.LowerBoundVar),
                 buildRValueRef(H.StrideVar));
  H.NextUpperBound =
      buildBinOp(BinaryOperatorKind::AddAssign, buildDeclRef(H.UpperBoundVar),
                 buildRValueRef(H.StrideVar));

  // Per-loop: de-normalization "i_k = lb_k + ((iv / prod(n_{k+1..})) % n_k)
  // * step_k".
  for (unsigned K = 0; K < N; ++K) {
    OMPLoopHelperExprs::LoopData &L = LoopData[K];
    L.CounterVar = Infos[K].IterVar;
    L.CounterRef = buildDeclRef(Infos[K].IterVar);
    L.CounterInit = defaultFunctionArrayLvalueConversion(
        cloneExpr(Ctx, Infos[K].LowerBound));
    L.CounterStep = defaultFunctionArrayLvalueConversion(
        cloneExpr(Ctx, Infos[K].Step));
    L.NumIterationsExpr = buildRValueRef(TripCountVars[K]);

    Expr *Scaled = buildRValueRef(H.IterationVar);
    for (unsigned J = K + 1; J < N; ++J)
      Scaled = buildBinOp(BinaryOperatorKind::Div, Scaled,
                          buildRValueRef(TripCountVars[J]));
    if (K > 0)
      Scaled = buildBinOp(BinaryOperatorKind::Rem, Scaled,
                          buildRValueRef(TripCountVars[K]));
    L.CounterUpdate = buildCounterUpdate(Infos[K], Scaled);
  }
  auto LoopStored = Ctx.allocateCopy(LoopData);
  H.Loops = std::span<OMPLoopHelperExprs::LoopData>(LoopStored.data(),
                                                    LoopStored.size());
  H.Body = Infos[N - 1].Loop->getBody();

  Dir->setLoopHelpers(H);
}

// ===------------------------------------------------------------------=== //
// Section 3: OMPCanonicalLoop construction
// ===------------------------------------------------------------------=== //

OMPCanonicalLoop *Sema::buildOMPCanonicalLoop(const OMPLoopInfo &Info) {
  QualType LT = Info.LogicalType;

  auto MakeCaptured = [&](Stmt *Body,
                          std::vector<ImplicitParamDecl *> Params)
      -> CapturedStmt * {
    auto StoredParams = Ctx.allocateCopy(Params);
    auto *CD = Ctx.create<CapturedDecl>(
        Body->getBeginLoc(), Body,
        std::span<ImplicitParamDecl *const>(StoredParams.data(),
                                            StoredParams.size()));
    // Everything referenced from outside is captured by reference; the
    // by-value __begin capture of the paper is only needed for C++
    // iterators whose value mutates, which MiniC loop bounds cannot.
    std::vector<VarDecl *> Caps = computeCaptures(Body);
    std::vector<CapturedStmt::Capture> Captures;
    for (VarDecl *V : Caps) {
      bool IsParam = false;
      for (ImplicitParamDecl *P : Params)
        if (P == V)
          IsParam = true;
      if (!IsParam)
        Captures.push_back({V, /*ByRef=*/true});
    }
    auto StoredCaps = Ctx.allocateCopy(Captures);
    return Ctx.create<CapturedStmt>(
        Body->getSourceRange(), CD,
        std::span<const CapturedStmt::Capture>(StoredCaps.data(),
                                               StoredCaps.size()));
  };

  // Distance function: "[&](LogicalTy &Result) { Result = <trip count>; }".
  // MiniC has no references, so Result is pointer-typed and assigned
  // through a dereference.
  auto *DistResult = Ctx.create<ImplicitParamDecl>(
      SourceLocation(), Ctx.internString("Result"),
      Ctx.getPointerType(LT));
  Expr *DistAssign = buildBinOp(
      BinaryOperatorKind::Assign,
      ActOnUnaryOp(SourceLocation(), UnaryOperatorKind::Deref,
                   buildRValueRef(DistResult)),
      buildNumIterationsExpr(Info));
  CapturedStmt *DistanceFunc = MakeCaptured(DistAssign, {DistResult});

  // Loop-variable function:
  // "[&](T &Result, LogicalTy Logical) { Result = lb + Logical * step; }".
  auto *LVResult = Ctx.create<ImplicitParamDecl>(
      SourceLocation(), Ctx.internString("Result"),
      Ctx.getPointerType(Info.IVType.withoutConst()));
  auto *LVLogical = Ctx.create<ImplicitParamDecl>(
      SourceLocation(), Ctx.internString("Logical"), LT);
  Expr *LVAssign = buildBinOp(
      BinaryOperatorKind::Assign,
      ActOnUnaryOp(SourceLocation(), UnaryOperatorKind::Deref,
                   buildRValueRef(LVResult)),
      buildCounterValue(*this, Info, buildRValueRef(LVLogical)));
  CapturedStmt *LoopVarFunc = MakeCaptured(LVAssign, {LVResult, LVLogical});

  return Ctx.create<OMPCanonicalLoop>(Info.Loop, DistanceFunc, LoopVarFunc,
                                      buildDeclRef(Info.IterVar));
}

// ===------------------------------------------------------------------=== //
// Directive construction
// ===------------------------------------------------------------------=== //

namespace {

/// Reports the dependence oracle's refusal of a transformation: the
/// violated dependence with a note at its source access, or what made the
/// nest unprovable.
void reportTransformRefusal(DiagnosticsEngine &Diags, OpenMPDirectiveKind Kind,
                            const analysis::Legality &L, SourceLocation Loc) {
  std::string Name(getOpenMPDirectiveName(Kind));
  if (!L.Blocking) {
    Diags.report(Loc, diag::err_omp_transform_not_analyzable)
        << Name << L.Reason;
    return;
  }
  Diags.report(Loc, diag::err_omp_transform_illegal_dep) << Name << L.Reason;
  if (L.Blocking->SrcLoc.isValid())
    Diags.report(L.Blocking->SrcLoc, diag::note_omp_dependence_source)
        << (L.Blocking->Base ? std::string(L.Blocking->Base->getName())
                             : std::string("<unknown>"));
}

/// Replaces the (unique) occurrence of \p Target within \p S, rebuilding
/// enclosing CompoundStmts as needed. Used to wrap inner loops of a nest in
/// OMPCanonicalLoop nodes.
Stmt *replaceStmt(ASTContext &Ctx, Stmt *S, Stmt *Target, Stmt *Replacement) {
  if (S == Target)
    return Replacement;
  if (auto *CS = stmt_dyn_cast<CompoundStmt>(S)) {
    std::vector<Stmt *> NewBody;
    bool Changed = false;
    for (Stmt *Child : CS->body()) {
      Stmt *NewChild = replaceStmt(Ctx, Child, Target, Replacement);
      Changed |= NewChild != Child;
      NewBody.push_back(NewChild);
    }
    if (!Changed)
      return S;
    auto Stored = Ctx.allocateCopy(NewBody);
    return Ctx.create<CompoundStmt>(
        CS->getSourceRange(),
        std::span<Stmt *const>(Stored.data(), Stored.size()));
  }
  return S;
}

/// Collects every variable declared anywhere within \p S.
void collectLocalDecls(const Stmt *S, std::set<const VarDecl *> &Out) {
  if (!S)
    return;
  if (const auto *DS = stmt_dyn_cast<DeclStmt>(S))
    for (VarDecl *D : DS->decls())
      Out.insert(D);
  for (const Stmt *Child : S->children())
    collectLocalDecls(Child, Out);
}

/// First reference within \p S to any variable in \p Vars; null if none.
const DeclRefExpr *findRefToAny(const Stmt *S,
                                const std::set<const VarDecl *> &Vars) {
  if (!S)
    return nullptr;
  if (const auto *DRE = stmt_dyn_cast<DeclRefExpr>(S))
    if (const auto *VD = decl_dyn_cast<VarDecl>(DRE->getDecl()))
      if (Vars.count(VD))
        return DRE;
  for (const Stmt *Child : S->children())
    if (const DeclRefExpr *Found = findRefToAny(Child, Vars))
      return Found;
  return nullptr;
}

} // namespace

Stmt *Sema::buildCanonicalLoopNest(const std::vector<OMPLoopInfo> &Infos) {
  // Wrap every member loop of the nest in an OMPCanonicalLoop, innermost
  // first (outer loops are rebuilt so their bodies point at the wrapped
  // inner loops).
  Stmt *Wrapped = nullptr;
  for (unsigned K = static_cast<unsigned>(Infos.size()); K-- > 0;) {
    ForStmt *Loop = Infos[K].Loop;
    Stmt *NewLoop = Loop;
    if (Wrapped) {
      Stmt *NewBody =
          replaceStmt(Ctx, Loop->getBody(), Infos[K + 1].Loop, Wrapped);
      NewLoop = Ctx.create<ForStmt>(Loop->getSourceRange(), Loop->getInit(),
                                    Loop->getCond(), Loop->getInc(), NewBody);
    }
    OMPLoopInfo WrapInfo = Infos[K];
    WrapInfo.Loop = stmt_cast<ForStmt>(NewLoop);
    Wrapped = buildOMPCanonicalLoop(WrapInfo);
  }
  return Wrapped;
}

Stmt *Sema::buildPreInits(const std::vector<Stmt *> &PreInits) {
  if (PreInits.empty())
    return nullptr;
  auto Stored = Ctx.allocateCopy(PreInits);
  return Ctx.create<CompoundStmt>(
      SourceRange(), std::span<Stmt *const>(Stored.data(), Stored.size()));
}

Stmt *Sema::buildLoopDirective(OpenMPDirectiveKind Kind,
                               std::vector<OMPClause *> Clauses, Stmt *AStmt,
                               SourceRange R) {
  if (!AStmt)
    return nullptr;
  unsigned NumLoops = 1;
  for (const OMPClause *C : Clauses)
    if (const auto *CC = clause_dyn_cast<OMPCollapseClause>(C))
      NumLoops = CC->getCollapseCount();

  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> TransformPreInits;
  if (!analyzeLoopNest(AStmt, Kind, NumLoops, Infos, TransformPreInits))
    return nullptr;

  // In IRBuilder mode a nest that is a nested transformation's output
  // (fewer literal loops than associated) lowers on CanonicalLoopInfo
  // handles in CodeGen and keeps its statement as is.
  Stmt *Assoc = AStmt;
  if (Opts.OpenMPEnableIRBuilder && Infos.size() == NumLoops)
    Assoc = buildCanonicalLoopNest(Infos);
  if (isOpenMPParallelDirective(Kind))
    Assoc = buildCaptureForOutlining(Assoc, {});

  auto Stored = Ctx.allocateCopy(Clauses);
  std::span<OMPClause *const> ClauseSpan(Stored.data(), Stored.size());

  OMPLoopDirective *Dir = nullptr;
  switch (Kind) {
  case OpenMPDirectiveKind::For:
    Dir = Ctx.create<OMPForDirective>(R, ClauseSpan, Assoc, NumLoops);
    break;
  case OpenMPDirectiveKind::ParallelFor:
    Dir = Ctx.create<OMPParallelForDirective>(R, ClauseSpan, Assoc, NumLoops);
    break;
  case OpenMPDirectiveKind::Simd:
    Dir = Ctx.create<OMPSimdDirective>(R, ClauseSpan, Assoc, NumLoops);
    break;
  case OpenMPDirectiveKind::ForSimd:
    Dir = Ctx.create<OMPForSimdDirective>(R, ClauseSpan, Assoc, NumLoops);
    break;
  default:
    return nullptr;
  }

  if (!Opts.OpenMPEnableIRBuilder)
    buildLoopDirectiveHelpers(Dir, Infos, buildPreInits(TransformPreInits));
  return Dir;
}

Stmt *Sema::buildNestTransformDirective(OpenMPDirectiveKind Kind,
                                        std::vector<OMPClause *> Clauses,
                                        Stmt *AStmt, SourceRange R) {
  if (!AStmt)
    return nullptr;

  // Clauses -> parameters: the association depth (tile: one loop per size;
  // interchange: one per permutation entry, default swap of two) and the
  // validated permutation.
  unsigned NumLoops = 1;
  std::vector<unsigned> Perm;
  const OMPFullClause *Full = nullptr;
  const OMPPartialClause *Partial = nullptr;
  for (const OMPClause *C : Clauses) {
    if (const auto *FC = clause_dyn_cast<OMPFullClause>(C))
      Full = FC;
    if (const auto *PC = clause_dyn_cast<OMPPartialClause>(C))
      Partial = PC;
  }
  switch (Kind) {
  case OpenMPDirectiveKind::Tile: {
    const OMPSizesClause *Sizes = nullptr;
    for (const OMPClause *C : Clauses)
      if (const auto *SC = clause_dyn_cast<OMPSizesClause>(C))
        Sizes = SC;
    if (!Sizes) {
      Diags.report(R.getBegin(), diag::err_omp_tile_requires_sizes);
      return nullptr;
    }
    NumLoops = Sizes->getNumSizes();
    break;
  }
  case OpenMPDirectiveKind::Unroll:
    if (Full && Partial) {
      Diags.report(R.getBegin(), diag::err_omp_unroll_full_with_partial);
      return nullptr;
    }
    break;
  case OpenMPDirectiveKind::Interchange: {
    const OMPPermutationClause *PermC = nullptr;
    for (const OMPClause *C : Clauses)
      if (const auto *PC = clause_dyn_cast<OMPPermutationClause>(C))
        PermC = PC;
    if (!PermC) {
      Perm = {1, 0};
    } else {
      unsigned N = PermC->getNumArgs();
      std::vector<bool> Used(N, false);
      for (unsigned I = 0; I < N; ++I) {
        std::int64_t V = PermC->getArg(I);
        if (V < 1 || V > N || Used[static_cast<unsigned>(V - 1)]) {
          Diags.report(PermC->getBeginLoc(),
                       diag::err_omp_permutation_invalid)
              << N;
          return nullptr;
        }
        Used[static_cast<unsigned>(V - 1)] = true;
        Perm.push_back(static_cast<unsigned>(V - 1));
      }
    }
    NumLoops = static_cast<unsigned>(Perm.size());
    break;
  }
  default:
    break;
  }

  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> TransformPreInits;
  if (!analyzeLoopNest(AStmt, Kind, NumLoops, Infos, TransformPreInits))
    return nullptr;
  // IRBuilder mode: the nest is a nested transformation's output, composed
  // on CanonicalLoopInfo handles in CodeGen.
  bool ConsumesTransform = Infos.size() < NumLoops;

  if (Full && !ConsumesTransform && !Infos.front().ConstantTripCount) {
    Diags.report(Infos.front().Loop->getBeginLoc(),
                 diag::err_omp_unroll_full_variable_trip_count);
    return nullptr;
  }
  if ((Kind == OpenMPDirectiveKind::Reverse ||
       Kind == OpenMPDirectiveKind::Interchange) &&
      !checkTransformDependences(AStmt, Kind, NumLoops, Perm, R))
    return nullptr;

  Stmt *Assoc = AStmt;
  if (Opts.OpenMPEnableIRBuilder && !ConsumesTransform)
    Assoc = buildCanonicalLoopNest(Infos);

  auto Stored = Ctx.allocateCopy(Clauses);
  std::span<OMPClause *const> ClauseSpan(Stored.data(), Stored.size());
  OMPLoopTransformationDirective *Dir = nullptr;
  switch (Kind) {
  case OpenMPDirectiveKind::Tile:
    Dir = Ctx.create<OMPTileDirective>(R, ClauseSpan, Assoc, NumLoops);
    break;
  case OpenMPDirectiveKind::Unroll:
    Dir = Ctx.create<OMPUnrollDirective>(R, ClauseSpan, Assoc);
    break;
  case OpenMPDirectiveKind::Reverse:
    Dir = Ctx.create<OMPReverseDirective>(R, ClauseSpan, Assoc);
    break;
  case OpenMPDirectiveKind::Interchange:
    Dir = Ctx.create<OMPInterchangeDirective>(R, ClauseSpan, Assoc, NumLoops);
    break;
  default:
    return nullptr;
  }

  if (!Opts.OpenMPEnableIRBuilder) {
    // A transformed AST is only necessary if the replacement can be
    // associated with another directive, which OpenMP only permits for
    // unroll when the partial clause is present. Full/heuristic unrolling
    // is deferred to the mid-end via loop metadata instead (Section 2.2).
    if (Kind != OpenMPDirectiveKind::Unroll || Partial)
      Dir->setTransformedStmt(buildTransformedStmt(Dir, Infos));
    Dir->setPreInits(buildPreInits(TransformPreInits));
  }
  return Dir;
}

bool Sema::checkTransformDependences(Stmt *AStmt, OpenMPDirectiveKind Kind,
                                     unsigned NumLoops,
                                     std::span<const unsigned> Perm,
                                     SourceRange R) {
  // The oracle works on the literal (syntactic) nest; a nested
  // transformation directive or anything else it cannot model makes the
  // transform unprovable and therefore refused — these directives reorder
  // iterations, so "cannot prove" must not degrade to "assume legal".
  using analysis::DependenceInfo;
  DependenceInfo Info = DependenceInfo::analyze(AStmt, NumLoops);
  analysis::Legality L = Perm.empty() ? Info.isLegalReverse(0)
                                      : Info.isLegalInterchange(Perm);
  if (!L)
    reportTransformRefusal(Diags, Kind, L, R.getBegin());
  return static_cast<bool>(L);
}

Stmt *Sema::buildTransformedForAnalysis(OMPLoopTransformationDirective *TD) {
  if (Stmt *T = TD->getTransformedStmt())
    return T;
  // IRBuilder mode leaves TransformedStmt null (the transformation is
  // composed on CanonicalLoopInfo handles in CodeGen). The dependence
  // oracle still needs a syntactic loop to reason about, so rebuild the
  // Section-2 shadow AST for analysis only; it is never emitted. Full
  // unrolling leaves no loop, and fuse/distribute_loop compositions stay
  // opaque to the oracle.
  OpenMPDirectiveKind Kind = TD->getDirectiveKind();
  if (Kind == OpenMPDirectiveKind::Fuse || TD->getNumGeneratedLoops() == 0)
    return nullptr;
  unsigned N = TD->getLoopsNumber();
  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> Pre;
  if (!analyzeLoopNest(TD->getAssociatedStmt(), Kind, N, Infos, Pre) ||
      Infos.size() < N)
    return nullptr;
  return buildTransformedStmt(TD, Infos);
}

Stmt *Sema::buildFuseDirective(std::vector<OMPClause *> Clauses, Stmt *AStmt,
                               SourceRange R) {
  if (!AStmt)
    return nullptr;
  auto *CS = stmt_dyn_cast<CompoundStmt>(AStmt);
  if (!CS || CS->size() < 2) {
    Diags.report(AStmt->getBeginLoc(), diag::err_omp_fuse_needs_loop_seq);
    return nullptr;
  }
  std::span<Stmt *const> Sibs = CS->body();
  unsigned NumSibs = static_cast<unsigned>(Sibs.size());

  unsigned First = 0, Count = NumSibs;
  for (const OMPClause *C : Clauses)
    if (const auto *LR = clause_dyn_cast<OMPLoopRangeClause>(C)) {
      First = static_cast<unsigned>(LR->getFirst() - 1);
      Count = static_cast<unsigned>(LR->getCount());
      if (First + Count > NumSibs) {
        Diags.report(LR->getBeginLoc(), diag::err_omp_looprange_out_of_range)
            << static_cast<unsigned>(LR->getFirst())
            << static_cast<unsigned>(LR->getCount()) << (First + Count)
            << NumSibs;
        return nullptr;
      }
    }

  // Canonical-loop analysis per fused sibling. In IRBuilder mode a sibling
  // that is itself a transformation directive yields no OMPLoopInfo; the
  // fusion is then composed on CanonicalLoopInfo handles in CodeGen.
  std::vector<std::optional<OMPLoopInfo>> PerSib(Count);
  std::vector<Stmt *> TransformPreInits;
  std::vector<analysis::DependenceInfo> DI;
  for (unsigned K = 0; K < Count; ++K) {
    Stmt *Sib = Sibs[First + K];
    std::vector<OMPLoopInfo> SibInfos;
    if (!analyzeLoopNest(Sib, OpenMPDirectiveKind::Fuse, 1, SibInfos,
                         TransformPreInits))
      return nullptr;
    if (!SibInfos.empty())
      PerSib[K] = SibInfos.front();

    // The oracle analyzes the literal loop, or for a sibling produced by a
    // preceding transformation its (possibly rebuilt) shadow AST — the
    // composition is judged post-transform instead of refused outright.
    Stmt *Root = Sib;
    if (auto *TD = stmt_dyn_cast<OMPLoopTransformationDirective>(
            skipLoopWrappers(Sib))) {
      Root = buildTransformedForAnalysis(TD);
      if (!Root) {
        Diags.report(R.getBegin(), diag::err_omp_transform_not_analyzable)
            << std::string("fuse")
            << ("the result of '#pragma omp " +
                std::string(
                    getOpenMPDirectiveName(TD->getDirectiveKind())) +
                "' cannot be modeled");
        return nullptr;
      }
    }
    DI.push_back(analysis::DependenceInfo::analyze(Root, 1));
  }

  // Legality: every textually earlier member must be fusable with every
  // later one (fusion runs iteration t of each member in sibling order).
  for (unsigned I = 0; I < DI.size(); ++I)
    for (unsigned J = I + 1; J < DI.size(); ++J)
      if (analysis::Legality L =
              analysis::DependenceInfo::isLegalFuse(DI[I], DI[J]);
          !L) {
        reportTransformRefusal(Diags, OpenMPDirectiveKind::Fuse, L,
                               R.getBegin());
        return nullptr;
      }

  Stmt *Assoc = AStmt;
  if (Opts.OpenMPEnableIRBuilder) {
    // Wrap each fused *literal* sibling in an OMPCanonicalLoop; siblings
    // that are transformation directives keep contributing their
    // CanonicalLoopInfo through recursive emission.
    std::vector<Stmt *> NewBody(Sibs.begin(), Sibs.end());
    for (unsigned K = 0; K < Count; ++K)
      if (PerSib[K])
        NewBody[First + K] = buildOMPCanonicalLoop(*PerSib[K]);
    auto BodyStored = Ctx.allocateCopy(NewBody);
    Assoc = Ctx.create<CompoundStmt>(
        CS->getSourceRange(),
        std::span<Stmt *const>(BodyStored.data(), BodyStored.size()));
  }

  auto Stored = Ctx.allocateCopy(Clauses);
  auto *Dir = Ctx.create<OMPFuseDirective>(
      R, std::span<OMPClause *const>(Stored.data(), Stored.size()), Assoc,
      Count);

  if (!Opts.OpenMPEnableIRBuilder) {
    std::vector<OMPLoopInfo> FusedInfos;
    for (const auto &I : PerSib)
      FusedInfos.push_back(*I); // legacy mode always fills every slot
    Dir->setTransformedStmt(
        buildFuseTransformation(FusedInfos, Sibs, First, TransformPreInits));
    Dir->setPreInits(buildPreInits(TransformPreInits));
  }
  return Dir;
}

Stmt *Sema::buildDistributeLoopDirective(std::vector<OMPClause *> Clauses,
                                         Stmt *AStmt, SourceRange R) {
  if (!AStmt)
    return nullptr;

  // The multi-statement body of the *original* loop defines the statement
  // groups; applying distribution to another transformation's generated
  // loop would split synthesized internals, so it is refused in both
  // pipelines.
  if (stmt_dyn_cast<OMPLoopTransformationDirective>(skipLoopWrappers(AStmt))) {
    Diags.report(R.getBegin(), diag::err_omp_distribute_over_transform);
    return nullptr;
  }

  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> TransformPreInits;
  if (!analyzeLoopNest(AStmt, OpenMPDirectiveKind::DistributeLoop, 1, Infos,
                       TransformPreInits))
    return nullptr;
  const OMPLoopInfo &Info = Infos.front();

  auto *Body = stmt_dyn_cast<CompoundStmt>(Info.Loop->getBody());
  if (!Body || Body->size() < 2) {
    Diags.report(Info.Loop->getBody()->getBeginLoc(),
                 diag::err_omp_distribute_no_groups);
    return nullptr;
  }

  // A variable declared in one statement group and referenced from another
  // cannot survive the split into per-group loops.
  std::vector<std::set<const VarDecl *>> GroupDecls;
  for (const Stmt *G : Body->body())
    collectLocalDecls(G, GroupDecls.emplace_back());
  for (unsigned G = 0; G < GroupDecls.size(); ++G)
    for (unsigned H = 0; H < GroupDecls.size(); ++H)
      if (H != G)
        if (const DeclRefExpr *Ref =
                findRefToAny(Body->body()[G], GroupDecls[H])) {
          Diags.report(Ref->getBeginLoc(),
                       diag::err_omp_distribute_local_across_groups)
              << std::string(Ref->getDecl()->getName());
          return nullptr;
        }

  // Legality: refused when a loop-carried dependence flows from a later
  // statement group back to an earlier one.
  analysis::DependenceInfo DI = analysis::DependenceInfo::analyze(AStmt, 1);
  if (analysis::Legality L = DI.isLegalDistribute(); !L) {
    reportTransformRefusal(Diags, OpenMPDirectiveKind::DistributeLoop, L,
                           R.getBegin());
    return nullptr;
  }

  Stmt *Assoc = AStmt;
  if (Opts.OpenMPEnableIRBuilder)
    Assoc = buildCanonicalLoopNest(Infos);

  auto Stored = Ctx.allocateCopy(Clauses);
  auto *Dir = Ctx.create<OMPDistributeLoopDirective>(
      R, std::span<OMPClause *const>(Stored.data(), Stored.size()), Assoc);
  if (!Opts.OpenMPEnableIRBuilder)
    Dir->setTransformedStmt(buildDistributeTransformation(Info));
  return Dir;
}

} // namespace mcc
