//===--- StmtOpenMP.h - OpenMP directive AST nodes --------------*- C++ -*-===//
//
// Reproduces the class hierarchy of the paper's Figures 4 and 5:
//
//   Stmt
//    `- OMPExecutableDirective
//        |- OMPParallelDirective, OMPBarrierDirective, ...
//        `- OMPLoopBasedDirective              (new in the paper, red)
//            |- OMPLoopDirective
//            |   |- OMPForDirective
//            |   |- OMPParallelForDirective
//            |   `- ...
//            |- OMPTileDirective               (new, green)
//            `- OMPUnrollDirective             (new, green)
//
// and the OMPCanonicalLoop meta node of Section 3 (declared in Stmt.h's
// StmtClass enum; class below).
//
// Shadow AST: OMPLoopDirective carries up to ~30 whole-nest helper
// expressions plus 6 per associated loop that represent pre-computed pieces
// of code generation (Section 1.2). OMPTileDirective/OMPUnrollDirective
// carry the *transformed statement*. None of these are enumerated by
// children() — exactly like Clang, they are reachable only through the
// dedicated accessors and are hidden from the default AST dump.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_AST_STMTOPENMP_H
#define MCC_AST_STMTOPENMP_H

#include "ast/Expr.h"
#include "ast/OpenMPClause.h"
#include "ast/OpenMPKinds.h"
#include "ast/Stmt.h"

#include <cstdint>
#include <functional>
#include <optional>

namespace mcc {

/// Base class for all OpenMP directives that may appear wherever a base
/// language statement can appear.
class OMPExecutableDirective : public Stmt {
public:
  [[nodiscard]] OpenMPDirectiveKind getDirectiveKind() const { return DKind; }

  [[nodiscard]] std::span<OMPClause *const> clauses() const { return Clauses; }
  [[nodiscard]] unsigned getNumClauses() const {
    return static_cast<unsigned>(Clauses.size());
  }

  /// The first clause of the given kind, or null.
  template <typename ClauseT>
  [[nodiscard]] const ClauseT *getSingleClause() const {
    for (const OMPClause *C : Clauses)
      if (const auto *Typed = clause_dyn_cast<ClauseT>(C))
        return Typed;
    return nullptr;
  }

  /// The statement the directive is associated with (may be null for
  /// standalone directives like barrier). For directives that outline, this
  /// is a CapturedStmt; for the OpenMPIRBuilder path of loop directives it
  /// is (or contains) an OMPCanonicalLoop.
  [[nodiscard]] Stmt *getAssociatedStmt() const { return AssociatedStmt; }
  [[nodiscard]] bool hasAssociatedStmt() const {
    return AssociatedStmt != nullptr;
  }

  /// Strips CapturedStmt wrappers to reach the innermost associated
  /// statement (e.g. the loop of a worksharing directive).
  [[nodiscard]] Stmt *getInnermostAssociatedStmt() const;

  static bool classof(const Stmt *S) {
    return S->getStmtClass() >= StmtClass::firstOMPExecutable &&
           S->getStmtClass() <= StmtClass::lastOMPExecutable;
  }

protected:
  OMPExecutableDirective(StmtClass SC, SourceRange Range,
                         OpenMPDirectiveKind DKind,
                         std::span<OMPClause *const> Clauses,
                         Stmt *AssociatedStmt)
      : Stmt(SC, Range), DKind(DKind), Clauses(Clauses),
        AssociatedStmt(AssociatedStmt) {}

private:
  OpenMPDirectiveKind DKind;
  std::span<OMPClause *const> Clauses;
  Stmt *AssociatedStmt;
};

/// #pragma omp parallel
class OMPParallelDirective final : public OMPExecutableDirective {
public:
  OMPParallelDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                       Stmt *AssociatedStmt)
      : OMPExecutableDirective(StmtClass::OMPParallelDirective, Range,
                               OpenMPDirectiveKind::Parallel, Clauses,
                               AssociatedStmt) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPParallelDirective;
  }
};

/// #pragma omp barrier (standalone)
class OMPBarrierDirective final : public OMPExecutableDirective {
public:
  explicit OMPBarrierDirective(SourceRange Range)
      : OMPExecutableDirective(StmtClass::OMPBarrierDirective, Range,
                               OpenMPDirectiveKind::Barrier, {}, nullptr) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPBarrierDirective;
  }
};

/// #pragma omp critical
class OMPCriticalDirective final : public OMPExecutableDirective {
public:
  OMPCriticalDirective(SourceRange Range, Stmt *AssociatedStmt)
      : OMPExecutableDirective(StmtClass::OMPCriticalDirective, Range,
                               OpenMPDirectiveKind::Critical, {},
                               AssociatedStmt) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPCriticalDirective;
  }
};

/// #pragma omp single
class OMPSingleDirective final : public OMPExecutableDirective {
public:
  OMPSingleDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                     Stmt *AssociatedStmt)
      : OMPExecutableDirective(StmtClass::OMPSingleDirective, Range,
                               OpenMPDirectiveKind::Single, Clauses,
                               AssociatedStmt) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPSingleDirective;
  }
};

/// #pragma omp master
class OMPMasterDirective final : public OMPExecutableDirective {
public:
  OMPMasterDirective(SourceRange Range, Stmt *AssociatedStmt)
      : OMPExecutableDirective(StmtClass::OMPMasterDirective, Range,
                               OpenMPDirectiveKind::Master, {},
                               AssociatedStmt) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPMasterDirective;
  }
};

/// The class the paper's Fig. 5 introduces (in red) between
/// OMPExecutableDirective and OMPLoopDirective: base of everything
/// associated with a canonical loop nest, *without* committing to the ~36
/// shadow helper expressions that OMPLoopDirective carries.
class OMPLoopBasedDirective : public OMPExecutableDirective {
public:
  /// Number of associated loops, as determined by the collapse clause /
  /// sizes clause ("the directive's association depth").
  [[nodiscard]] unsigned getLoopsNumber() const { return NumAssociatedLoops; }

  static bool classof(const Stmt *S) {
    return S->getStmtClass() >= StmtClass::firstOMPLoopBased &&
           S->getStmtClass() <= StmtClass::lastOMPLoopBased;
  }

protected:
  OMPLoopBasedDirective(StmtClass SC, SourceRange Range,
                        OpenMPDirectiveKind DKind,
                        std::span<OMPClause *const> Clauses,
                        Stmt *AssociatedStmt, unsigned NumAssociatedLoops)
      : OMPExecutableDirective(SC, Range, DKind, Clauses, AssociatedStmt),
        NumAssociatedLoops(NumAssociatedLoops) {}

private:
  unsigned NumAssociatedLoops;
};

/// The shadow helper expressions of OMPLoopDirective. Sema (legacy
/// pipeline) pre-computes these; CodeGen consumes them. The paper counts
/// "up to 30 shadow AST statements ... plus 6 for each loop in the
/// associated loop nest"; countShadowNodes() reproduces that accounting for
/// the E8 footprint experiment.
struct OMPLoopHelperExprs {
  // --- Whole-nest helpers (logical iteration space, normalized to
  //     0 .. NumIterations-1 with the IV's unsigned type) ---
  VarDecl *IterationVar = nullptr; //  1: .omp.iv
  Expr *IterationVarRef = nullptr; //  2
  Expr *LastIteration = nullptr;   //  3: NumIterations - 1
  Expr *NumIterations = nullptr;   //  4: total trip count
  Expr *CalcLastIteration = nullptr; // 5: assignment computing (3)
  Expr *PreCond = nullptr;         //  6: "is there at least one iteration"
  Expr *Init = nullptr;            //  7: .omp.iv = .omp.lb
  Expr *Cond = nullptr;            //  8: .omp.iv <= .omp.ub
  Expr *Inc = nullptr;             //  9: ++.omp.iv
  VarDecl *LowerBoundVar = nullptr;  // 10: .omp.lb
  VarDecl *UpperBoundVar = nullptr;  // 11: .omp.ub
  VarDecl *StrideVar = nullptr;      // 12: .omp.stride
  VarDecl *IsLastIterVar = nullptr;  // 13: .omp.is_last
  Expr *LowerBoundRef = nullptr;   // 14
  Expr *UpperBoundRef = nullptr;   // 15
  Expr *StrideRef = nullptr;       // 16
  Expr *IsLastIterRef = nullptr;   // 17
  Expr *EnsureUpperBound = nullptr; // 18: ub = min(ub, last-iteration)
  Expr *NextLowerBound = nullptr;  // 19: lb += stride (static chunked)
  Expr *NextUpperBound = nullptr;  // 20: ub += stride
  Stmt *PreInits = nullptr;        // 21: decls evaluated before the loop
  Expr *DistCond = nullptr;        // 22: distribute-loop condition

  // --- Per-loop helpers (6 per associated loop) ---
  struct LoopData {
    VarDecl *CounterVar = nullptr;  // 1: the (privatized) original IV
    Expr *CounterRef = nullptr;     // 2
    Expr *CounterInit = nullptr;    // 3: lower-bound expression
    Expr *CounterStep = nullptr;    // 4: step expression
    Expr *CounterUpdate = nullptr;  // 5: i = lb + iv*step (de-normalize)
    Expr *NumIterationsExpr = nullptr; // 6: this loop's own trip count
  };
  std::span<LoopData> Loops;

  /// The innermost loop body to execute per logical iteration. Not counted
  /// as a shadow node (it is shared with the syntactic AST, not
  /// synthesized).
  Stmt *Body = nullptr;

  /// Number of non-null shadow AST entries (for the E8 experiment).
  [[nodiscard]] unsigned countShadowNodes() const {
    unsigned N = 0;
    const Expr *WholeNest[] = {IterationVarRef, LastIteration, NumIterations,
                               CalcLastIteration, PreCond, Init, Cond, Inc,
                               LowerBoundRef, UpperBoundRef, StrideRef,
                               IsLastIterRef, EnsureUpperBound, NextLowerBound,
                               NextUpperBound, DistCond};
    for (const Expr *E : WholeNest)
      N += E != nullptr;
    const void *Vars[] = {IterationVar, LowerBoundVar, UpperBoundVar,
                          StrideVar, IsLastIterVar, PreInits};
    for (const void *V : Vars)
      N += V != nullptr;
    for (const LoopData &L : Loops) {
      const void *PerLoop[] = {L.CounterVar,    L.CounterRef,
                               L.CounterInit,   L.CounterStep,
                               L.CounterUpdate, L.NumIterationsExpr};
      for (const void *P : PerLoop)
        N += P != nullptr;
    }
    return N;
  }
};

/// Base class of all loop *worksharing/simd* directives, carrying the full
/// shadow helper set ("a significant portion of the code generation already
/// takes place when creating the AST", Section 1.2).
class OMPLoopDirective : public OMPLoopBasedDirective {
public:
  [[nodiscard]] const OMPLoopHelperExprs &getLoopHelpers() const {
    return Helpers;
  }
  /// Sema fills the helpers in after construction (the one sanctioned
  /// mutation, mirroring Clang's setters on OMPLoopDirective).
  void setLoopHelpers(const OMPLoopHelperExprs &H) { Helpers = H; }

  static bool classof(const Stmt *S) {
    return S->getStmtClass() >= StmtClass::firstOMPLoop &&
           S->getStmtClass() <= StmtClass::lastOMPLoop;
  }

protected:
  using OMPLoopBasedDirective::OMPLoopBasedDirective;

private:
  OMPLoopHelperExprs Helpers;
};

/// #pragma omp for
class OMPForDirective final : public OMPLoopDirective {
public:
  OMPForDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                  Stmt *AssociatedStmt, unsigned NumLoops)
      : OMPLoopDirective(StmtClass::OMPForDirective, Range,
                         OpenMPDirectiveKind::For, Clauses, AssociatedStmt,
                         NumLoops) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPForDirective;
  }
};

/// #pragma omp parallel for (combined directive)
class OMPParallelForDirective final : public OMPLoopDirective {
public:
  OMPParallelForDirective(SourceRange Range,
                          std::span<OMPClause *const> Clauses,
                          Stmt *AssociatedStmt, unsigned NumLoops)
      : OMPLoopDirective(StmtClass::OMPParallelForDirective, Range,
                         OpenMPDirectiveKind::ParallelFor, Clauses,
                         AssociatedStmt, NumLoops) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPParallelForDirective;
  }
};

/// #pragma omp simd
class OMPSimdDirective final : public OMPLoopDirective {
public:
  OMPSimdDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                   Stmt *AssociatedStmt, unsigned NumLoops)
      : OMPLoopDirective(StmtClass::OMPSimdDirective, Range,
                         OpenMPDirectiveKind::Simd, Clauses, AssociatedStmt,
                         NumLoops) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPSimdDirective;
  }
};

/// #pragma omp for simd (composite directive)
class OMPForSimdDirective final : public OMPLoopDirective {
public:
  OMPForSimdDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                      Stmt *AssociatedStmt, unsigned NumLoops)
      : OMPLoopDirective(StmtClass::OMPForSimdDirective, Range,
                         OpenMPDirectiveKind::ForSimd, Clauses, AssociatedStmt,
                         NumLoops) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPForSimdDirective;
  }
};

/// Common base of the loop transformation directives: they carry the
/// *transformed statement* shadow AST (Section 2) that consuming directives
/// re-analyze via getTransformedStmt().
class OMPLoopTransformationDirective : public OMPLoopBasedDirective {
public:
  /// The loop nest that semantically replaces this directive, or null if
  /// no replacement was generated (e.g. full unroll, heuristic unroll not
  /// consumed by another directive). This is a *shadow* child: it is not
  /// part of children() and hidden from the default AST dump.
  [[nodiscard]] Stmt *getTransformedStmt() const { return TransformedStmt; }
  void setTransformedStmt(Stmt *S) { TransformedStmt = S; }

  /// Declarations that must be emitted before the transformed statement
  /// (e.g. variables holding computed trip counts). Also shadow AST.
  [[nodiscard]] Stmt *getPreInits() const { return PreInits; }
  void setPreInits(Stmt *S) { PreInits = S; }

  /// How many loops of the generated nest a consuming directive may
  /// associate with: tile sizes(n) exposes its n floor loops, interchange
  /// of n loops exposes n, unroll partial (or heuristic, once consumed),
  /// reverse and fuse expose one, and full unroll and distribute_loop (a
  /// loop *sequence*) none. Both pipelines hold a consuming directive to
  /// this count.
  [[nodiscard]] unsigned getNumGeneratedLoops() const;

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPTileDirective ||
           S->getStmtClass() == StmtClass::OMPUnrollDirective ||
           S->getStmtClass() == StmtClass::OMPReverseDirective ||
           S->getStmtClass() == StmtClass::OMPInterchangeDirective ||
           S->getStmtClass() == StmtClass::OMPFuseDirective ||
           S->getStmtClass() == StmtClass::OMPDistributeLoopDirective;
  }

protected:
  using OMPLoopBasedDirective::OMPLoopBasedDirective;

private:
  Stmt *TransformedStmt = nullptr;
  Stmt *PreInits = nullptr;
};

/// #pragma omp tile sizes(...)
class OMPTileDirective final : public OMPLoopTransformationDirective {
public:
  OMPTileDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                   Stmt *AssociatedStmt, unsigned NumLoops)
      : OMPLoopTransformationDirective(StmtClass::OMPTileDirective, Range,
                                       OpenMPDirectiveKind::Tile, Clauses,
                                       AssociatedStmt, NumLoops) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPTileDirective;
  }
};

/// #pragma omp unroll [full | partial(k)]
class OMPUnrollDirective final : public OMPLoopTransformationDirective {
public:
  OMPUnrollDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                     Stmt *AssociatedStmt)
      : OMPLoopTransformationDirective(StmtClass::OMPUnrollDirective, Range,
                                       OpenMPDirectiveKind::Unroll, Clauses,
                                       AssociatedStmt, /*NumLoops=*/1) {}

  [[nodiscard]] bool hasFullClause() const {
    return getSingleClause<OMPFullClause>() != nullptr;
  }
  [[nodiscard]] bool hasPartialClause() const {
    return getSingleClause<OMPPartialClause>() != nullptr;
  }
  /// The factor partial unrolling uses: partial(k)'s k, else
  /// \p HeuristicFactor (LangOptions::HeuristicUnrollFactor), the factor
  /// a heuristic unroll gets once another directive consumes it.
  [[nodiscard]] unsigned getUnrollFactor(unsigned HeuristicFactor) const {
    if (const auto *PC = getSingleClause<OMPPartialClause>())
      if (PC->getFactor())
        return static_cast<unsigned>(PC->getFactor()->getResult());
    return HeuristicFactor;
  }

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPUnrollDirective;
  }
};

/// #pragma omp reverse (OpenMP 6.0): iterate the associated loop in the
/// opposite order. Only legal when no loop-carried dependence would be
/// violated; Sema consults the DependenceAnalysis oracle before building
/// the transformed statement.
class OMPReverseDirective final : public OMPLoopTransformationDirective {
public:
  OMPReverseDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                      Stmt *AssociatedStmt)
      : OMPLoopTransformationDirective(StmtClass::OMPReverseDirective, Range,
                                       OpenMPDirectiveKind::Reverse, Clauses,
                                       AssociatedStmt, /*NumLoops=*/1) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPReverseDirective;
  }
};

/// #pragma omp interchange [permutation(p1, ..., pn)] (OpenMP 6.0):
/// permute the loops of a perfect nest. Without a permutation clause the
/// outermost two loops are swapped.
class OMPInterchangeDirective final : public OMPLoopTransformationDirective {
public:
  OMPInterchangeDirective(SourceRange Range,
                          std::span<OMPClause *const> Clauses,
                          Stmt *AssociatedStmt, unsigned NumLoops)
      : OMPLoopTransformationDirective(StmtClass::OMPInterchangeDirective,
                                       Range, OpenMPDirectiveKind::Interchange,
                                       Clauses, AssociatedStmt, NumLoops) {}

  /// The permutation applied: Perm[K] is the 0-based original position of
  /// the loop placed at depth K. Identity-extended default is (1, 0): swap.
  [[nodiscard]] std::vector<unsigned> getPermutation() const {
    if (const auto *PC = getSingleClause<OMPPermutationClause>()) {
      std::vector<unsigned> Perm;
      for (unsigned I = 0; I < PC->getNumArgs(); ++I)
        Perm.push_back(static_cast<unsigned>(PC->getArg(I) - 1));
      return Perm;
    }
    return {1, 0};
  }

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPInterchangeDirective;
  }
};

/// #pragma omp fuse [looprange(first, count)] (OpenMP 6.0): fuse a
/// sequence of adjacent canonical sibling loops into a single loop.
/// The associated statement is a CompoundStmt whose top-level statements
/// are the sibling loops (each a plain canonical loop or the result of a
/// preceding loop transformation). With a looprange clause only the
/// 1-based [first, first+count-1] subrange is fused; siblings outside the
/// range are kept as-is around the fused loop. Legality is gated by
/// DependenceAnalysis::isLegalFuse over every ordered pair of fused
/// siblings.
class OMPFuseDirective final : public OMPLoopTransformationDirective {
public:
  OMPFuseDirective(SourceRange Range, std::span<OMPClause *const> Clauses,
                   Stmt *AssociatedStmt, unsigned NumLoops)
      : OMPLoopTransformationDirective(StmtClass::OMPFuseDirective, Range,
                                       OpenMPDirectiveKind::Fuse, Clauses,
                                       AssociatedStmt, NumLoops) {}

  /// 0-based index of the first fused sibling (looprange 'first' - 1;
  /// 0 without the clause). getLoopsNumber() is the fused count.
  [[nodiscard]] unsigned getFirstLoopIndex() const {
    if (const auto *LR = getSingleClause<OMPLoopRangeClause>())
      return static_cast<unsigned>(LR->getFirst() - 1);
    return 0;
  }

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPFuseDirective;
  }
};

/// #pragma omp distribute_loop: split one canonical loop whose body is a
/// sequence of statement groups into one loop per group, run in source
/// order. (Named distribute_loop to avoid clashing with OpenMP's
/// teams-distribute worksharing directive.) Legal only when no
/// loop-carried dependence flows from a textually later group to an
/// earlier one; gated by DependenceAnalysis::isLegalDistribute.
class OMPDistributeLoopDirective final
    : public OMPLoopTransformationDirective {
public:
  OMPDistributeLoopDirective(SourceRange Range,
                             std::span<OMPClause *const> Clauses,
                             Stmt *AssociatedStmt)
      : OMPLoopTransformationDirective(StmtClass::OMPDistributeLoopDirective,
                                       Range,
                                       OpenMPDirectiveKind::DistributeLoop,
                                       Clauses, AssociatedStmt,
                                       /*NumLoops=*/1) {}

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPDistributeLoopDirective;
  }
};

/// The meta AST node of the paper's Section 3: wraps a literal loop
/// (ForStmt) and guarantees that the OpenMP canonical-loop semantic
/// requirements are met. Can be losslessly removed again. Carries the
/// three pieces of meta-information that must be resolved in Sema:
///   1. the distance function  (trip count),
///   2. the loop user-variable function (logical iteration -> value),
///   3. the loop user-variable reference.
class OMPCanonicalLoop final : public Stmt {
public:
  OMPCanonicalLoop(Stmt *LoopStmt, CapturedStmt *DistanceFunc,
                   CapturedStmt *LoopVarFunc, DeclRefExpr *LoopVarRef)
      : Stmt(StmtClass::OMPCanonicalLoop, LoopStmt->getSourceRange()),
        LoopStmt(LoopStmt), DistanceFunc(DistanceFunc),
        LoopVarFunc(LoopVarFunc), LoopVarRef(LoopVarRef) {}

  /// The wrapped ForStmt; unwrapping is lossless.
  [[nodiscard]] Stmt *getLoopStmt() const { return LoopStmt; }

  /// "[&](LogicalTy &Result) { Result = <trip count>; }"
  [[nodiscard]] CapturedStmt *getDistanceFunc() const { return DistanceFunc; }

  /// "[&, __begin](T &Result, LogicalTy I) { Result = __begin + I * step; }"
  [[nodiscard]] CapturedStmt *getLoopVarFunc() const { return LoopVarFunc; }

  /// The user-visible variable updated before each body execution.
  [[nodiscard]] DeclRefExpr *getLoopVarRef() const { return LoopVarRef; }

  static bool classof(const Stmt *S) {
    return S->getStmtClass() == StmtClass::OMPCanonicalLoop;
  }

private:
  Stmt *LoopStmt;
  CapturedStmt *DistanceFunc;
  CapturedStmt *LoopVarFunc;
  DeclRefExpr *LoopVarRef;
};

inline unsigned OMPLoopTransformationDirective::getNumGeneratedLoops() const {
  switch (getDirectiveKind()) {
  case OpenMPDirectiveKind::Tile:
  case OpenMPDirectiveKind::Interchange:
    return getLoopsNumber();
  case OpenMPDirectiveKind::Unroll:
    return stmt_cast<OMPUnrollDirective>(this)->hasFullClause() ? 0 : 1;
  case OpenMPDirectiveKind::Reverse:
  case OpenMPDirectiveKind::Fuse:
    return 1;
  default:
    return 0;
  }
}

/// Strips the statements that may stand between a directive and the loop
/// it is associated with: single-statement CompoundStmts (braces),
/// CapturedStmts (outlined regions) and, unless \p KeepCanonicalLoop,
/// OMPCanonicalLoop wrappers. This is the one definition of "wrapper" that
/// Sema, CodeGen and the AST analyses share.
Stmt *skipLoopWrappers(Stmt *S, bool KeepCanonicalLoop = false);
inline const Stmt *skipLoopWrappers(const Stmt *S,
                                    bool KeepCanonicalLoop = false) {
  return skipLoopWrappers(const_cast<Stmt *>(S), KeepCanonicalLoop);
}

/// skipLoopWrappers that also continues into the generated loop of each
/// loop-transformation directive it meets, calling \p OnTransform on the
/// directive first (the consumption mechanism of the paper's Section 2).
/// Stops at a directive without a generated loop: full unroll, or any
/// transformation in IRBuilder mode.
Stmt *skipToGeneratedLoop(
    Stmt *S,
    const std::function<void(OMPLoopTransformationDirective *)> &OnTransform =
        {});

/// The header of a for loop matched against the OpenMP canonical loop form
/// (OpenMP 5.1 s4.4.1). Init, condition and increment are matched
/// independently, so a consumer can report every part that fails; the
/// condition and increment can only match once the init named the
/// iteration variable.
struct CanonicalLoopForm {
  /// init-expr 'T var = lb' or 'var = lb'. IV is also set for 'T var;'.
  VarDecl *IV = nullptr;
  Expr *LowerBound = nullptr;
  /// test-expr 'var relop ub'; 'ub relop var' is mirrored so that Rel
  /// reads with the IV on its left. One of LT, LE, GT, GE, NE.
  BinaryOperatorKind Rel = BinaryOperatorKind::LT;
  Expr *UpperBound = nullptr;
  /// incr-expr '++'/'--', 'var += c', 'var -= c', 'var = var + c',
  /// 'var = c + var' or 'var = var - c'. Step is 'c' as written, or null
  /// for the unit step of '++'/'--'.
  Expr *Step = nullptr;
  /// The magnitude of the step when the caller's evaluator folds it (1 for
  /// '++'/'--'). A negative constant 'c' is normalized: StepNegated is set
  /// and Decreasing is the opposite of what the operator says.
  std::optional<std::uint64_t> StepMagnitude;
  bool StepNegated = false;
  bool Decreasing = false;
  /// Width of the unsigned logical iteration type, which Sema takes from
  /// ASTContext::getCorrespondingUnsignedType: 32 for integer IVs of at
  /// most int width, 64 otherwise (pointers included).
  unsigned LogicalWidth = 64;
  /// Whether each part matched, and where it is: the part itself, or the
  /// 'for' keyword when the part is missing. A failed match is reported
  /// there.
  bool InitMatched = false, CondMatched = false, IncMatched = false;
  SourceLocation InitLoc, CondLoc, IncLoc;

  [[nodiscard]] bool isInclusive() const {
    return Rel == BinaryOperatorKind::LE || Rel == BinaryOperatorKind::GE;
  }
};

/// An integer constant evaluator (evaluateInteger or
/// evaluateIntegerWithConstVars): each consumer folds the step by its own
/// policy.
using ConstantEvaluator = std::optional<std::int64_t> (*)(const Expr *);

/// Matches \p For against the canonical loop form. The step is folded with
/// \p EvalStep when one is given. This is the one recognizer Sema, the
/// dependence analysis and the AST analyses share.
CanonicalLoopForm matchCanonicalLoop(const ForStmt *For,
                                     ConstantEvaluator EvalStep = nullptr);

/// The logical trip count of a matched loop whose bounds evaluate to \p LB
/// and \p UB: the distance is taken in the unsigned logical type, truncated
/// to its width, so that INT_MIN..INT_MAX folds correctly (paper Section
/// 3.1). Null when the step is unknown or zero, the direction contradicts
/// the relational operator, '!=' has a non-unit step, or the count does not
/// fit in 64 bits.
std::optional<std::uint64_t> getLogicalTripCount(const CanonicalLoopForm &F,
                                                 std::int64_t LB,
                                                 std::int64_t UB);

} // namespace mcc

#endif // MCC_AST_STMTOPENMP_H
