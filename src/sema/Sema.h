//===--- Sema.h - Semantic analysis and AST construction --------*- C++ -*-===//
//
// The Sema layer of the paper's Fig. 1. The parser pushes syntactic
// elements here; Sema performs name lookup, type checking, inserts implicit
// AST nodes and builds the (immutable) AST.
//
// The OpenMP part implements BOTH representations the paper describes:
//   * LegacyShadowAST: OMPLoopDirective shadow helper expressions and
//     transformed-statement construction for tile/unroll (Section 2);
//   * IRBuilder mode:  OMPCanonicalLoop wrapping with distance / loop-var
//     functions (Section 3), leaving code generation to OpenMPIRBuilder.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SEMA_SEMA_H
#define MCC_SEMA_SEMA_H

#include "ast/ASTContext.h"
#include "ast/ASTDumper.h"
#include "ast/ExprConstant.h"
#include "ast/StmtOpenMP.h"
#include "ast/TreeTransform.h"
#include "lex/Token.h"
#include "sema/LangOptions.h"
#include "support/Diagnostic.h"

#include <map>
#include <memory>
#include <vector>

namespace mcc {

/// One lexical scope of name bindings.
class Scope {
public:
  explicit Scope(Scope *Parent) : Parent(Parent) {}

  [[nodiscard]] Scope *getParent() const { return Parent; }

  NamedDecl *lookupLocal(std::string_view Name) const {
    auto It = Decls.find(Name);
    return It == Decls.end() ? nullptr : It->second;
  }

  NamedDecl *lookup(std::string_view Name) const {
    for (const Scope *S = this; S; S = S->Parent)
      if (NamedDecl *D = S->lookupLocal(Name))
        return D;
    return nullptr;
  }

  void addDecl(NamedDecl *D) { Decls[D->getName()] = D; }

private:
  Scope *Parent;
  std::map<std::string_view, NamedDecl *, std::less<>> Decls;
};

/// Result of analyzing one loop of an OpenMP canonical loop nest
/// (OpenMP 5.1 section 4.4.1 "Canonical Loop Nest Form").
struct OMPLoopInfo {
  ForStmt *Loop = nullptr;
  VarDecl *IterVar = nullptr;    // the *loop iteration variable*
  Expr *LowerBound = nullptr;    // IV start value (rvalue expr)
  Expr *UpperBound = nullptr;    // bound tested against (rvalue expr)
  Expr *Step = nullptr;          // positive magnitude of the increment
  bool Decreasing = false;       // IV moves downward
  bool InclusiveBound = false;   // <= / >= comparison
  QualType IVType;
  QualType LogicalType;          // unsigned type of the logical counter

  /// Constant trip count if all of LB/UB/Step fold.
  std::optional<std::uint64_t> ConstantTripCount;
};

class Sema {
public:
  Sema(ASTContext &Ctx, DiagnosticsEngine &Diags, const LangOptions &Opts);
  ~Sema();
  Sema(const Sema &) = delete;
  Sema &operator=(const Sema &) = delete;

  [[nodiscard]] ASTContext &getASTContext() { return Ctx; }
  [[nodiscard]] DiagnosticsEngine &getDiagnostics() { return Diags; }
  [[nodiscard]] const LangOptions &getLangOpts() const { return Opts; }

  // --- Scope management (driven by the parser) ---
  void pushScope();
  void popScope();
  [[nodiscard]] Scope *getCurScope() { return CurScope; }

  void incrementLoopDepth() { ++LoopDepth; }
  void decrementLoopDepth() { --LoopDepth; }

  // --- Declarations ---
  VarDecl *ActOnVarDecl(SourceLocation Loc, std::string_view Name, QualType Ty,
                        Expr *Init, bool FileScope);
  FunctionDecl *ActOnFunctionDecl(SourceLocation Loc, std::string_view Name,
                                  QualType RetTy,
                                  std::vector<ParmVarDecl *> Params);
  ParmVarDecl *ActOnParamDecl(SourceLocation Loc, std::string_view Name,
                              QualType Ty);
  void ActOnStartFunctionBody(FunctionDecl *FD);
  void ActOnFinishFunctionBody(FunctionDecl *FD, Stmt *Body);
  TranslationUnitDecl *ActOnEndOfTranslationUnit(std::vector<Decl *> Decls);

  // --- Expressions ---
  Expr *ActOnIntegerLiteral(const Token &Tok);
  Expr *ActOnFloatingLiteral(const Token &Tok);
  Expr *ActOnBoolLiteral(SourceLocation Loc, bool Value);
  Expr *ActOnIdExpression(SourceLocation Loc, std::string_view Name);
  Expr *ActOnParenExpr(SourceRange R, Expr *Sub);
  Expr *ActOnUnaryOp(SourceLocation OpLoc, UnaryOperatorKind Opc, Expr *Sub);
  Expr *ActOnBinaryOp(SourceLocation OpLoc, BinaryOperatorKind Opc, Expr *LHS,
                      Expr *RHS);
  Expr *ActOnConditionalOp(SourceLocation QLoc, Expr *Cond, Expr *TrueE,
                           Expr *FalseE);
  Expr *ActOnCallExpr(SourceRange R, Expr *Callee, std::vector<Expr *> Args);
  Expr *ActOnArraySubscript(SourceRange R, Expr *Base, Expr *Index);

  // --- Statements ---
  Stmt *ActOnNullStmt(SourceLocation Loc);
  Stmt *ActOnCompoundStmt(SourceRange R, std::vector<Stmt *> Body);
  Stmt *ActOnDeclStmt(SourceRange R, std::vector<VarDecl *> Decls);
  Stmt *ActOnExprStmt(Expr *E);
  Stmt *ActOnIfStmt(SourceRange R, Expr *Cond, Stmt *Then, Stmt *Else);
  Stmt *ActOnWhileStmt(SourceRange R, Expr *Cond, Stmt *Body);
  Stmt *ActOnDoStmt(SourceRange R, Stmt *Body, Expr *Cond);
  Stmt *ActOnForStmt(SourceRange R, Stmt *Init, Expr *Cond, Expr *Inc,
                     Stmt *Body);
  Stmt *ActOnReturnStmt(SourceRange R, Expr *Value);
  Stmt *ActOnBreakStmt(SourceLocation Loc);
  Stmt *ActOnContinueStmt(SourceLocation Loc);

  // --- Conversions (exposed for SemaOpenMP and tests) ---

  /// Lvalue-to-rvalue, array-to-pointer, function-to-pointer.
  Expr *defaultFunctionArrayLvalueConversion(Expr *E);
  /// Converts \p E to \p Ty, inserting implicit casts; diagnoses
  /// incompatibility at \p Loc.
  Expr *convertTo(Expr *E, QualType Ty, SourceLocation Loc);
  /// Converts to a boolean condition.
  Expr *convertToBoolean(Expr *E);
  /// Applies the usual arithmetic conversions, returning the common type
  /// (and rewriting both operands).
  QualType usualArithmeticConversions(Expr *&LHS, Expr *&RHS);

  // --- Synthesized-AST helpers (shared by the shadow transformations) ---
  IntegerLiteral *buildIntLiteral(std::uint64_t Value, QualType Ty);
  DeclRefExpr *buildDeclRef(ValueDecl *D);
  Expr *buildRValueRef(ValueDecl *D);
  Expr *buildBinOp(BinaryOperatorKind Opc, Expr *LHS, Expr *RHS);
  /// Synthesizes an internal variable (marked implicit, like Clang's
  /// '.capture_expr.' internals the paper quotes in a diagnostic).
  VarDecl *buildInternalVar(std::string_view Name, QualType Ty, Expr *Init);

  // ====================== OpenMP (SemaOpenMP.cpp) ======================

  // Clause actions (validation).
  OMPClause *ActOnOpenMPNumThreadsClause(SourceRange R, Expr *NumThreads);
  OMPClause *ActOnOpenMPScheduleClause(SourceRange R, OpenMPScheduleKind Kind,
                                       Expr *Chunk);
  OMPClause *ActOnOpenMPCollapseClause(SourceRange R, Expr *Num);
  OMPClause *ActOnOpenMPFullClause(SourceRange R);
  OMPClause *ActOnOpenMPPartialClause(SourceRange R, Expr *Factor);
  OMPClause *ActOnOpenMPSizesClause(SourceRange R, std::vector<Expr *> Sizes);
  OMPClause *ActOnOpenMPPermutationClause(SourceRange R,
                                          std::vector<Expr *> Args);
  OMPClause *ActOnOpenMPLoopRangeClause(SourceRange R,
                                        std::vector<Expr *> Args);
  OMPClause *ActOnOpenMPVarListClause(OpenMPClauseKind Kind, SourceRange R,
                                      std::vector<Expr *> Vars,
                                      OpenMPReductionOp RedOp);
  OMPClause *ActOnOpenMPNoWaitClause(SourceRange R);

  /// Main directive action. \p AStmt is the statement following the pragma
  /// (null for standalone directives). Returns null on error.
  Stmt *ActOnOpenMPExecutableDirective(OpenMPDirectiveKind Kind,
                                       std::vector<OMPClause *> Clauses,
                                       Stmt *AStmt, SourceRange R);

  /// Analyzes the loop nest associated with a directive requiring
  /// \p NumLoops canonical loops. Loop transformation directives already
  /// applied to inner nests are consumed via getTransformedStmt() (legacy)
  /// — the mechanism of the paper's Section 2. Fills \p Infos; returns
  /// false after diagnosing.
  bool analyzeLoopNest(Stmt *AStmt, OpenMPDirectiveKind Kind,
                       unsigned NumLoops, std::vector<OMPLoopInfo> &Infos,
                       std::vector<Stmt *> &PreInitsFromTransforms);

  /// Analyzes a single loop for OpenMP canonical form. Public for tests.
  bool checkOpenMPCanonicalLoop(Stmt *S, OpenMPDirectiveKind Kind,
                                OMPLoopInfo &Info);

  /// Builds the expression for the number of iterations in the loop's
  /// *unsigned* logical type, computed overflow-safely (Section 3.1).
  Expr *buildNumIterationsExpr(const OMPLoopInfo &Info);

  /// Builds "IterVar = LB + Counter * Step" (resp. "-" for decreasing
  /// loops): the de-normalization / loop-user-value update.
  Expr *buildCounterUpdate(const OMPLoopInfo &Info, Expr *CounterRValue);

  // --- Legacy pipeline (Section 2) ---
  //
  // One shadow-AST builder per transformation kind. Each builds the
  // *transformed statement*: a nest over the logical iteration spaces
  // whose innermost body materializes the user's iteration variables
  // (buildMaterializedBody) and re-uses a clone of the original body.

  /// "#pragma omp tile": n floor loops around n tile loops (Fig. 7).
  Stmt *buildTileTransformation(OMPTileDirective *Dir,
                                const std::vector<OMPLoopInfo> &Infos);
  /// "#pragma omp unroll partial(k)": strip-mined loop whose inner loop
  /// carries a LoopHintAttr (paper Listing 8).
  Stmt *buildUnrollPartialTransformation(const OMPLoopInfo &Info,
                                         unsigned Factor);
  /// "#pragma omp reverse": one loop over the logical iteration space,
  /// fed through in reverse order.
  Stmt *buildReverseTransformation(const OMPLoopInfo &Info);
  /// "#pragma omp interchange": the nest rebuilt over the permuted logical
  /// iteration spaces.
  Stmt *buildInterchangeTransformation(const std::vector<OMPLoopInfo> &Infos,
                                       std::span<const unsigned> Perm);
  /// "#pragma omp fuse": one loop over the maximal logical iteration space
  /// whose body runs iteration t of every fused sibling (guarded when trip
  /// counts may differ). \p Infos holds one entry per *fused* sibling;
  /// siblings outside the looprange are re-emitted around the fused loop
  /// unchanged. The captured trip counts are appended to \p PreInits.
  Stmt *buildFuseTransformation(const std::vector<OMPLoopInfo> &Infos,
                                std::span<Stmt *const> Siblings,
                                unsigned FirstIdx,
                                std::vector<Stmt *> &PreInits);
  /// "#pragma omp distribute_loop": one loop per top-level statement group
  /// of the original body, run in source order over the full logical
  /// iteration space.
  Stmt *buildDistributeTransformation(const OMPLoopInfo &Info);
  /// The one switch from a nest transformation (tile, unroll, reverse,
  /// interchange) to its shadow builder, with the parameters its clauses
  /// fix. Null for fuse and distribute_loop, which associate differently.
  Stmt *buildTransformedStmt(OMPLoopTransformationDirective *TD,
                             const std::vector<OMPLoopInfo> &Infos);
  /// Fills the ~30+6n shadow helper expressions of an OMPLoopDirective.
  void buildLoopDirectiveHelpers(OMPLoopDirective *Dir,
                                 const std::vector<OMPLoopInfo> &Infos,
                                 Stmt *PreInits);

  // --- IRBuilder pipeline (Section 3) ---

  /// Wraps \p Info's loop in an OMPCanonicalLoop with the three pieces of
  /// meta-information: distance function, loop-var function, loop-var ref.
  OMPCanonicalLoop *buildOMPCanonicalLoop(const OMPLoopInfo &Info);
  /// Wraps every loop of the analyzed nest \p Infos in an OMPCanonicalLoop,
  /// rebuilding outer loops around the wrapped inner ones.
  Stmt *buildCanonicalLoopNest(const std::vector<OMPLoopInfo> &Infos);

  /// Builds a CapturedStmt outlining \p S, capturing every variable
  /// declared outside it, with the standard implicit parameters
  /// (.global_tid., .bound_tid., __context).
  CapturedStmt *buildCaptureForOutlining(Stmt *S,
                                         std::vector<VarDecl *> ExtraCaptures);

private:
  // Helpers for directive construction.
  Stmt *buildLoopDirective(OpenMPDirectiveKind Kind,
                           std::vector<OMPClause *> Clauses, Stmt *AStmt,
                           SourceRange R);
  /// tile, unroll, reverse and interchange: directives over a perfect nest.
  Stmt *buildNestTransformDirective(OpenMPDirectiveKind Kind,
                                    std::vector<OMPClause *> Clauses,
                                    Stmt *AStmt, SourceRange R);
  Stmt *buildFuseDirective(std::vector<OMPClause *> Clauses, Stmt *AStmt,
                           SourceRange R);
  Stmt *buildDistributeLoopDirective(std::vector<OMPClause *> Clauses,
                                     Stmt *AStmt, SourceRange R);

  /// Returns the statement the dependence oracle should analyze for a
  /// loop-transformation directive: the recorded shadow AST in legacy
  /// mode, or one rebuilt on the fly in IRBuilder mode (where Sema leaves
  /// TransformedStmt null). Null when no analyzable loop results (full
  /// unroll, or a composition the oracle does not model).
  Stmt *buildTransformedForAnalysis(OMPLoopTransformationDirective *TD);

  /// Consults the dependence-analysis oracle on the *syntactic* loop nest:
  /// refuses (with an error naming the violated dependence, or what made
  /// the nest unprovable) unless the transformation is provably
  /// order-preserving. \p Perm is empty for reverse (level 0).
  bool checkTransformDependences(Stmt *AStmt, OpenMPDirectiveKind Kind,
                                 unsigned NumLoops,
                                 std::span<const unsigned> Perm,
                                 SourceRange R);

  // Pieces every shadow builder shares.
  /// A DeclStmt declaring the single variable \p V.
  Stmt *buildDeclStmt(VarDecl *V);
  /// "for (<decl of IV>; Cond; Inc) Body"; a null \p Inc means "++IV".
  Stmt *buildShadowLoop(SourceRange R, VarDecl *IV, Expr *Cond, Expr *Inc,
                        Stmt *Body);
  /// "{ T iv_k = <value of logical iteration Logicals[k]>; ... Body' }":
  /// declares the user iteration variable of each loop in \p Infos, then
  /// a clone of \p Body that refers to those declarations.
  Stmt *buildMaterializedBody(std::span<const OMPLoopInfo> Infos,
                              std::span<Expr *const> Logicals, Stmt *Body);
  /// The PreInits of consumed transformations as one CompoundStmt; null
  /// when there are none.
  Stmt *buildPreInits(const std::vector<Stmt *> &PreInits);

  /// Collects every VarDecl referenced by \p S but declared outside it.
  std::vector<VarDecl *> computeCaptures(Stmt *S);

  bool checkDuplicateClauses(const std::vector<OMPClause *> &Clauses,
                             OpenMPDirectiveKind Kind);

  ASTContext &Ctx;
  DiagnosticsEngine &Diags;
  LangOptions Opts;

  std::vector<std::unique_ptr<Scope>> ScopeStorage;
  Scope *CurScope = nullptr;
  unsigned LoopDepth = 0;
  FunctionDecl *CurFunction = nullptr;
  unsigned InternalNameCounter = 0;
};

} // namespace mcc

#endif // MCC_SEMA_SEMA_H
