//===--- TransformVerifier.cpp - Post-transform shadow-AST verifier --------===//
//
// The AST analogue of ir::Verifier: after SemaOpenMPTransform has built the
// shadow ASTs, checks the structural invariants the rest of the pipeline
// relies on:
//
//   * tile applies to a perfectly nested loop nest of the directive's
//     association depth;
//   * the generated loops match the clause arguments: tile with sizes(n)
//     produces the 2n-loop floor/tile spine, unroll partial(k) produces
//     the strip-mined outer loop plus a LoopHintAttr(UnrollCount, k)
//     annotated inner loop, unroll full produces no generated loop;
//   * every shadow node's diagnostic location remaps into the literal
//     loop: it is either invalid (the DiagnosticsEngine remap policy
//     retargets it) or lies within the directive + associated statement's
//     source range.
//
// Violations are errors (err_ast_verifier): they indicate a transformation
// bug, not a user mistake.
//
//===----------------------------------------------------------------------===//
#include "analysis/Analysis.h"

#include <string>

namespace mcc::analysis {

namespace {

bool reportVerifierError(const OMPLoopTransformationDirective *Dir,
                         DiagnosticsEngine &Diags, const std::string &Msg) {
  Diags.report(Dir->getBeginLoc(), diag::err_ast_verifier) << Msg;
  return false;
}

std::string dirName(const OMPLoopTransformationDirective *Dir) {
  return std::string(getOpenMPDirectiveName(Dir->getDirectiveKind()));
}

/// fuse associates with a statement sequence, not a nest: every member of
/// the looprange must resolve to a for loop (possibly the generated loop
/// of a preceding transformation).
bool verifyFuseSequence(const OMPFuseDirective *Fuse,
                        DiagnosticsEngine &Diags) {
  auto *CS = stmt_dyn_cast<CompoundStmt>(
      skipLoopWrappers(Fuse->getAssociatedStmt()));
  unsigned First = Fuse->getFirstLoopIndex();
  unsigned Count = Fuse->getLoopsNumber();
  if (!CS || CS->size() < First + Count)
    return reportVerifierError(
        Fuse, Diags,
        "'fuse' must be associated with a statement sequence containing "
        "its looprange");
  for (unsigned K = 0; K < Count; ++K) {
    // A member may be the generated loop of a preceding transformation;
    // an IRBuilder-mode member (no generated loop yet) is not checked.
    Stmt *Member = skipToGeneratedLoop(CS->body()[First + K]);
    if (!stmt_dyn_cast<ForStmt>(Member) &&
        !stmt_dyn_cast<OMPLoopTransformationDirective>(Member))
      return reportVerifierError(
          Fuse, Diags,
          "fused member " + std::to_string(K + 1) +
              " does not resolve to a for loop");
  }
  return true;
}

/// Walks the literal associated nest of \p Dir checking perfect nesting to
/// the directive's association depth. Nested transformation directives are
/// consumed through their transformed statement, as Sema does.
bool verifyPerfectNesting(const OMPLoopTransformationDirective *Dir,
                          DiagnosticsEngine &Diags) {
  Stmt *Cur = Dir->getAssociatedStmt();
  unsigned N = Dir->getLoopsNumber();
  for (unsigned Depth = 0; Depth < N; ++Depth) {
    Cur = skipToGeneratedLoop(Cur);
    if (stmt_dyn_cast<OMPLoopTransformationDirective>(Cur))
      return true; // IRBuilder mode: nothing further to verify here
    if (auto *CS = stmt_dyn_cast<CompoundStmt>(Cur)) {
      std::string Msg = "'";
      Msg += dirName(Dir);
      Msg += "' requires a perfectly nested loop nest of depth ";
      Msg += std::to_string(N);
      Msg += ", but the block at depth ";
      Msg += std::to_string(Depth);
      Msg += " contains ";
      Msg += std::to_string(CS->size());
      Msg += " statements";
      return reportVerifierError(Dir, Diags, Msg);
    }
    auto *For = stmt_dyn_cast<ForStmt>(Cur);
    if (!For) {
      std::string Msg = "'";
      Msg += dirName(Dir);
      Msg += "' is associated with a ";
      Msg += Cur->getStmtClassName();
      Msg += " at depth ";
      Msg += std::to_string(Depth);
      Msg += " where a for loop is required";
      return reportVerifierError(Dir, Diags, Msg);
    }
    Cur = For->getBody();
  }
  return true;
}

/// The next spine loop of a generated nest (whose only wrappers are
/// single-statement compounds).
ForStmt *nextSpineLoop(Stmt *&Cur) {
  Cur = skipLoopWrappers(Cur);
  if (auto *For = stmt_dyn_cast<ForStmt>(Cur)) {
    Cur = For->getBody();
    return For;
  }
  return nullptr;
}

bool spineIVNameStartsWith(const ForStmt *For, const std::string &Prefix) {
  const VarDecl *IV = matchCanonicalLoop(For).IV;
  return IV && std::string_view(IV->getName()).substr(0, Prefix.size()) ==
                   Prefix;
}

bool verifyTileSpine(const OMPTileDirective *Tile, DiagnosticsEngine &Diags) {
  unsigned N = Tile->getLoopsNumber();

  const auto *Sizes = Tile->getSingleClause<OMPSizesClause>();
  if (!Sizes)
    return reportVerifierError(Tile, Diags,
                               "'tile' directive has no 'sizes' clause");
  if (Sizes->getNumSizes() != N)
    return reportVerifierError(
        Tile, Diags,
        "'sizes' clause has " + std::to_string(Sizes->getNumSizes()) +
            " arguments but the directive is associated with " +
            std::to_string(N) + " loops");

  // sizes(s1...sn) must generate the 2n-loop spine of the paper's Fig. 7:
  // n floor loops followed by n tile loops.
  Stmt *Cur = Tile->getTransformedStmt();
  for (unsigned Group = 0; Group < 2; ++Group) {
    const char *Kind = Group == 0 ? ".floor." : ".tile.";
    for (unsigned K = 0; K < N; ++K) {
      ForStmt *For = nextSpineLoop(Cur);
      std::string Expected = Kind + std::to_string(K) + ".iv.";
      if (!For || !spineIVNameStartsWith(For, Expected))
        return reportVerifierError(
            Tile, Diags,
            "'tile sizes(" + std::to_string(Sizes->getNumSizes()) +
                ")' must generate " + std::to_string(2 * N) +
                " loops, but generated loop " +
                std::to_string(Group * N + K) + " (expected '" + Expected +
                "*') is missing or malformed");
    }
  }
  return true;
}

bool verifyUnrollSpine(const OMPUnrollDirective *Unroll,
                       DiagnosticsEngine &Diags) {
  Stmt *Cur = Unroll->getTransformedStmt();

  if (Unroll->hasFullClause())
    return reportVerifierError(Unroll, Diags,
                               "'unroll full' must not produce a generated "
                               "loop, but a transformed statement is "
                               "present");

  ForStmt *Outer = nextSpineLoop(Cur);
  if (!Outer || !spineIVNameStartsWith(Outer, "unrolled.iv."))
    return reportVerifierError(Unroll, Diags,
                               "'unroll partial' must generate a "
                               "strip-mined outer loop ('unrolled.iv.*')");

  auto *Attributed = stmt_dyn_cast<AttributedStmt>(skipLoopWrappers(Cur));
  const LoopHintAttr *Hint = nullptr;
  if (Attributed)
    for (const Attr *A : Attributed->getAttrs())
      if (A->getKind() == Attr::Kind::LoopHint) {
        const auto *LH = static_cast<const LoopHintAttr *>(A);
        if (LH->getOption() == LoopHintAttr::OptionKind::UnrollCount)
          Hint = LH;
      }
  if (!Hint)
    return reportVerifierError(
        Unroll, Diags,
        "'unroll partial' must annotate the generated inner loop with a "
        "LoopHintAttr(UnrollCount)");

  // An explicit partial(k) must propagate k into the hint.
  if (const auto *Partial = Unroll->getSingleClause<OMPPartialClause>())
    if (const ConstantExpr *Factor = Partial->getFactor())
      if (const auto *Lit = stmt_dyn_cast<IntegerLiteral>(
              Hint->getValue()->ignoreParenImpCasts()))
        if (static_cast<std::int64_t>(Lit->getValue()) !=
            Factor->getResult())
          return reportVerifierError(
              Unroll, Diags,
              "'unroll partial(" + std::to_string(Factor->getResult()) +
                  ")' generated an unroll hint with factor " +
                  std::to_string(Lit->getValue()));

  Stmt *Sub = Attributed->getSubStmt();
  ForStmt *Inner = nextSpineLoop(Sub);
  if (!Inner || !spineIVNameStartsWith(Inner, "unroll_inner.iv."))
    return reportVerifierError(Unroll, Diags,
                               "'unroll partial' must generate an inner "
                               "loop ('unroll_inner.iv.*') under the "
                               "unroll hint");
  return true;
}

bool verifyFuseSpine(const OMPFuseDirective *Fuse, DiagnosticsEngine &Diags) {
  // The shadow is the sibling sequence with the looprange replaced by one
  // generated loop ('fused.iv') at the position of the first fused member.
  auto *CS = stmt_dyn_cast<CompoundStmt>(Fuse->getTransformedStmt());
  unsigned First = Fuse->getFirstLoopIndex();
  if (!CS || CS->size() <= First)
    return reportVerifierError(Fuse, Diags,
                               "'fuse' must generate the surrounding "
                               "sibling sequence with the fused loop in "
                               "place of the looprange");
  Stmt *Cur = CS->body()[First];
  ForStmt *For = nextSpineLoop(Cur);
  if (!For || !spineIVNameStartsWith(For, "fused.iv"))
    return reportVerifierError(
        Fuse, Diags,
        "'fuse' must generate a single fused loop ('fused.iv')");
  return true;
}

bool verifyDistributeSpine(const OMPDistributeLoopDirective *Dist,
                           DiagnosticsEngine &Diags) {
  // The shadow is a sequence of per-group loops ('distributed.<g>.iv.*')
  // preceded by the shared trip-count declaration.
  auto *CS = stmt_dyn_cast<CompoundStmt>(Dist->getTransformedStmt());
  if (!CS || CS->size() < 3)
    return reportVerifierError(
        Dist, Diags,
        "'distribute_loop' must generate the trip count plus one loop per "
        "statement group (at least two groups)");
  for (unsigned G = 1; G < CS->size(); ++G) {
    Stmt *Cur = CS->body()[G];
    ForStmt *For = nextSpineLoop(Cur);
    std::string Expected = "distributed." + std::to_string(G - 1) + ".iv.";
    if (!For || !spineIVNameStartsWith(For, Expected))
      return reportVerifierError(
          Dist, Diags,
          "'distribute_loop' generated loop " + std::to_string(G - 1) +
              " (expected '" + Expected + "*') is missing or malformed");
  }
  return true;
}

/// Checks that every node of a shadow subtree either has no location (the
/// remap policy retargets it) or a location within the literal region
/// [directive begin, max(directive end, associated stmt end)].
const Stmt *findEscapedLocation(const Stmt *S, SourceLocation Begin,
                                SourceLocation End) {
  if (!S)
    return nullptr;
  SourceLocation Loc = S->getBeginLoc();
  if (Loc.isValid() && (Loc < Begin || End < Loc))
    return S;
  for (Stmt *Child : S->children())
    if (const Stmt *Found = findEscapedLocation(Child, Begin, End))
      return Found;
  if (const auto *TD = stmt_dyn_cast<OMPLoopTransformationDirective>(S)) {
    if (const Stmt *Found =
            findEscapedLocation(TD->getPreInits(), Begin, End))
      return Found;
    if (const Stmt *Found =
            findEscapedLocation(TD->getTransformedStmt(), Begin, End))
      return Found;
  }
  return nullptr;
}

bool verifyShadowLocations(const OMPLoopTransformationDirective *Dir,
                           DiagnosticsEngine &Diags) {
  SourceLocation Begin = Dir->getBeginLoc();
  SourceLocation End = Dir->getEndLoc();
  if (const Stmt *Assoc = Dir->getAssociatedStmt())
    if (Assoc->getEndLoc().isValid() && End < Assoc->getEndLoc())
      End = Assoc->getEndLoc();

  for (const Stmt *Root : {Dir->getPreInits(), Dir->getTransformedStmt()})
    if (const Stmt *Escaped = findEscapedLocation(Root, Begin, End))
      return reportVerifierError(
          Dir, Diags,
          std::string("shadow node '") + Escaped->getStmtClassName() +
              "' of '" + dirName(Dir) +
              "' has a source location outside the literal loop; its "
              "diagnostics would not remap to user code");
  return true;
}

} // namespace

bool verifyLoopTransformation(OMPLoopTransformationDirective *Dir,
                              DiagnosticsEngine &Diags) {
  bool OK = stmt_dyn_cast<OMPFuseDirective>(Dir)
                ? verifyFuseSequence(stmt_cast<OMPFuseDirective>(Dir), Diags)
                : verifyPerfectNesting(Dir, Diags);

  if (Stmt *T = Dir->getTransformedStmt()) {
    (void)T;
    if (const auto *Tile = stmt_dyn_cast<OMPTileDirective>(Dir))
      OK = verifyTileSpine(Tile, Diags) && OK;
    else if (const auto *Unroll = stmt_dyn_cast<OMPUnrollDirective>(Dir))
      OK = verifyUnrollSpine(Unroll, Diags) && OK;
    else if (const auto *Fuse = stmt_dyn_cast<OMPFuseDirective>(Dir))
      OK = verifyFuseSpine(Fuse, Diags) && OK;
    else if (const auto *Dist = stmt_dyn_cast<OMPDistributeLoopDirective>(Dir))
      OK = verifyDistributeSpine(Dist, Diags) && OK;
    OK = verifyShadowLocations(Dir, Diags) && OK;
  } else if (const auto *Unroll = stmt_dyn_cast<OMPUnrollDirective>(Dir)) {
    // Full / heuristic unroll legitimately defers to the mid-end; nothing
    // structural to verify.
    (void)Unroll;
  }
  return OK;
}

namespace {

class PostTransformVerifier final : public ASTAnalysis {
public:
  PostTransformVerifier() : ASTAnalysis("post-transform-verifier") {}

  void run(TranslationUnitDecl *TU, AnalysisManager &AM) override {
    struct Finder : RecursiveASTVisitor<Finder> {
      DiagnosticsEngine *Diags = nullptr;
      bool visitStmt(Stmt *S) {
        if (auto *TD = stmt_dyn_cast<OMPLoopTransformationDirective>(S))
          verifyLoopTransformation(TD, *Diags);
        return true;
      }
      bool visitDecl(Decl *) { return true; }
    } F;
    F.Diags = &AM.getDiagnostics();
    F.traverseDecl(TU);
  }
};

} // namespace

std::unique_ptr<ASTAnalysis> createPostTransformVerifier() {
  return std::make_unique<PostTransformVerifier>();
}

} // namespace mcc::analysis
