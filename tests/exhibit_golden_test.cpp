//===--- exhibit_golden_test.cpp - Golden files for the paper's exhibits ---===//
//
// The exhibit_ast_dumps tool reproduces the paper's listings (Fig. 3 /
// lst:astdump, the shadow-AST stack of Listing 6, the transformed tile
// and unroll subtrees). These dumps are documentation-grade output — a
// formatting or structural drift would silently invalidate the paper
// reproduction — so each exhibit is pinned against a golden file under
// tests/golden/.
//
// To regenerate after an intentional AST/dump change:
//   MCC_REGEN_GOLDEN=1 ./exhibit_golden_test
// then review the diff like any other source change.
//
//===----------------------------------------------------------------------===//
#include "ast/RecursiveASTVisitor.h"
#include "driver/CompilerInstance.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace mcc;

namespace {

template <typename T> T *findNode(TranslationUnitDecl *TU) {
  struct Finder : RecursiveASTVisitor<Finder> {
    T *Found = nullptr;
    bool visitStmt(Stmt *S) {
      if (auto *Node = stmt_dyn_cast<T>(S)) {
        Found = Node;
        return false;
      }
      return true;
    }
  } F;
  for (Decl *D : TU->decls())
    if (!F.traverseDecl(D))
      break;
  return F.Found;
}

std::string goldenPath(const std::string &Name) {
  return std::string(MCC_GOLDEN_DIR) + "/" + Name + ".golden";
}

void compareWithGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("MCC_REGEN_GOLDEN")) {
    std::ofstream Out(Path, std::ios::trunc);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (run with MCC_REGEN_GOLDEN=1 to create)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Actual)
      << "exhibit '" << Name << "' drifted from " << Path
      << "\nIf the change is intentional, regenerate with "
         "MCC_REGEN_GOLDEN=1 and review the diff.";
}

/// Parses \p Source and dumps the first node of type T (optionally its
/// transformed shadow statement instead).
template <typename T>
std::string dumpExhibit(const char *Source, bool Transformed = false,
                        bool IRBuilderMode = false) {
  CompilerOptions Options;
  Options.LangOpts.OpenMPEnableIRBuilder = IRBuilderMode;
  CompilerInstance CI(Options);
  CI.addVirtualFile("x.c", Source);
  if (!CI.parseToAST("x.c")) {
    ADD_FAILURE() << CI.renderDiagnostics();
    return {};
  }
  T *Node = findNode<T>(CI.getTranslationUnit());
  if (!Node) {
    ADD_FAILURE() << "exhibit node not found";
    return {};
  }
  if (Transformed) {
    if constexpr (requires { Node->getTransformedStmt(); }) {
      Stmt *TS = Node->getTransformedStmt();
      if (!TS) {
        ADD_FAILURE() << "no transformed statement";
        return {};
      }
      return dumpToString(TS);
    } else {
      ADD_FAILURE() << "directive has no shadow transform";
      return {};
    }
  }
  return dumpToString(Node);
}

// Paper Listing 3 / Fig. 3: parallel for schedule(static) including the
// CapturedStmt machinery.
const char *const ParallelForSource = R"(
void body(int i);
void f() {
  #pragma omp parallel for schedule(static)
  for (int i = 7; i < 17; i += 3)
    body(i);
}
)";

TEST(ExhibitGolden, AstDumpParallelForStatic) {
  compareWithGolden(
      "astdump_parallel_for",
      dumpExhibit<OMPParallelForDirective>(ParallelForSource));
}

// Paper Listing 6: the shadow-AST stack of unroll full over
// unroll partial(2).
const char *const UnrollStackSource = R"(
void body(int i);
void f() {
  #pragma omp unroll full
  #pragma omp unroll partial(2)
  for (int i = 7; i < 17; i += 3)
    body(i);
}
)";

TEST(ExhibitGolden, ShadowAstUnrollStack) {
  compareWithGolden("shadow_unroll_stack",
                    dumpExhibit<OMPUnrollDirective>(UnrollStackSource));
}

// Paper Listing 8 (Fig. 8): the transformed shadow AST of a partial
// unroll — strip-mined loop plus LoopHintAttr.
const char *const UnrollPartialSource = R"(
void body(int i);
void f() {
  #pragma omp unroll partial(2)
  for (int i = 7; i < 17; i += 3)
    body(i);
}
)";

TEST(ExhibitGolden, ShadowAstUnrollTransformed) {
  compareWithGolden(
      "shadow_unroll_transformed",
      dumpExhibit<OMPUnrollDirective>(UnrollPartialSource, /*Transformed=*/true));
}

// The reverse directive's shadow AST: the generated loop runs the same
// logical iterations backwards. The body is call-free array arithmetic
// so the dependence legality oracle admits the transformation.
const char *const ReverseSource = R"(
void f() {
  int a[32];
  #pragma omp reverse
  for (int i = 0; i < 32; i += 1)
    a[i] = a[i] + i;
}
)";

TEST(ExhibitGolden, ShadowAstReverseTransformed) {
  compareWithGolden(
      "shadow_reverse_transformed",
      dumpExhibit<OMPReverseDirective>(ReverseSource, /*Transformed=*/true));
}

// The interchange counterpart: permutation(2, 1) swaps a dependence-free
// 2-D nest with an injective subscript.
const char *const InterchangeSource = R"(
void f() {
  int a[512];
  #pragma omp interchange permutation(2, 1)
  for (int i = 0; i < 16; i += 1)
    for (int j = 0; j < 32; j += 1)
      a[i * 32 + j] = a[i * 32 + j] * 2;
}
)";

TEST(ExhibitGolden, ShadowAstInterchangeTransformed) {
  compareWithGolden(
      "shadow_interchange_transformed",
      dumpExhibit<OMPInterchangeDirective>(InterchangeSource, /*Transformed=*/true));
}

// The tile counterpart: the shadow AST a tile directive constructs
// (floor + tile loop nest) for a 2-D sizes clause.
const char *const TileSource = R"(
void body(int i, int j);
void f() {
  #pragma omp tile sizes(4, 8)
  for (int i = 0; i < 32; i += 1)
    for (int j = 0; j < 16; j += 1)
      body(i, j);
}
)";

TEST(ExhibitGolden, ShadowAstTileTransformed) {
  compareWithGolden(
      "shadow_tile_transformed",
      dumpExhibit<OMPTileDirective>(TileSource, /*Transformed=*/true));
}

// The fuse directive's shadow AST: two adjacent sibling loops rewritten
// into one loop whose body runs both members per shared iteration, the
// shorter member guarded by its own trip count.
const char *const FuseSource = R"(
void f() {
  int a[64];
  int b[64];
  #pragma omp fuse
  {
    for (int i = 0; i < 64; i += 1)
      a[i] = 2 * i;
    for (int k = 0; k < 16; k += 1)
      b[k] = a[k] + 1;
  }
}
)";

TEST(ExhibitGolden, ShadowAstFuseTransformed) {
  compareWithGolden(
      "shadow_fuse_transformed",
      dumpExhibit<OMPFuseDirective>(FuseSource, /*Transformed=*/true));
}

// The distribute_loop counterpart: one loop split into per-statement-
// group loops (legal here — the inter-group dependence is forward).
const char *const DistributeSource = R"(
void f() {
  int a[64];
  int b[64];
  #pragma omp distribute_loop
  for (int i = 0; i < 64; i += 1) {
    a[i] = 2 * i;
    b[i] = a[i] + 1;
  }
}
)";

TEST(ExhibitGolden, ShadowAstDistributeTransformed) {
  compareWithGolden(
      "shadow_distribute_transformed",
      dumpExhibit<OMPDistributeLoopDirective>(DistributeSource, /*Transformed=*/true));
}

// Composition in the style of the paper's stacked-directive discussion:
// the first fuse member is itself a tile directive, so the fuse shadow is
// built over the tile's post-transform loop.
const char *const FuseAfterTileSource = R"(
void f() {
  int a[64];
  int b[64];
  #pragma omp fuse
  {
    #pragma omp tile sizes(4)
    for (int i = 0; i < 64; i += 1)
      a[i] = i;
    for (int k = 0; k < 16; k += 1)
      b[k] = k;
  }
}
)";

TEST(ExhibitGolden, ShadowAstFuseAfterTileTransformed) {
  compareWithGolden(
      "shadow_fuse_after_tile",
      dumpExhibit<OMPFuseDirective>(FuseAfterTileSource, /*Transformed=*/true));
}

// The lowering of every exhibit is pinned as well: the printed IR in both
// pipelines, and the IRBuilder-mode AST, whose associated statements are
// OMPCanonicalLoop wrappers instead of shadow subtrees.
struct Exhibit {
  const char *Name;
  const char *Source;
};

void PrintTo(const Exhibit &E, std::ostream *OS) { *OS << E.Name; }

const Exhibit Exhibits[] = {
    {"parallel_for", ParallelForSource},
    {"unroll_stack", UnrollStackSource},
    {"unroll_partial", UnrollPartialSource},
    {"reverse", ReverseSource},
    {"interchange", InterchangeSource},
    {"tile", TileSource},
    {"fuse", FuseSource},
    {"distribute", DistributeSource},
    {"fuse_after_tile", FuseAfterTileSource},
};

std::string emitExhibitIR(const char *Source, bool IRBuilderMode) {
  CompilerOptions Options;
  Options.LangOpts.OpenMPEnableIRBuilder = IRBuilderMode;
  CompilerInstance CI(Options);
  if (!CI.compileSource(Source)) {
    ADD_FAILURE() << CI.renderDiagnostics();
    return {};
  }
  return CI.getIRText();
}

/// The diagnostics of `minicc <Passes> -syntax-only x.c`, preceded by the
/// front end's verdict: the --analyze=deps report (per-nest dependences
/// and legality verdicts) or the default --analyze linters.
std::string analyzeExhibit(const char *Source, bool IRBuilderMode,
                           bool DepsOnly) {
  CompilerOptions Options;
  Options.LangOpts.OpenMPEnableIRBuilder = IRBuilderMode;
  if (DepsOnly)
    Options.AnalyzePasses = {"deps"};
  else
    Options.RunAnalyzers = true;
  CompilerInstance CI(Options);
  CI.addVirtualFile("x.c", Source);
  bool OK = CI.parseToAST("x.c");
  return std::string(OK ? "ok\n" : "error\n") + CI.renderDiagnostics();
}

class ExhibitLowering : public ::testing::TestWithParam<Exhibit> {};

TEST_P(ExhibitLowering, LegacyDepsReport) {
  compareWithGolden(std::string("deps_legacy_") + GetParam().Name,
                    analyzeExhibit(GetParam().Source, false, true));
}

TEST_P(ExhibitLowering, IRBuilderDepsReport) {
  compareWithGolden(std::string("deps_irbuilder_") + GetParam().Name,
                    analyzeExhibit(GetParam().Source, true, true));
}

TEST_P(ExhibitLowering, LegacyAnalyzeReport) {
  compareWithGolden(std::string("analyze_legacy_") + GetParam().Name,
                    analyzeExhibit(GetParam().Source, false, false));
}

TEST_P(ExhibitLowering, IRBuilderAnalyzeReport) {
  compareWithGolden(std::string("analyze_irbuilder_") + GetParam().Name,
                    analyzeExhibit(GetParam().Source, true, false));
}

TEST_P(ExhibitLowering, LegacyIR) {
  compareWithGolden(std::string("ir_legacy_") + GetParam().Name,
                    emitExhibitIR(GetParam().Source, false));
}

TEST_P(ExhibitLowering, IRBuilderIR) {
  compareWithGolden(std::string("ir_irbuilder_") + GetParam().Name,
                    emitExhibitIR(GetParam().Source, true));
}

TEST_P(ExhibitLowering, IRBuilderCanonicalLoopAst) {
  compareWithGolden(
      std::string("astdump_irbuilder_") + GetParam().Name,
      dumpExhibit<OMPLoopBasedDirective>(GetParam().Source,
                                         /*Transformed=*/false,
                                         /*IRBuilderMode=*/true));
}

INSTANTIATE_TEST_SUITE_P(
    ExhibitGolden, ExhibitLowering, ::testing::ValuesIn(Exhibits),
    [](const ::testing::TestParamInfo<Exhibit> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
