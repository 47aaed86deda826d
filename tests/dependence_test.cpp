//===--- dependence_test.cpp - Affine dependence-analysis tests ------------===//
//
// Unit coverage for the dependence analysis layer (DESIGN.md "Dependence
// analysis layer"): affine subscript extraction over canonical nests,
// distance/direction vector computation (flow/anti/output, negative
// steps, coupled subscripts), the transform-legality oracle
// (reverse/interchange/fuse), the parallel-conflict query the race
// linter uses, and the Sema gate that refuses illegal transforms with
// dependence-citing diagnostics.
//
//===----------------------------------------------------------------------===//
#include "FrontendTestHelper.h"

#include "analysis/Analysis.h"
#include "analysis/DependenceAnalysis.h"

#include <gtest/gtest.h>

using namespace mcc;
using namespace mcc::test;
using analysis::DepDir;
using analysis::DepKind;
using analysis::Dependence;
using analysis::DependenceInfo;
using analysis::Legality;

namespace {

/// Analyzes the first for-loop of function \p Name.
DependenceInfo analyzeNest(Frontend &F, std::string_view Name,
                           unsigned MinDepth = 1) {
  ForStmt *For = F.findStmt<ForStmt>(Name);
  EXPECT_NE(For, nullptr);
  return DependenceInfo::analyze(For, MinDepth);
}

const Dependence *findDep(const DependenceInfo &DI, DepKind K) {
  for (const Dependence &D : DI.getDependences())
    if (D.Kind == K)
      return &D;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Distance/direction vectors
// ---------------------------------------------------------------------------

TEST(DependenceTest, FlowDependenceDistanceOne) {
  Frontend F(R"(
    void f() {
      int a[64];
      a[0] = 1;
      for (int i = 1; i < 64; i += 1)
        a[i] = a[i - 1] + 1;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  EXPECT_EQ(DI.getDepth(), 1u);

  const Dependence *D = findDep(DI, DepKind::Flow);
  ASSERT_NE(D, nullptr);
  ASSERT_EQ(D->Dirs.size(), 1u);
  EXPECT_EQ(D->Dirs[0], DepDir::Lt);
  ASSERT_TRUE(D->Dist[0].has_value());
  EXPECT_EQ(*D->Dist[0], 1);
  EXPECT_EQ(D->carrierLevel(), 0u);
  EXPECT_FALSE(D->isLoopIndependent());
  EXPECT_TRUE(D->isExact());
  EXPECT_NE(D->describe().find("flow"), std::string::npos);
  EXPECT_NE(D->describe().find("'a'"), std::string::npos);
}

TEST(DependenceTest, AntiDependence) {
  Frontend F(R"(
    void f() {
      int a[65];
      for (int i = 0; i < 64; i += 1)
        a[i] = a[i + 1] * 2;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());

  // Read of a[i+1] at iteration i precedes the write at iteration i+1:
  // an anti dependence of distance 1 (vectors are canonicalized to
  // lexicographic non-negativity).
  const Dependence *D = findDep(DI, DepKind::Anti);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Dirs[0], DepDir::Lt);
  ASSERT_TRUE(D->Dist[0].has_value());
  EXPECT_EQ(*D->Dist[0], 1);
  EXPECT_EQ(findDep(DI, DepKind::Flow), nullptr);
}

TEST(DependenceTest, OutputDependence) {
  Frontend F(R"(
    void f() {
      int a[65];
      for (int i = 0; i < 64; i += 1) {
        a[i] = i;
        a[i + 1] = i * 2;
      }
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());

  const Dependence *D = findDep(DI, DepKind::Output);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Dirs[0], DepDir::Lt);
  ASSERT_TRUE(D->Dist[0].has_value());
  EXPECT_EQ(*D->Dist[0], 1);
}

// A descending loop writing a[i] and reading a[i-1]: in *execution*
// order the read happens before the write of the same cell (i-1 comes
// one iteration later), so the logical-space dependence is anti, not
// flow. This is exactly the normalization reverse/interchange rely on.
TEST(DependenceTest, NegativeStepNormalizesToLogicalSpace) {
  Frontend F(R"(
    void f() {
      int a[65];
      for (int i = 64; i > 0; i -= 1)
        a[i] = a[i - 1] + 1;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  ASSERT_EQ(DI.getLoops().size(), 1u);
  EXPECT_EQ(DI.getLoops()[0].Step, -1);

  const Dependence *D = findDep(DI, DepKind::Anti);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Dirs[0], DepDir::Lt);
  ASSERT_TRUE(D->Dist[0].has_value());
  EXPECT_EQ(*D->Dist[0], 1);
  EXPECT_EQ(findDep(DI, DepKind::Flow), nullptr);
}

// Coupled subscript a[i+j]: the dependence between a[i+j] and
// a[i+j-1] has no single constant distance vector — the direction at
// the inner level depends on the outer one, so (<,*) is the sound
// summary.
TEST(DependenceTest, CoupledSubscriptsYieldDirectionVectors) {
  Frontend F(R"(
    void f() {
      int a[128];
      a[0] = 1;
      for (int i = 0; i < 16; i += 1)
        for (int j = 1; j < 16; j += 1)
          a[i + j] = a[i + j - 1] + 1;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f", 2);
  ASSERT_TRUE(DI.isAnalyzable());
  EXPECT_EQ(DI.getDepth(), 2u);

  const Dependence *D = findDep(DI, DepKind::Flow);
  ASSERT_NE(D, nullptr);
  ASSERT_EQ(D->Dirs.size(), 2u);
  // Some level must admit uncertainty or a carried direction; the exact
  // encoding may be a '*' or a per-combination record, but it must not
  // claim full independence.
  EXPECT_FALSE(D->isLoopIndependent());
}

TEST(DependenceTest, IndependentInjectiveWritesProduceNoDeps) {
  Frontend F(R"(
    void f() {
      int a[512];
      for (int i = 0; i < 16; i += 1)
        for (int j = 0; j < 32; j += 1)
          a[i * 32 + j] = i + j;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f", 2);
  ASSERT_TRUE(DI.isAnalyzable());
  EXPECT_EQ(DI.getDepth(), 2u);
  EXPECT_TRUE(DI.getDependences().empty());
  EXPECT_GE(DI.getNumAnalyzableAccesses(), 1u);
}

// ---------------------------------------------------------------------------
// Transform-legality oracle
// ---------------------------------------------------------------------------

TEST(DependenceLegalityTest, ReverseLegalOnIndependentLoop) {
  Frontend F(R"(
    void f() {
      int a[64];
      for (int i = 0; i < 64; i += 1)
        a[i] = 2 * i;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  Legality L = DI.isLegalReverse(0);
  EXPECT_TRUE(L.Legal) << L.Reason;
}

TEST(DependenceLegalityTest, ReverseIllegalUnderCarriedDependence) {
  Frontend F(R"(
    void f() {
      int a[64];
      a[0] = 1;
      for (int i = 1; i < 64; i += 1)
        a[i] = a[i - 1] + 1;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());

  Legality L = DI.isLegalReverse(0);
  EXPECT_FALSE(L.Legal);
  ASSERT_TRUE(L.Blocking.has_value());
  EXPECT_EQ(L.Blocking->Base->getName(), "a");
  EXPECT_FALSE(L.Reason.empty());
}

TEST(DependenceLegalityTest, InterchangeLegalForPureSwapSafeNest) {
  Frontend F(R"(
    void f() {
      int a[512];
      for (int i = 0; i < 16; i += 1)
        for (int j = 0; j < 32; j += 1)
          a[i * 32 + j] = a[i * 32 + j] * 2;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f", 2);
  ASSERT_TRUE(DI.isAnalyzable());
  Legality L = DI.isLegalInterchange(0, 1);
  EXPECT_TRUE(L.Legal) << L.Reason;
}

// a[i+j] = a[i+j-1]: the dependence set contains a (<,>)-style
// component (source (i,j), sink (i+1,j-1)), which interchange would
// flip lexicographically negative — must be refused.
TEST(DependenceLegalityTest, InterchangeIllegalOnSkewedDependence) {
  Frontend F(R"(
    void f() {
      int a[128];
      a[0] = 1;
      for (int i = 0; i < 16; i += 1)
        for (int j = 1; j < 16; j += 1)
          a[i + j] = a[i + j - 1] + 1;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f", 2);
  ASSERT_TRUE(DI.isAnalyzable());

  Legality Swap = DI.isLegalInterchange(0, 1);
  EXPECT_FALSE(Swap.Legal);

  const unsigned Perm[] = {1, 0};
  Legality Full = DI.isLegalInterchange(Perm);
  EXPECT_FALSE(Full.Legal);
  // The identity permutation is trivially fine.
  const unsigned Id[] = {0, 1};
  EXPECT_TRUE(DI.isLegalInterchange(Id).Legal);
}

TEST(DependenceLegalityTest, CallsBlockTheOracle) {
  Frontend F(R"(
    void body(int x);
    void f() {
      int a[64];
      for (int i = 0; i < 64; i += 1) {
        a[i] = i;
        body(i);
      }
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  EXPECT_TRUE(DI.hasCall());
  Legality L = DI.isLegalReverse(0);
  EXPECT_FALSE(L.Legal);
  EXPECT_NE(L.Reason.find("call"), std::string::npos);
}

TEST(DependenceLegalityTest, FuseLegalForForwardProducerConsumer) {
  Frontend F(R"(
    void f() {
      int a[64];
      int b[64];
      for (int i = 0; i < 64; i += 1)
        a[i] = 2 * i;
      for (int k = 0; k < 64; k += 1)
        b[k] = a[k] + 1;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  auto *Body = stmt_dyn_cast<CompoundStmt>(F.getFunction("f")->getBody());
  ASSERT_NE(Body, nullptr);
  std::vector<ForStmt *> Loops;
  for (Stmt *S : Body->body())
    if (auto *For = stmt_dyn_cast<ForStmt>(S))
      Loops.push_back(For);
  ASSERT_EQ(Loops.size(), 2u);

  DependenceInfo First = DependenceInfo::analyze(Loops[0]);
  DependenceInfo Second = DependenceInfo::analyze(Loops[1]);
  ASSERT_TRUE(First.isAnalyzable());
  ASSERT_TRUE(Second.isAnalyzable());
  Legality L = DependenceInfo::isLegalFuse(First, Second);
  EXPECT_TRUE(L.Legal) << L.Reason;
}

// The second loop reads a[k+1], written by a *later* iteration of the
// fused loop — fusing would read the new value where the original
// program read the old one.
TEST(DependenceLegalityTest, FuseIllegalOnBackwardDependence) {
  Frontend F(R"(
    void f() {
      int a[65];
      int b[64];
      for (int i = 0; i < 65; i += 1)
        a[i] = 2 * i;
      for (int k = 0; k < 64; k += 1)
        b[k] = a[k + 1];
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  auto *Body = stmt_dyn_cast<CompoundStmt>(F.getFunction("f")->getBody());
  ASSERT_NE(Body, nullptr);
  std::vector<ForStmt *> Loops;
  for (Stmt *S : Body->body())
    if (auto *For = stmt_dyn_cast<ForStmt>(S))
      Loops.push_back(For);
  ASSERT_EQ(Loops.size(), 2u);

  DependenceInfo First = DependenceInfo::analyze(Loops[0]);
  DependenceInfo Second = DependenceInfo::analyze(Loops[1]);
  Legality L = DependenceInfo::isLegalFuse(First, Second);
  EXPECT_FALSE(L.Legal);
  EXPECT_FALSE(L.Reason.empty());
  // The conflicting pair: a[i] written by the first loop, read later by
  // the second as a[k + 1].
  ASSERT_TRUE(L.Blocking.has_value());
  EXPECT_EQ(L.Blocking->Kind, DepKind::Flow);
  EXPECT_EQ(L.Blocking->Base->getName(), "a");
  EXPECT_TRUE(L.Blocking->SrcLoc.isValid());
  EXPECT_TRUE(L.Blocking->SinkLoc.isValid());
  EXPECT_NE(L.Reason.find("iteration t+1 of the first loop"),
            std::string::npos);
}

TEST(DependenceLegalityTest, DistributeLegalWithSingleStatementBody) {
  Frontend F(R"(
    void f() {
      int a[64];
      for (int i = 0; i < 64; i += 1)
        a[i] = 2 * i;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  Legality L = DI.isLegalDistribute();
  EXPECT_TRUE(L.Legal) << L.Reason;
}

// Group 2 reads what group 1 wrote in the same iteration: after
// distribution the producer loop finishes before the consumer loop
// starts, which only strengthens the ordering.
TEST(DependenceLegalityTest, DistributeLegalOnForwardGroupDependence) {
  Frontend F(R"(
    void f() {
      int a[64];
      int b[64];
      for (int i = 0; i < 64; i += 1) {
        a[i] = 2 * i;
        b[i] = a[i] + 1;
      }
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  Legality L = DI.isLegalDistribute();
  EXPECT_TRUE(L.Legal) << L.Reason;
}

// Group 1 reads a[i-1], written by group 2 in the *previous* iteration.
// Distributing would run all of group 1 before any of group 2, so every
// read past the first would miss its producer: the backward (group 2 →
// group 1) carried flow dependence makes distribution illegal.
TEST(DependenceLegalityTest, DistributeIllegalOnBackwardGroupDependence) {
  Frontend F(R"(
    void f() {
      int a[64];
      int b[64];
      a[0] = 1;
      for (int i = 1; i < 64; i += 1) {
        b[i] = a[i - 1] * 2;
        a[i] = i;
      }
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  Legality L = DI.isLegalDistribute();
  EXPECT_FALSE(L.Legal);
  ASSERT_TRUE(L.Blocking.has_value());
  EXPECT_EQ(L.Blocking->Base->getName(), "a");
  EXPECT_NE(L.Reason.find("group"), std::string::npos) << L.Reason;
}

// ---------------------------------------------------------------------------
// Parallel-conflict query (race-linter backend)
// ---------------------------------------------------------------------------

TEST(DependenceParallelTest, CarriedDependenceIsAConflict) {
  Frontend F(R"(
    void f() {
      int a[64];
      a[0] = 1;
      for (int i = 1; i < 64; i += 1)
        a[i] = a[i - 1] + 1;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  const Dependence *C = DI.findParallelConflict(1);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Base->getName(), "a");
}

TEST(DependenceParallelTest, InjectiveWritesHaveNoConflict) {
  Frontend F(R"(
    void f() {
      int a[64];
      for (int i = 0; i < 64; i += 1)
        a[i] = 2 * i;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  DependenceInfo DI = analyzeNest(F, "f");
  ASSERT_TRUE(DI.isAnalyzable());
  EXPECT_EQ(DI.findParallelConflict(1), nullptr);
}

// ---------------------------------------------------------------------------
// Sema gate: reverse / interchange refusal with dependence-citing
// diagnostics, in both pipelines
// ---------------------------------------------------------------------------

const char *IllegalReverseProgram = R"(
  void f() {
    int a[64];
    a[0] = 1;
    #pragma omp reverse
    for (int i = 1; i < 64; i += 1)
      a[i] = a[i - 1] + 1;
  }
)";

TEST(TransformGateTest, IllegalReverseRefusedWithDependenceNote) {
  Frontend F(IllegalReverseProgram);
  EXPECT_TRUE(F.hasDiag(diag::err_omp_transform_illegal_dep));
  auto Errors = F.diagsWithID(diag::err_omp_transform_illegal_dep);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].Message.find("reverse"), std::string::npos);
  EXPECT_NE(Errors[0].Message.find("'a'"), std::string::npos);
  auto Notes = F.diagsWithID(diag::note_omp_dependence_source);
  ASSERT_GE(Notes.size(), 1u);
  EXPECT_TRUE(Notes[0].Loc.isValid());
}

TEST(TransformGateTest, IllegalReverseRefusedInIRBuilderMode) {
  LangOptions LO;
  LO.OpenMPEnableIRBuilder = true;
  Frontend F(IllegalReverseProgram, LO);
  EXPECT_TRUE(F.hasDiag(diag::err_omp_transform_illegal_dep));
}

TEST(TransformGateTest, LegalReverseBuildsShadowAST) {
  Frontend F(R"(
    void f() {
      int a[64];
      #pragma omp reverse
      for (int i = 0; i < 64; i += 1)
        a[i] = a[i] + i;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  auto *Rev = F.findStmt<OMPReverseDirective>("f");
  ASSERT_NE(Rev, nullptr);
  EXPECT_NE(Rev->getTransformedStmt(), nullptr);
}

// Every iteration of both loops writes a[0], an output dependence carried
// by the loop. The full-range 64-bit loop has 2^64 - 1 iterations, more
// than the distance tests can count: its trip count is unknown, so the
// reversal is refused exactly like the 0..100 twin, in both pipelines.
TEST(TransformGateTest, FullRangeLongReverseRefusedLikeShortTwin) {
  for (bool IRBuilder : {false, true})
    for (std::string Init : {"long i = 0; i < 100",
                             "long i = -9223372036854775807 - 1; "
                             "i < 9223372036854775807"}) {
      LangOptions LO;
      LO.OpenMPEnableIRBuilder = IRBuilder;
      Frontend F("int a[4];\nvoid f() {\n#pragma omp reverse\nfor (" +
                     Init + "; i++) a[0] = a[0] + 1;\n}\n",
                 LO);
      auto Errors = F.diagsWithID(diag::err_omp_transform_illegal_dep);
      ASSERT_EQ(Errors.size(), 1u) << Init;
      EXPECT_NE(Errors[0].Message.find("dependence on 'a', direction (<)"),
                std::string::npos)
          << Errors[0].Message;
      EXPECT_TRUE(F.hasDiag(diag::note_omp_dependence_source)) << Init;
    }
}

TEST(TransformGateTest, IllegalInterchangeRefused) {
  Frontend F(R"(
    void f() {
      int a[128];
      a[0] = 1;
      #pragma omp interchange
      for (int i = 0; i < 16; i += 1)
        for (int j = 1; j < 16; j += 1)
          a[i + j] = a[i + j - 1] + 1;
    }
  )");
  EXPECT_TRUE(F.hasDiag(diag::err_omp_transform_illegal_dep));
  auto Errors = F.diagsWithID(diag::err_omp_transform_illegal_dep);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].Message.find("interchange"), std::string::npos);
}

TEST(TransformGateTest, UnanalyzableNestRefusedConservatively) {
  Frontend F(R"(
    int g(int x);
    void f() {
      int a[64];
      #pragma omp reverse
      for (int i = 0; i < 64; i += 1)
        a[i] = g(i);
    }
  )");
  EXPECT_TRUE(F.hasDiag(diag::err_omp_transform_not_analyzable));
  EXPECT_FALSE(F.hasDiag(diag::err_omp_transform_illegal_dep));
}

// ---------------------------------------------------------------------------
// Sema gate: fuse / distribute_loop legality, in both pipelines
// ---------------------------------------------------------------------------

const char *LegalFuseProgram = R"(
  void f() {
    int a[64];
    int b[64];
    #pragma omp fuse
    {
      for (int i = 0; i < 64; i += 1)
        a[i] = 2 * i;
      for (int k = 0; k < 64; k += 1)
        b[k] = a[k] + 1;
    }
  }
)";

TEST(TransformGateTest, LegalFuseBuildsShadowAST) {
  Frontend F(LegalFuseProgram);
  ASSERT_EQ(F.errors(), 0u);
  auto *Fuse = F.findStmt<OMPFuseDirective>("f");
  ASSERT_NE(Fuse, nullptr);
  EXPECT_NE(Fuse->getTransformedStmt(), nullptr);
}

TEST(TransformGateTest, LegalFuseAcceptedInIRBuilderMode) {
  LangOptions LO;
  LO.OpenMPEnableIRBuilder = true;
  Frontend F(LegalFuseProgram, LO);
  ASSERT_EQ(F.errors(), 0u);
  auto *Fuse = F.findStmt<OMPFuseDirective>("f");
  ASSERT_NE(Fuse, nullptr);
  // IRBuilder mode composes on canonical-loop handles at codegen time;
  // no shadow AST is materialized.
  EXPECT_EQ(Fuse->getTransformedStmt(), nullptr);
}

// The second member reads a[k+1], written by a later iteration of the
// fused loop: the gate refuses in both pipelines and names the dependence.
const char *BlockedFuseProgram = R"(
  void f() {
    int a[65];
    int b[64];
    #pragma omp fuse
    {
      for (int i = 0; i < 65; i += 1)
        a[i] = 2 * i;
      for (int k = 0; k < 64; k += 1)
        b[k] = a[k + 1];
    }
  }
)";

/// The blocked fuse is refused citing the flow dependence on 'a', with a
/// note at the first loop's write.
void expectFuseRefusedWithDependenceNote(const Frontend &F) {
  EXPECT_FALSE(F.hasDiag(diag::err_omp_transform_not_analyzable));
  auto Errors = F.diagsWithID(diag::err_omp_transform_illegal_dep);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].Message.find("fuse"), std::string::npos);
  EXPECT_NE(Errors[0].Message.find("flow dependence on 'a'"),
            std::string::npos);
  auto Notes = F.diagsWithID(diag::note_omp_dependence_source);
  ASSERT_EQ(Notes.size(), 1u);
  EXPECT_EQ(F.SM.getLineNumber(Notes[0].Loc), 8u);
}

TEST(TransformGateTest, DependenceBlockedFuseRefused) {
  Frontend F(BlockedFuseProgram);
  expectFuseRefusedWithDependenceNote(F);
}

TEST(TransformGateTest, DependenceBlockedFuseRefusedInIRBuilderMode) {
  LangOptions LO;
  LO.OpenMPEnableIRBuilder = true;
  Frontend F(BlockedFuseProgram, LO);
  expectFuseRefusedWithDependenceNote(F);
}

TEST(TransformGateTest, UnanalyzableFuseMemberRefusedConservatively) {
  Frontend F(R"(
    int g(int x);
    void f() {
      int a[64];
      int b[64];
      #pragma omp fuse
      {
        for (int i = 0; i < 64; i += 1)
          a[i] = g(i);
        for (int k = 0; k < 64; k += 1)
          b[k] = k;
      }
    }
  )");
  EXPECT_TRUE(F.hasDiag(diag::err_omp_transform_not_analyzable));
  EXPECT_FALSE(F.hasDiag(diag::err_omp_transform_illegal_dep));
}

// looprange(3, 2) selects loops 3..4 but only 3 siblings follow.
TEST(TransformGateTest, LooprangeOutOfRangeDiagnosed) {
  Frontend F(R"(
    void f() {
      int a[64];
      int b[64];
      int c[64];
      #pragma omp fuse looprange(3, 2)
      {
        for (int i = 0; i < 64; i += 1)
          a[i] = i;
        for (int k = 0; k < 64; k += 1)
          b[k] = k;
        for (int m = 0; m < 64; m += 1)
          c[m] = m;
      }
    }
  )");
  EXPECT_TRUE(F.hasDiag(diag::err_omp_looprange_out_of_range));
}

const char *BlockedDistributeProgram = R"(
  void f() {
    int a[64];
    int b[64];
    a[0] = 1;
    #pragma omp distribute_loop
    for (int i = 1; i < 64; i += 1) {
      b[i] = a[i - 1] * 2;
      a[i] = i;
    }
  }
)";

TEST(TransformGateTest, BackwardDependenceBlockedDistributeRefused) {
  Frontend F(BlockedDistributeProgram);
  EXPECT_TRUE(F.hasDiag(diag::err_omp_transform_illegal_dep));
  auto Errors = F.diagsWithID(diag::err_omp_transform_illegal_dep);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].Message.find("distribute"), std::string::npos);
  EXPECT_NE(Errors[0].Message.find("'a'"), std::string::npos);
  auto Notes = F.diagsWithID(diag::note_omp_dependence_source);
  ASSERT_GE(Notes.size(), 1u);
  EXPECT_TRUE(Notes[0].Loc.isValid());
}

TEST(TransformGateTest, BlockedDistributeRefusedInIRBuilderMode) {
  LangOptions LO;
  LO.OpenMPEnableIRBuilder = true;
  Frontend F(BlockedDistributeProgram, LO);
  EXPECT_TRUE(F.hasDiag(diag::err_omp_transform_illegal_dep));
}

TEST(TransformGateTest, LegalDistributeBuildsShadowAST) {
  Frontend F(R"(
    void f() {
      int a[64];
      int b[64];
      #pragma omp distribute_loop
      for (int i = 0; i < 64; i += 1) {
        a[i] = 2 * i;
        b[i] = a[i] + 1;
      }
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  auto *Dist = F.findStmt<OMPDistributeLoopDirective>("f");
  ASSERT_NE(Dist, nullptr);
  EXPECT_NE(Dist->getTransformedStmt(), nullptr);
}

// Fuse composes with a preceding transform: the first member is itself
// a tile directive, so the fuse oracle must analyze the *post-transform*
// shadow loop it produces.
TEST(TransformGateTest, FuseAcceptsTiledMember) {
  const char *Source = R"(
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
  {
    Frontend F(Source);
    EXPECT_EQ(F.errors(), 0u);
  }
  {
    LangOptions LO;
    LO.OpenMPEnableIRBuilder = true;
    Frontend F(Source, LO);
    EXPECT_EQ(F.errors(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Index-aware race linter (the ISSUE acceptance scenario)
// ---------------------------------------------------------------------------

void runLinters(Frontend &F) {
  ASSERT_NE(F.TU, nullptr);
  analysis::AnalysisManager AM(F.Ctx, F.Diags);
  analysis::registerDefaultAnalyses(AM, /*EnableLinters=*/true,
                                    /*EnableVerifier=*/false);
  AM.run(F.TU);
}

TEST(IndexAwareRaceLintTest, FlagsCarriedArrayDependence) {
  Frontend F(R"(
    void f(int x) {
      int a[64];
      a[0] = x;
      #pragma omp parallel for
      for (int i = 1; i < 64; i += 1)
        a[i] = a[i - 1] + x;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  runLinters(F);
  auto Warnings = F.diagsWithID(diag::warn_analysis_array_write_race);
  ASSERT_EQ(Warnings.size(), 1u);
  EXPECT_NE(Warnings[0].Message.find("'a'"), std::string::npos);
  EXPECT_NE(Warnings[0].Message.find("parallel for"), std::string::npos);
  EXPECT_TRUE(Warnings[0].Loc.isValid());
}

TEST(IndexAwareRaceLintTest, InjectiveWritesDoNotWarn) {
  Frontend F(R"(
    void f(int x) {
      int a[64];
      #pragma omp parallel for
      for (int i = 0; i < 64; i += 1)
        a[i] = a[i] + x;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  runLinters(F);
  EXPECT_FALSE(F.hasDiag(diag::warn_analysis_array_write_race));
  EXPECT_EQ(F.warnings(), 0u);
}

// Satellite observability: writes the analysis cannot model surface a
// remark instead of silently passing.
TEST(IndexAwareRaceLintTest, UnanalyzableWriteEmitsSkipRemark) {
  Frontend F(R"(
    void f(int x) {
      int a[64];
      int b[64];
      #pragma omp parallel for
      for (int i = 0; i < 64; i += 1)
        a[b[i]] = x;
    }
  )");
  ASSERT_EQ(F.errors(), 0u);
  runLinters(F);
  EXPECT_TRUE(F.hasDiag(diag::remark_analysis_write_skipped));
  EXPECT_FALSE(F.hasDiag(diag::warn_analysis_array_write_race));
}

} // namespace
