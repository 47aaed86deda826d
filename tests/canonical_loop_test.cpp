//===--- canonical_loop_test.cpp - OpenMP canonical loop analysis ---------===//
//
// Exercises the OpenMP 5.1 canonical-loop-form analysis (spec section
// 4.4.1) and the trip-count computation, including the overflow-safety
// property the paper discusses in Section 3.1 (INT32_MIN..INT32_MAX has
// 0xFFFFFFFE iterations, requiring an unsigned logical iteration type).
// The trip-count sweep also checks that the shared recognizer
// (matchCanonicalLoop / getLogicalTripCount) and the dependence analysis
// agree with Sema on every shape.
//
//===----------------------------------------------------------------------===//
#include "FrontendTestHelper.h"

#include "analysis/DependenceAnalysis.h"

#include <gtest/gtest.h>

using namespace mcc;
using namespace mcc::test;

namespace {

/// Analyzes the first for-loop in a function body "void f(int N) { <loop> }".
struct LoopHarness {
  Frontend F;
  OMPLoopInfo Info;
  bool Valid = false;

  explicit LoopHarness(const std::string &LoopSource)
      : F("void body(int x);\nvoid f(int N, int M) { " + LoopSource + " }") {
    if (auto *For = F.findStmt<ForStmt>("f"))
      Valid = F.Actions->checkOpenMPCanonicalLoop(
          For, OpenMPDirectiveKind::For, Info);
  }
};

TEST(CanonicalLoopTest, SimpleUpwardLoop) {
  LoopHarness H("for (int i = 0; i < N; i++) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_EQ(H.Info.IterVar->getName(), "i");
  EXPECT_FALSE(H.Info.Decreasing);
  EXPECT_FALSE(H.Info.InclusiveBound);
  EXPECT_EQ(H.Info.IVType.getAsString(), "int");
  EXPECT_EQ(H.Info.LogicalType.getAsString(), "unsigned int");
  EXPECT_FALSE(H.Info.ConstantTripCount.has_value());
}

TEST(CanonicalLoopTest, PaperExampleTripCount) {
  // The paper's running example: for (int i = 7; i < 17; i += 3) has
  // iterations i = 7, 10, 13, 16 -> trip count 4.
  LoopHarness H("for (int i = 7; i < 17; i += 3) body(i);");
  ASSERT_TRUE(H.Valid);
  ASSERT_TRUE(H.Info.ConstantTripCount.has_value());
  EXPECT_EQ(*H.Info.ConstantTripCount, 4u);
}

TEST(CanonicalLoopTest, InclusiveBound) {
  LoopHarness H("for (int i = 0; i <= 9; ++i) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_TRUE(H.Info.InclusiveBound);
  ASSERT_TRUE(H.Info.ConstantTripCount.has_value());
  EXPECT_EQ(*H.Info.ConstantTripCount, 10u);
}

TEST(CanonicalLoopTest, DownwardLoop) {
  LoopHarness H("for (int i = 10; i > 0; i--) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_TRUE(H.Info.Decreasing);
  ASSERT_TRUE(H.Info.ConstantTripCount.has_value());
  EXPECT_EQ(*H.Info.ConstantTripCount, 10u);
}

TEST(CanonicalLoopTest, DownwardInclusive) {
  LoopHarness H("for (int i = 10; i >= 1; i -= 2) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_TRUE(H.Info.Decreasing);
  ASSERT_TRUE(H.Info.ConstantTripCount.has_value());
  EXPECT_EQ(*H.Info.ConstantTripCount, 5u); // 10, 8, 6, 4, 2
}

TEST(CanonicalLoopTest, NegativeConstantStepNormalized) {
  // "i += -3" over a > comparison is a downward loop of step 3.
  LoopHarness H("for (int i = 9; i > 0; i += -3) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_TRUE(H.Info.Decreasing);
  ASSERT_TRUE(H.Info.ConstantTripCount.has_value());
  EXPECT_EQ(*H.Info.ConstantTripCount, 3u); // 9, 6, 3
}

TEST(CanonicalLoopTest, MirroredCondition) {
  // "N > i" is the mirror of "i < N".
  LoopHarness H("for (int i = 0; 10 > i; ++i) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_FALSE(H.Info.Decreasing);
  EXPECT_EQ(*H.Info.ConstantTripCount, 10u);
}

TEST(CanonicalLoopTest, NotEqualCondition) {
  LoopHarness H("for (int i = 0; i != 8; ++i) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_EQ(*H.Info.ConstantTripCount, 8u);
}

TEST(CanonicalLoopTest, AssignmentInit) {
  LoopHarness H("int i; for (i = 0; i < 10; ++i) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_EQ(H.Info.IterVar->getName(), "i");
}

TEST(CanonicalLoopTest, IncViaAssignment) {
  LoopHarness H("for (int i = 0; i < 12; i = i + 4) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_EQ(*H.Info.ConstantTripCount, 3u);
}

TEST(CanonicalLoopTest, IncViaCommutedAssignment) {
  LoopHarness H("for (int i = 0; i < 12; i = 4 + i) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_EQ(*H.Info.ConstantTripCount, 3u);
}

TEST(CanonicalLoopTest, UnsignedIV) {
  LoopHarness H("for (unsigned int i = 0; i < 16u; i += 4) body(i);");
  ASSERT_TRUE(H.Valid);
  EXPECT_EQ(*H.Info.ConstantTripCount, 4u);
  EXPECT_EQ(H.Info.LogicalType.getAsString(), "unsigned int");
}

TEST(CanonicalLoopTest, LongIVUsesWideLogicalType) {
  LoopHarness H("for (long i = 0; i < 100l; ++i) body(0);");
  ASSERT_TRUE(H.Valid);
  EXPECT_EQ(H.Info.LogicalType.getAsString(), "unsigned long");
}

// Section 3.1 of the paper: the INT32_MIN..INT32_MAX step-1 loop has a trip
// count that does not fit into a 32-bit *signed* integer — hence the
// unsigned logical iteration counter. (The paper states 0xfffffffe; the
// interval [INT32_MIN, INT32_MAX) in fact contains 0xffffffff values — an
// off-by-one in the paper's text — and either value exceeds the int32
// range, so the design argument is unchanged. See EXPERIMENTS.md.)
TEST(CanonicalLoopTest, FullRangeTripCountIsOverflowSafe) {
  LoopHarness H("for (int i = -2147483647 - 1; i < 2147483647; ++i) body(i);");
  ASSERT_TRUE(H.Valid);
  ASSERT_TRUE(H.Info.ConstantTripCount.has_value());
  EXPECT_EQ(*H.Info.ConstantTripCount, 0xFFFFFFFFu);
  EXPECT_GT(*H.Info.ConstantTripCount,
            static_cast<std::uint64_t>(0x7FFFFFFF)); // exceeds int32
}

// The 64-bit counterpart: the distance 2^64 - 1 fills the logical type, so
// rounding it up to a multiple of the step must not wrap to zero.
TEST(CanonicalLoopTest, LongFullRangeWithStepTwoDoesNotWrap) {
  LoopHarness H("for (long i = -9223372036854775807 - 1; "
                "i < 9223372036854775807; i += 2) body(0);");
  ASSERT_TRUE(H.Valid);
  ASSERT_TRUE(H.Info.ConstantTripCount.has_value());
  EXPECT_EQ(*H.Info.ConstantTripCount, std::uint64_t(1) << 63);
}

TEST(CanonicalLoopTest, ZeroTripLoop) {
  LoopHarness H("for (int i = 10; i < 5; ++i) body(i);");
  ASSERT_TRUE(H.Valid);
  ASSERT_TRUE(H.Info.ConstantTripCount.has_value());
  EXPECT_EQ(*H.Info.ConstantTripCount, 0u);
}

TEST(CanonicalLoopTest, PointerIV) {
  LoopHarness H("int a[16]; for (int *p = a; p < a + 16; p += 4) body(0);");
  ASSERT_TRUE(H.Valid);
  EXPECT_TRUE(H.Info.IVType->isPointerType());
  EXPECT_EQ(H.Info.LogicalType.getAsString(), "unsigned long");
}

// --- Rejections ---

TEST(CanonicalLoopTest, RejectsNonForStatement) {
  Frontend F("void f() { int i = 0; while (i < 10) ++i; }");
  auto *W = F.findStmt<WhileStmt>("f");
  ASSERT_NE(W, nullptr);
  OMPLoopInfo Info;
  EXPECT_FALSE(F.Actions->checkOpenMPCanonicalLoop(
      W, OpenMPDirectiveKind::For, Info));
  EXPECT_TRUE(F.hasDiag(diag::err_omp_not_for));
}

TEST(CanonicalLoopTest, RejectsMissingInit) {
  LoopHarness H("int i = 0; for (; i < 10; ++i) body(i);");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_no_init_var));
}

TEST(CanonicalLoopTest, RejectsEqualityCondition) {
  LoopHarness H("for (int i = 0; i == 10; ++i) body(i);");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_bad_cond));
}

TEST(CanonicalLoopTest, RejectsConditionNotInvolvingIV) {
  LoopHarness H("for (int i = 0; N < M; ++i) body(i);");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_bad_cond));
}

TEST(CanonicalLoopTest, RejectsMultiplicativeIncrement) {
  LoopHarness H("for (int i = 1; i < 100; i *= 2) body(i);");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_bad_incr));
}

TEST(CanonicalLoopTest, RejectsIncrementOfOtherVariable) {
  LoopHarness H("int j = 0; for (int i = 0; i < 10; ++j) body(i);");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_bad_incr));
}

TEST(CanonicalLoopTest, RejectsZeroStep) {
  LoopHarness H("for (int i = 0; i < 10; i += 0) body(i);");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_zero_step));
}

TEST(CanonicalLoopTest, RejectsWrongDirection) {
  // Condition says upward but the step is downward.
  LoopHarness H("for (int i = 0; i < 10; --i) body(i);");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_bad_incr));
}

TEST(CanonicalLoopTest, RejectsNonUnitStepWithNotEqual) {
  LoopHarness H("for (int i = 0; i != 10; i += 3) body(i);");
  EXPECT_FALSE(H.Valid);
}

TEST(CanonicalLoopTest, RejectsIVModificationInBody) {
  LoopHarness H("for (int i = 0; i < 10; ++i) { i = 3; }");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_var_modified));
}

TEST(CanonicalLoopTest, RejectsIVIncrementInBody) {
  LoopHarness H("for (int i = 0; i < 10; ++i) { i++; }");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_var_modified));
}

TEST(CanonicalLoopTest, RejectsBreakInBody) {
  LoopHarness H("for (int i = 0; i < 10; ++i) { if (i == 5) break; }");
  EXPECT_FALSE(H.Valid);
  EXPECT_TRUE(H.F.hasDiag(diag::err_omp_loop_break));
}

TEST(CanonicalLoopTest, AllowsBreakInNestedLoop) {
  LoopHarness H("for (int i = 0; i < 10; ++i) { "
                "for (int j = 0; j < 5; ++j) { if (j == 2) break; } }");
  EXPECT_TRUE(H.Valid);
}

TEST(CanonicalLoopTest, AllowsContinue) {
  LoopHarness H("for (int i = 0; i < 10; ++i) { if (i == 5) continue; "
                "body(i); }");
  EXPECT_TRUE(H.Valid);
}

TEST(CanonicalLoopTest, RejectsCallInBound) {
  Frontend F("int limit(void);\n"
             "void f() { for (int i = 0; i < limit(); ++i) ; }");
  auto *For = F.findStmt<ForStmt>("f");
  ASSERT_NE(For, nullptr);
  OMPLoopInfo Info;
  EXPECT_FALSE(F.Actions->checkOpenMPCanonicalLoop(
      For, OpenMPDirectiveKind::For, Info));
  EXPECT_TRUE(F.hasDiag(diag::err_omp_loop_bound_not_invariant));
}

// --- Loop nest analysis ---

TEST(LoopNestTest, PerfectNest) {
  Frontend F("void f(int N) { for (int i = 0; i < N; ++i) "
             "for (int j = 0; j < N; ++j) ; }");
  auto *For = F.findStmt<ForStmt>("f");
  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> Pre;
  EXPECT_TRUE(F.Actions->analyzeLoopNest(For, OpenMPDirectiveKind::For, 2,
                                         Infos, Pre));
  ASSERT_EQ(Infos.size(), 2u);
  EXPECT_EQ(Infos[0].IterVar->getName(), "i");
  EXPECT_EQ(Infos[1].IterVar->getName(), "j");
}

TEST(LoopNestTest, BracedPerfectNest) {
  Frontend F("void f(int N) { for (int i = 0; i < N; ++i) { "
             "for (int j = 0; j < N; ++j) { } } }");
  auto *For = F.findStmt<ForStmt>("f");
  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> Pre;
  EXPECT_TRUE(F.Actions->analyzeLoopNest(For, OpenMPDirectiveKind::For, 2,
                                         Infos, Pre));
  EXPECT_EQ(Infos.size(), 2u);
}

TEST(LoopNestTest, RejectsImperfectNest) {
  Frontend F("void g(int x);\n"
             "void f(int N) { for (int i = 0; i < N; ++i) { g(i); "
             "for (int j = 0; j < N; ++j) ; } }");
  auto *For = F.findStmt<ForStmt>("f");
  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> Pre;
  EXPECT_FALSE(F.Actions->analyzeLoopNest(For, OpenMPDirectiveKind::For, 2,
                                          Infos, Pre));
  EXPECT_TRUE(F.hasDiag(diag::err_omp_not_perfectly_nested));
}

TEST(LoopNestTest, RejectsTooShallowNest) {
  Frontend F("void g(int x);\n"
             "void f(int N) { for (int i = 0; i < N; ++i) g(i); }");
  auto *For = F.findStmt<ForStmt>("f");
  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> Pre;
  EXPECT_FALSE(F.Actions->analyzeLoopNest(For, OpenMPDirectiveKind::For, 2,
                                          Infos, Pre));
}

TEST(LoopNestTest, RejectsNonRectangularNest) {
  Frontend F("void f(int N) { for (int i = 0; i < N; ++i) "
             "for (int j = i; j < N; ++j) ; }");
  auto *For = F.findStmt<ForStmt>("f");
  std::vector<OMPLoopInfo> Infos;
  std::vector<Stmt *> Pre;
  EXPECT_FALSE(F.Actions->analyzeLoopNest(For, OpenMPDirectiveKind::For, 2,
                                          Infos, Pre));
  EXPECT_TRUE(F.hasDiag(diag::err_omp_nonrectangular));
}

// --- Trip count expression building (property sweep) ---

struct TripCountCase {
  int LB, UB, Step;
  const char *Rel;
  std::uint64_t Expected;
  /// A loop header in another canonical shape with the same iterations as
  /// "for (int i = LB; i Rel UB; i += Step)", which is used when null.
  const char *Shape = nullptr;
  /// Sema folds the step with evaluateInteger, which does not read const
  /// variables; the dependence analysis does.
  bool SemaFoldsStep = true;
};

class TripCountSweep : public ::testing::TestWithParam<TripCountCase> {};

BinaryOperatorKind relationFor(const std::string &Rel) {
  if (Rel == "<")
    return BinaryOperatorKind::LT;
  if (Rel == "<=")
    return BinaryOperatorKind::LE;
  return BinaryOperatorKind::NE;
}

TEST_P(TripCountSweep, ConstantFoldsToReferenceCount) {
  const TripCountCase &C = GetParam();
  std::string Loop =
      (C.Shape ? std::string(C.Shape)
               : "for (int i = " + std::to_string(C.LB) + "; i " + C.Rel +
                     " " + std::to_string(C.UB) +
                     "; i += " + std::to_string(C.Step) + ")") +
      " body(i);";
  LoopHarness H(Loop);
  ASSERT_TRUE(H.Valid) << Loop;
  if (C.SemaFoldsStep) {
    ASSERT_TRUE(H.Info.ConstantTripCount.has_value()) << Loop;
    EXPECT_EQ(*H.Info.ConstantTripCount, C.Expected) << Loop;
  } else {
    EXPECT_FALSE(H.Info.ConstantTripCount.has_value()) << Loop;
  }

  // The recognizer normalizes every shape to an upward loop with the IV
  // on the left of the relation.
  const ForStmt *For = H.Info.Loop;
  CanonicalLoopForm Form = matchCanonicalLoop(For, evaluateIntegerWithConstVars);
  ASSERT_TRUE(Form.InitMatched && Form.CondMatched && Form.IncMatched)
      << Loop;
  EXPECT_EQ(Form.Rel, relationFor(C.Rel)) << Loop;
  EXPECT_FALSE(Form.Decreasing) << Loop;
  EXPECT_EQ(Form.StepMagnitude, static_cast<std::uint64_t>(C.Step)) << Loop;
  EXPECT_EQ(getLogicalTripCount(Form, C.LB, C.UB), C.Expected) << Loop;

  // The dependence analysis shares the recognizer and the trip count.
  auto DI = analysis::DependenceInfo::analyze(H.Info.Loop);
  ASSERT_EQ(DI.getDepth(), 1u) << Loop;
  EXPECT_EQ(DI.getLoops()[0].TripCount,
            static_cast<std::int64_t>(C.Expected))
      << Loop;

  // Reference: simulate the loop.
  std::uint64_t Ref = 0;
  const std::string Rel(C.Rel);
  if (C.Step > 0)
    for (long long i = C.LB;
         Rel == "<" ? i < C.UB : Rel == "<=" ? i <= C.UB : i != C.UB;
         i += C.Step)
      ++Ref;
  EXPECT_EQ(C.Expected, Ref) << Loop;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TripCountSweep,
    ::testing::Values(
        TripCountCase{0, 10, 1, "<", 10}, TripCountCase{0, 10, 3, "<", 4},
        TripCountCase{0, 10, 1, "<=", 11}, TripCountCase{0, 10, 3, "<=", 4},
        TripCountCase{7, 17, 3, "<", 4}, TripCountCase{5, 5, 1, "<", 0},
        TripCountCase{5, 5, 1, "<=", 1}, TripCountCase{-10, 10, 4, "<", 5},
        TripCountCase{-10, -5, 2, "<", 3}, TripCountCase{0, 1, 100, "<", 1},
        TripCountCase{10, 0, 1, "<", 0},
        TripCountCase{0, 1000000, 7, "<", 142858},
        // The shapes the recognizer normalizes.
        TripCountCase{0, 10, 3, "<", 4, "for (int i = 0; 10 > i; i += 3)"},
        TripCountCase{0, 10, 3, "<", 4,
                      "for (int i = 0; i < 10; i = 3 + i)"},
        TripCountCase{0, 10, 3, "<", 4, "for (int i = 0; i < 10; i -= -3)"},
        TripCountCase{0, 10, 3, "<", 4,
                      "const int s = 3; for (int i = 0; i < 10; i += s)",
                      /*SemaFoldsStep=*/false},
        TripCountCase{0, 10, 1, "!=", 10,
                      "for (int i = 0; i != 10; i++)"}));

} // namespace
