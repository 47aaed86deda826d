//===--- parser_test.cpp - Parser + core Sema unit tests ------------------===//
#include "FrontendTestHelper.h"

#include <gtest/gtest.h>

using namespace mcc;
using namespace mcc::test;

namespace {

TEST(ParserTest, EmptyTranslationUnit) {
  Frontend F("");
  ASSERT_NE(F.TU, nullptr);
  EXPECT_EQ(F.TU->decls().size(), 0u);
  EXPECT_EQ(F.errors(), 0u);
}

TEST(ParserTest, GlobalVariable) {
  Frontend F("int x = 42;");
  ASSERT_EQ(F.TU->decls().size(), 1u);
  auto *VD = decl_dyn_cast<VarDecl>(F.TU->decls()[0]);
  ASSERT_NE(VD, nullptr);
  EXPECT_EQ(VD->getName(), "x");
  EXPECT_TRUE(VD->isFileScope());
  EXPECT_TRUE(VD->hasInit());
  EXPECT_EQ(F.errors(), 0u);
}

TEST(ParserTest, FunctionDefinition) {
  Frontend F("int add(int a, int b) { return a + b; }");
  FunctionDecl *FD = F.getFunction("add");
  ASSERT_NE(FD, nullptr);
  EXPECT_EQ(FD->getNumParams(), 2u);
  EXPECT_TRUE(FD->hasBody());
  EXPECT_EQ(FD->getReturnType().getAsString(), "int");
  EXPECT_EQ(F.errors(), 0u);
}

TEST(ParserTest, FunctionPrototypeAndDefinition) {
  Frontend F("int f(int x);\nint f(int x) { return x; }");
  EXPECT_EQ(F.errors(), 0u);
  FunctionDecl *FD = F.getFunction("f");
  ASSERT_NE(FD, nullptr);
  EXPECT_TRUE(FD->hasBody());
}

TEST(ParserTest, VoidParamList) {
  Frontend F("void f(void) { }");
  FunctionDecl *FD = F.getFunction("f");
  ASSERT_NE(FD, nullptr);
  EXPECT_EQ(FD->getNumParams(), 0u);
  EXPECT_EQ(F.errors(), 0u);
}

TEST(ParserTest, TypeSpecifiers) {
  Frontend F("unsigned int a; long b; unsigned long c; double d; float e;\n"
             "bool g; char h; size_t i; ptrdiff_t j; const int k = 1;");
  EXPECT_EQ(F.errors(), 0u);
  auto TypeOf = [&](unsigned Index) {
    return decl_cast<VarDecl>(F.TU->decls()[Index])->getType().getAsString();
  };
  EXPECT_EQ(TypeOf(0), "unsigned int");
  EXPECT_EQ(TypeOf(1), "long");
  EXPECT_EQ(TypeOf(2), "unsigned long");
  EXPECT_EQ(TypeOf(3), "double");
  EXPECT_EQ(TypeOf(4), "float");
  EXPECT_EQ(TypeOf(5), "bool");
  EXPECT_EQ(TypeOf(6), "char");
  EXPECT_EQ(TypeOf(7), "unsigned long");
  EXPECT_EQ(TypeOf(8), "long");
  EXPECT_EQ(TypeOf(9), "const int");
}

TEST(ParserTest, PointerAndArrayDeclarators) {
  Frontend F("int *p; double **q; int arr[10]; int matrix[4][8];");
  EXPECT_EQ(F.errors(), 0u);
  auto TypeOf = [&](unsigned I) {
    return decl_cast<VarDecl>(F.TU->decls()[I])->getType().getAsString();
  };
  EXPECT_EQ(TypeOf(0), "int *");
  EXPECT_EQ(TypeOf(1), "double * *");
  EXPECT_EQ(TypeOf(2), "int[10]");
  EXPECT_EQ(TypeOf(3), "int[4][8]");
}

TEST(ParserTest, ArraySizeMustBePositive) {
  Frontend F("int a[0];");
  EXPECT_TRUE(F.hasDiag(diag::err_array_size_not_positive));
}

TEST(ParserTest, MultiDeclaratorStatement) {
  Frontend F("void f() { int a = 1, b = 2, c; }");
  EXPECT_EQ(F.errors(), 0u);
  auto *DS = F.findStmt<DeclStmt>("f");
  ASSERT_NE(DS, nullptr);
  EXPECT_EQ(DS->decls().size(), 3u);
}

TEST(ParserTest, OperatorPrecedence) {
  Frontend F("int x = 2 + 3 * 4;");
  auto *VD = decl_cast<VarDecl>(F.TU->decls()[0]);
  // Must fold to 14 if precedence is right.
  auto V = evaluateInteger(VD->getInit());
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 14);
}

TEST(ParserTest, PrecedenceFullLadder) {
  Frontend F("int x = 1 | 2 ^ 3 & 4 == 4;"); // 1 | (2 ^ (3 & (4==4)))
  auto V = evaluateInteger(decl_cast<VarDecl>(F.TU->decls()[0])->getInit());
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 1 | (2 ^ (3 & 1)));
}

TEST(ParserTest, RightAssociativeAssignment) {
  Frontend F("void f() { int a; int b; a = b = 3; }");
  EXPECT_EQ(F.errors(), 0u);
}

TEST(ParserTest, ConditionalOperator) {
  Frontend F("int x = 1 < 2 ? 10 : 20;");
  auto V = evaluateInteger(decl_cast<VarDecl>(F.TU->decls()[0])->getInit());
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 10);
}

TEST(ParserTest, UnaryOperators) {
  Frontend F("int a = -5; int b = !0; int c = ~0; int d = +7;");
  EXPECT_EQ(F.errors(), 0u);
  EXPECT_EQ(*evaluateInteger(decl_cast<VarDecl>(F.TU->decls()[0])->getInit()),
            -5);
  EXPECT_EQ(*evaluateInteger(decl_cast<VarDecl>(F.TU->decls()[1])->getInit()),
            1);
  EXPECT_EQ(*evaluateInteger(decl_cast<VarDecl>(F.TU->decls()[2])->getInit()),
            -1);
}

TEST(ParserTest, AllStatementKinds) {
  Frontend F(R"(
    void f(int n) {
      ;
      int i = 0;
      if (n > 0) i = 1; else i = 2;
      while (i < n) i = i + 1;
      do { i = i - 1; } while (i > 0);
      for (int j = 0; j < n; j = j + 1) { }
      for (;;) { break; }
      for (int k = 0; k < 3; ++k) { continue; }
      return;
    }
  )");
  EXPECT_EQ(F.errors(), 0u);
  EXPECT_NE(F.findStmt<IfStmt>("f"), nullptr);
  EXPECT_NE(F.findStmt<WhileStmt>("f"), nullptr);
  EXPECT_NE(F.findStmt<DoStmt>("f"), nullptr);
  EXPECT_NE(F.findStmt<ForStmt>("f"), nullptr);
  EXPECT_NE(F.findStmt<BreakStmt>("f"), nullptr);
  EXPECT_NE(F.findStmt<ContinueStmt>("f"), nullptr);
}

TEST(ParserTest, CallsAndSubscripts) {
  Frontend F(R"(
    int g(int x) { return x; }
    void f() {
      int arr[4];
      arr[0] = g(1);
      arr[1 + 2] = g(arr[0]);
    }
  )");
  EXPECT_EQ(F.errors(), 0u);
  EXPECT_NE(F.findStmt<CallExpr>("f"), nullptr);
  EXPECT_NE(F.findStmt<ArraySubscriptExpr>("f"), nullptr);
}

TEST(ParserTest, PointerOperations) {
  Frontend F(R"(
    void f() {
      int x = 1;
      int *p = &x;
      *p = 2;
      int y = *p + 1;
      p = p + 1;
    }
  )");
  EXPECT_EQ(F.errors(), 0u);
}

TEST(ParserTest, IncrementDecrement) {
  Frontend F("void f() { int i = 0; ++i; i++; --i; i--; }");
  EXPECT_EQ(F.errors(), 0u);
}

// --- Sema diagnostics ---

TEST(SemaTest, UndeclaredIdentifier) {
  Frontend F("void f() { x = 1; }");
  EXPECT_TRUE(F.hasDiag(diag::err_undeclared_identifier));
}

TEST(SemaTest, Redefinition) {
  Frontend F("void f() { int x; int x; }");
  EXPECT_TRUE(F.hasDiag(diag::err_redefinition));
  // The note must point at the first definition.
  EXPECT_TRUE(F.hasDiag(diag::note_previous_definition));
}

TEST(SemaTest, ShadowingInNestedScopeIsAllowed) {
  Frontend F("void f() { int x = 1; { int x = 2; } }");
  EXPECT_EQ(F.errors(), 0u);
}

TEST(SemaTest, ForInitScopeIsSeparate) {
  // Two consecutive loops may both declare 'i'.
  Frontend F("void f() { for (int i = 0; i < 3; ++i) ; "
             "for (int i = 0; i < 3; ++i) ; }");
  EXPECT_EQ(F.errors(), 0u);
}

TEST(SemaTest, BreakOutsideLoop) {
  Frontend F("void f() { break; }");
  EXPECT_TRUE(F.hasDiag(diag::err_break_outside_loop));
}

TEST(SemaTest, ContinueOutsideLoop) {
  Frontend F("void f() { continue; }");
  EXPECT_TRUE(F.hasDiag(diag::err_continue_outside_loop));
}

TEST(SemaTest, AssignToConst) {
  Frontend F("void f() { const int x = 1; x = 2; }");
  EXPECT_TRUE(F.hasDiag(diag::err_not_assignable));
}

TEST(SemaTest, AssignToRValue) {
  Frontend F("void f() { int x; (x + 1) = 2; }");
  EXPECT_TRUE(F.hasDiag(diag::err_not_assignable));
}

TEST(SemaTest, CallWrongArity) {
  Frontend F("int g(int a) { return a; } void f() { g(1, 2); }");
  EXPECT_TRUE(F.hasDiag(diag::err_wrong_arg_count));
}

TEST(SemaTest, CallNonFunction) {
  Frontend F("void f() { int x; x(1); }");
  EXPECT_TRUE(F.hasDiag(diag::err_not_a_function));
}

TEST(SemaTest, DerefNonPointer) {
  Frontend F("void f() { int x; *x = 1; }");
  EXPECT_TRUE(F.hasDiag(diag::err_deref_non_pointer));
}

TEST(SemaTest, SubscriptNonPointer) {
  Frontend F("void f() { int x; x[0] = 1; }");
  EXPECT_TRUE(F.hasDiag(diag::err_subscript_non_pointer));
}

TEST(SemaTest, ReturnFromVoid) {
  Frontend F("void f() { return 1; }");
  EXPECT_TRUE(F.hasDiag(diag::err_return_type_mismatch));
}

TEST(SemaTest, ImplicitConversionsInserted) {
  Frontend F("void f() { double d = 1; int i = 2.5; }");
  EXPECT_EQ(F.errors(), 0u);
  FunctionDecl *FD = F.getFunction("f");
  unsigned Casts = countStmts<ImplicitCastExpr>(FD->getBody());
  EXPECT_GE(Casts, 2u); // IntegralToFloating + FloatingToIntegral
}

TEST(SemaTest, UsualArithmeticConversions) {
  Frontend F("void f() { int i = 1; double d = 2.0; d = i + d; }");
  EXPECT_EQ(F.errors(), 0u);
  FunctionDecl *FD = F.getFunction("f");
  struct Finder : RecursiveASTVisitor<Finder> {
    const BinaryOperator *Add = nullptr;
    bool visitStmt(Stmt *S) {
      if (auto *BO = stmt_dyn_cast<BinaryOperator>(S))
        if (BO->getOpcode() == BinaryOperatorKind::Add)
          Add = BO;
      return true;
    }
  } Fd;
  Fd.traverseStmt(FD->getBody());
  ASSERT_NE(Fd.Add, nullptr);
  EXPECT_EQ(Fd.Add->getType().getAsString(), "double");
}

TEST(SemaTest, ComparisonYieldsBool) {
  Frontend F("void f() { int a; int b; bool c = a < b; }");
  EXPECT_EQ(F.errors(), 0u);
}

TEST(SemaTest, ArrayDecaysInCall) {
  Frontend F("void g(int *p) { } void f() { int a[8]; g(a); }");
  EXPECT_EQ(F.errors(), 0u);
}

TEST(SemaTest, ArrayParamDecaysToPointer) {
  Frontend F("void g(int p[10]) { p[0] = 1; }");
  EXPECT_EQ(F.errors(), 0u);
  FunctionDecl *FD = F.getFunction("g");
  EXPECT_EQ(FD->parameters()[0]->getType().getAsString(), "int *");
}

TEST(SemaTest, PointerMinusPointer) {
  Frontend F("void f(int *a, int *b) { long d = b - a; }");
  EXPECT_EQ(F.errors(), 0u);
}

TEST(SemaTest, IncompatiblePointerAddition) {
  Frontend F("void f(int *a, int *b) { a = a + b; }");
  EXPECT_TRUE(F.hasDiag(diag::err_invalid_operands));
}

// --- Parser error recovery ---

TEST(ParserRecoveryTest, MissingSemicolonRecovers) {
  Frontend F("void f() { int a = 1 int b = 2; }");
  EXPECT_GE(F.errors(), 1u);
  EXPECT_NE(F.TU, nullptr);
}

TEST(ParserRecoveryTest, GarbageStatementDoesNotCrash) {
  Frontend F("void f() { @@@; int ok = 1; }");
  EXPECT_GE(F.errors(), 1u);
}

TEST(ParserRecoveryTest, ContinuesAfterBadFunction) {
  Frontend F("void bad( { } int good() { return 1; }");
  EXPECT_GE(F.errors(), 1u);
}

// Adversarial nesting: every recursive shape of the grammar is refused
// with one diagnostic past Parser::MaxNestingDepth instead of exhausting
// the stack, and parses cleanly at the limit.
std::string repeat(const std::string &S, unsigned N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (unsigned I = 0; I < N; ++I)
    Out += S;
  return Out;
}

/// A program nesting \p Shape \p Depth parser levels deep (the return
/// statement or the outermost block counts as one).
std::string nestedProgram(const std::string &Shape, unsigned Depth) {
  if (Shape == "parens")
    return "int main() { return " + repeat("(", Depth - 1) + "1" +
           repeat(")", Depth - 1) + "; }";
  if (Shape == "minus")
    return "int main() { return " + repeat("- ", Depth - 1) + "1; }";
  if (Shape == "subscripts")
    return "int a[4];\nint main() { return " + repeat("a[", Depth - 1) +
           "0" + repeat("]", Depth - 1) + "; }";
  if (Shape == "braces")
    return "int main() { " + repeat("{", Depth) + repeat("}", Depth) +
           " return 0; }";
  return "int main() { " + repeat("if (1) ", Depth - 1) +
         "return 1; return 0; }"; // unbraced ifs
}

class NestingLimitTest : public ::testing::TestWithParam<const char *> {};

TEST_P(NestingLimitTest, HundredThousandLevelsGiveOneDiagnostic) {
  Frontend F(nestedProgram(GetParam(), 100000));
  EXPECT_EQ(F.diagsWithID(diag::err_parse_nesting_too_deep).size(), 1u)
      << F.diagMessages();
}

TEST_P(NestingLimitTest, ParsesAtTheLimitAndNotBeyond) {
  Frontend AtLimit(nestedProgram(GetParam(), Parser::MaxNestingDepth));
  EXPECT_EQ(AtLimit.errors(), 0u) << AtLimit.diagMessages();
  Frontend Beyond(nestedProgram(GetParam(), Parser::MaxNestingDepth + 1));
  EXPECT_TRUE(Beyond.hasDiag(diag::err_parse_nesting_too_deep));
}

INSTANTIATE_TEST_SUITE_P(ParserTest, NestingLimitTest,
                         ::testing::Values("parens", "minus", "subscripts",
                                           "braces", "ifs"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
