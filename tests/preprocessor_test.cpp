//===--- preprocessor_test.cpp - Unit tests for the Preprocessor ----------===//
#include "lex/Preprocessor.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace mcc;

namespace {

/// Harness owning all the state a preprocess run needs.
struct PPHarness {
  FileManager FM;
  SourceManager SM;
  StoringDiagnosticConsumer Consumer;
  DiagnosticsEngine Diags{&Consumer};
  std::unique_ptr<Preprocessor> PP;

  explicit PPHarness(std::string_view MainSource) {
    FM.addVirtualFile("main.c", MainSource);
    PP = std::make_unique<Preprocessor>(FM, SM, Diags);
  }

  void addFile(const std::string &Name, std::string_view Text) {
    FM.addVirtualFile(Name, Text);
  }

  std::vector<Token> run() {
    EXPECT_TRUE(PP->enterMainFile("main.c"));
    std::vector<Token> Toks;
    Token Tok;
    while (true) {
      PP->lex(Tok);
      if (Tok.is(tok::eof))
        break;
      Toks.push_back(Tok);
    }
    return Toks;
  }

  static std::string spelling(const std::vector<Token> &Toks) {
    std::string S;
    for (const Token &T : Toks) {
      if (!S.empty())
        S += ' ';
      if (T.is(tok::annot_pragma_openmp))
        S += "<omp>";
      else if (T.is(tok::annot_pragma_openmp_end))
        S += "</omp>";
      else
        S += std::string(T.getText());
    }
    return S;
  }
};

TEST(PreprocessorTest, PassthroughWithoutDirectives) {
  PPHarness H("int main ( ) { return 0 ; }");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int main ( ) { return 0 ; }");
  EXPECT_EQ(H.Diags.getNumErrors(), 0u);
}

TEST(PreprocessorTest, ObjectMacroExpansion) {
  PPHarness H("#define N 100\nint x = N;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = 100 ;");
}

TEST(PreprocessorTest, MacroExpandsToMultipleTokens) {
  PPHarness H("#define EXPR (a + b)\nint x = EXPR;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = ( a + b ) ;");
}

TEST(PreprocessorTest, NestedMacroExpansion) {
  PPHarness H("#define A B\n#define B 42\nint x = A;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = 42 ;");
}

TEST(PreprocessorTest, RecursiveMacroDoesNotLoop) {
  PPHarness H("#define X X + 1\nint y = X;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int y = X + 1 ;");
}

TEST(PreprocessorTest, MutuallyRecursiveMacros) {
  PPHarness H("#define A B\n#define B A\nint x = A;");
  // A -> B -> A, where the final A is hidden; must terminate.
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = A ;");
}

TEST(PreprocessorTest, FunctionLikeMacro) {
  PPHarness H("#define SQR(x) ((x) * (x))\nint y = SQR(a + 1);");
  EXPECT_EQ(PPHarness::spelling(H.run()),
            "int y = ( ( a + 1 ) * ( a + 1 ) ) ;");
}

TEST(PreprocessorTest, FunctionLikeMacroTwoParams) {
  PPHarness H("#define MIN(a, b) ((a) < (b) ? (a) : (b))\nint m = MIN(x, y);");
  EXPECT_EQ(PPHarness::spelling(H.run()),
            "int m = ( ( x ) < ( y ) ? ( x ) : ( y ) ) ;");
}

TEST(PreprocessorTest, FunctionLikeMacroNameWithoutParens) {
  PPHarness H("#define F(x) x\nint F;");
  // Without an argument list, F is an ordinary identifier.
  EXPECT_EQ(PPHarness::spelling(H.run()), "int F ;");
}

TEST(PreprocessorTest, FunctionLikeMacroNestedParensInArg) {
  PPHarness H("#define ID(x) x\nint y = ID(f(a, b));");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int y = f ( a , b ) ;");
}

TEST(PreprocessorTest, Undef) {
  PPHarness H("#define N 1\n#undef N\nint x = N;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = N ;");
}

TEST(PreprocessorTest, RedefinitionWarns) {
  PPHarness H("#define N 1\n#define N 2\nint x = N;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = 2 ;");
  EXPECT_EQ(H.Diags.getNumWarnings(), 1u);
}

TEST(PreprocessorTest, Ifdef) {
  PPHarness H("#define YES 1\n#ifdef YES\nint a;\n#endif\n#ifdef NO\nint "
              "b;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int a ;");
}

TEST(PreprocessorTest, IfndefElse) {
  PPHarness H("#ifndef X\nint a;\n#else\nint b;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int a ;");
}

TEST(PreprocessorTest, ElseBranchTaken) {
  PPHarness H("#ifdef X\nint a;\n#else\nint b;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int b ;");
}

TEST(PreprocessorTest, NestedConditionals) {
  PPHarness H("#define A 1\n"
              "#ifdef A\n"
              "#ifdef B\nint x;\n#else\nint y;\n#endif\n"
              "#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int y ;");
}

TEST(PreprocessorTest, SkippedRegionsIgnoreDirectives) {
  PPHarness H("#ifdef NOPE\n#define N 1\n#endif\nint x = N;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = N ;");
}

TEST(PreprocessorTest, IfWithConstantExpression) {
  PPHarness H("#if 2 + 2 == 4\nint a;\n#endif\n#if 1 > 2\nint b;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int a ;");
}

TEST(PreprocessorTest, IfDefined) {
  PPHarness H("#define F 1\n#if defined(F) && !defined(G)\nint a;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int a ;");
}

TEST(PreprocessorTest, IfWithMacroValue) {
  PPHarness H("#define LEVEL 3\n#if LEVEL >= 2\nint a;\n#endif\n"
              "#if LEVEL >= 5\nint b;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int a ;");
}

TEST(PreprocessorTest, ElifChain) {
  PPHarness H("#define V 2\n"
              "#if V == 1\nint a;\n#elif V == 2\nint b;\n#elif V == "
              "3\nint c;\n#else\nint d;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int b ;");
}

// Hostile #if expressions fail with one error instead of crashing: the
// condition is false and the rest of the line is skipped.
std::vector<diag::DiagID> diagIDs(const PPHarness &H) {
  std::vector<diag::DiagID> IDs;
  for (const Diagnostic &D : H.Consumer.getDiagnostics())
    IDs.push_back(D.ID);
  return IDs;
}

std::string ifNested(const std::string &Open, const std::string &Close,
                     unsigned Depth) {
  std::string S = "#if ";
  for (unsigned I = 0; I < Depth; ++I)
    S += Open;
  S += "1";
  for (unsigned I = 0; I < Depth; ++I)
    S += Close;
  return S + "\nint a;\n#endif\nint b;\n";
}

TEST(PreprocessorTest, IfHundredThousandParensGiveOneDiagnostic) {
  PPHarness H(ifNested("(", ")", 100000));
  EXPECT_EQ(PPHarness::spelling(H.run()), "int b ;");
  EXPECT_EQ(diagIDs(H),
            std::vector<diag::DiagID>{diag::err_parse_nesting_too_deep});
}

TEST(PreprocessorTest, IfNestingLimitIsTheParsers) {
  // Spaced so that "- -" does not lex as "--".
  for (const char *Unary : {"(", "- ", "!", "+ "}) {
    std::string Close = Unary[0] == '(' ? ")" : "";
    PPHarness AtLimit(
        ifNested(Unary, Close, Preprocessor::MaxNestingDepth));
    AtLimit.run();
    EXPECT_EQ(AtLimit.Diags.getNumErrors(), 0u) << Unary;
    PPHarness Beyond(
        ifNested(Unary, Close, Preprocessor::MaxNestingDepth + 1));
    Beyond.run();
    EXPECT_EQ(diagIDs(Beyond),
              std::vector<diag::DiagID>{diag::err_parse_nesting_too_deep})
        << Unary;
  }
}

TEST(PreprocessorTest, IfLiteralTooLargeDiagnosed) {
  PPHarness H("#if 99999999999999999999\nint a;\n#endif\n"
              "#define BIG 0x10000000000000000\n#if BIG\nint b;\n#endif\n"
              "#if 9223372036854775807 == 0x7fffffffffffffff\nint c;\n"
              "#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int c ;");
  EXPECT_EQ(diagIDs(H),
            (std::vector<diag::DiagID>{diag::err_pp_invalid_integer,
                                       diag::err_pp_invalid_integer}));
}

TEST(PreprocessorTest, IfMinDividedByMinusOneDiagnosed) {
  PPHarness H("#if (-9223372036854775807 - 1) / -1\nint a;\n#endif\n"
              "int b;\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int b ;");
  EXPECT_EQ(diagIDs(H),
            std::vector<diag::DiagID>{diag::err_pp_expr_overflow});
}

TEST(PreprocessorTest, IfMinRemainderMinusOneDiagnosed) {
  PPHarness H("#if (-9223372036854775807 - 1) % -1\nint a;\n#endif\n"
              "int b;\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int b ;");
  EXPECT_EQ(diagIDs(H),
            std::vector<diag::DiagID>{diag::err_pp_expr_overflow});
}

TEST(PreprocessorTest, IfArithmeticOverflowDiagnosed) {
  for (const char *Expr :
       {"-(-9223372036854775807 - 1)", "9223372036854775807 + 1",
        "-9223372036854775807 - 2", "3037000500 * 3037000500"}) {
    PPHarness H(std::string("#if ") + Expr + "\nint a;\n#endif\n");
    EXPECT_EQ(PPHarness::spelling(H.run()), "") << Expr;
    EXPECT_EQ(diagIDs(H),
              std::vector<diag::DiagID>{diag::err_pp_expr_overflow})
        << Expr;
  }
  // In range, including the extremes and division by zero (0).
  PPHarness H("#if -9223372036854775807 - 1 < 0 && "
              "(-9223372036854775807 - 1) / 1 < 0 && -7 / 2 == -3 && "
              "-7 % 2 == -1 && 7 / 0 == 0 && 3037000499 * 3037000499 > 0\n"
              "int a;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int a ;");
  EXPECT_EQ(H.Diags.getNumErrors(), 0u);
}

TEST(PreprocessorTest, UnterminatedConditionalDiagnosed) {
  PPHarness H("#ifdef X\nint a;\n");
  H.run();
  EXPECT_GE(H.Diags.getNumErrors(), 1u);
}

TEST(PreprocessorTest, ElseWithoutIf) {
  PPHarness H("#else\n");
  H.run();
  EXPECT_EQ(H.Diags.getNumErrors(), 1u);
}

TEST(PreprocessorTest, Include) {
  PPHarness H("#include \"decl.h\"\nint y = x;");
  H.addFile("decl.h", "int x = 1;\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = 1 ; int y = x ;");
}

TEST(PreprocessorTest, NestedInclude) {
  PPHarness H("#include \"a.h\"\nint end;");
  H.addFile("a.h", "#include \"b.h\"\nint a;\n");
  H.addFile("b.h", "int b;\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int b ; int a ; int end ;");
}

TEST(PreprocessorTest, IncludeNotFound) {
  PPHarness H("#include \"missing.h\"\n");
  H.run();
  EXPECT_EQ(H.Diags.getNumErrors(), 1u);
}

TEST(PreprocessorTest, IncludeGuardIdiom) {
  PPHarness H("#include \"g.h\"\n#include \"g.h\"\nint z;");
  H.addFile("g.h", "#ifndef G_H\n#define G_H\nint g;\n#endif\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int g ; int z ;");
}

TEST(PreprocessorTest, MacroDefinedInInclude) {
  PPHarness H("#include \"n.h\"\nint x = N;");
  H.addFile("n.h", "#define N 7\n");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = 7 ;");
}

TEST(PreprocessorTest, OpenMPPragmaAnnotation) {
  PPHarness H("#pragma omp parallel for\nfor (;;) ;");
  std::vector<Token> Toks = H.run();
  EXPECT_EQ(PPHarness::spelling(Toks),
            "<omp> parallel for </omp> for ( ; ; ) ;");
  ASSERT_GE(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].getKind(), tok::annot_pragma_openmp);
  EXPECT_EQ(Toks[1].getKind(), tok::identifier);
  EXPECT_EQ(Toks[2].getKind(), tok::kw_for); // 'for' keyword inside pragma
  EXPECT_EQ(Toks[3].getKind(), tok::annot_pragma_openmp_end);
}

TEST(PreprocessorTest, OpenMPPragmaMacroExpansion) {
  // OpenMP 5.1 requires macro expansion inside pragma directives.
  PPHarness H("#define TILE 32\n#pragma omp tile sizes(TILE, TILE)\n");
  EXPECT_EQ(PPHarness::spelling(H.run()),
            "<omp> tile sizes ( 32 , 32 ) </omp>");
}

TEST(PreprocessorTest, NonOmpPragmaDiscarded) {
  PPHarness H("#pragma once\nint x;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x ;");
}

TEST(PreprocessorTest, OpenMPDisabled) {
  PPHarness H("#pragma omp parallel for\nint x;");
  H.PP->setOpenMPEnabled(false);
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x ;");
}

TEST(PreprocessorTest, PragmaInsideSkippedRegion) {
  PPHarness H("#ifdef NO\n#pragma omp parallel\n#endif\nint x;");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x ;");
}

TEST(PreprocessorTest, MetadirectiveStylePerTargetSelection) {
  // The paper's motivation: choose different optimizations per hardware
  // using the preprocessor while keeping the algorithm source identical.
  const char *Source = "#if TARGET == 1\n"
                       "#pragma omp unroll partial(4)\n"
                       "#else\n"
                       "#pragma omp tile sizes(16)\n"
                       "#endif\n"
                       "for (;;) ;";
  {
    PPHarness H(Source);
    H.PP->defineCommandLineMacro("TARGET", "1");
    EXPECT_EQ(PPHarness::spelling(H.run()),
              "<omp> unroll partial ( 4 ) </omp> for ( ; ; ) ;");
  }
  {
    PPHarness H(Source);
    H.PP->defineCommandLineMacro("TARGET", "2");
    EXPECT_EQ(PPHarness::spelling(H.run()),
              "<omp> tile sizes ( 16 ) </omp> for ( ; ; ) ;");
  }
}

TEST(PreprocessorTest, CommandLineMacro) {
  PPHarness H("int x = VALUE;");
  H.PP->defineCommandLineMacro("VALUE", "123");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int x = 123 ;");
}

TEST(PreprocessorTest, IncludeSearchPath) {
  PPHarness H("#include <lib.h>\n");
  H.addFile("sys/lib.h", "int fromlib;\n");
  H.PP->addIncludeDir("sys");
  EXPECT_EQ(PPHarness::spelling(H.run()), "int fromlib ;");
}

} // namespace
