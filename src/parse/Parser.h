//===--- Parser.h - MiniC recursive-descent parser --------------*- C++ -*-===//
//
// The Parser layer of the paper's Fig. 1: pulls preprocessed tokens from
// the Preprocessor and pushes syntactic elements to Sema, which builds the
// AST. OpenMP directives arrive as annot_pragma_openmp token sequences
// (exactly like Clang) and are parsed by the ParseOpenMP.cpp part.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_PARSE_PARSER_H
#define MCC_PARSE_PARSER_H

#include "lex/Preprocessor.h"
#include "sema/Sema.h"

#include <deque>

namespace mcc {

class Parser {
public:
  Parser(Preprocessor &PP, Sema &Actions);

  /// Parses the whole translation unit. Returns the TU even if errors were
  /// reported (check the DiagnosticsEngine for error counts).
  TranslationUnitDecl *parseTranslationUnit();

  /// The deepest nesting the recursive-descent parser accepts. Each
  /// statement, pair of parentheses or brackets, unary operator and
  /// right-recursive assignment or conditional operand is one level, and
  /// so is each operator of a left-associative binary chain, each postfix
  /// suffix and each '*' of a declarator: those are parsed iteratively,
  /// but they build left-deep trees and pointer types that the later
  /// phases walk recursively.
  /// Deeper input is refused with err_parse_nesting_too_deep, so hostile
  /// nesting fails with a diagnostic instead of exhausting the stack of
  /// the compiler or of a daemon worker. The value is Clang's default
  /// bracket depth.
  static constexpr unsigned MaxNestingDepth = 256;

private:
  /// One level of parser recursion (see MaxNestingDepth). Past the limit
  /// the parser is cut off: the error is reported once, the rest of the
  /// input is skipped, and every enclosing level then sees the end of
  /// file and unwinds without recursing or reporting further.
  class NestingScope {
  public:
    /// Enters one level, or none when \p Enter is false (a binary chain
    /// enters one per operator through enter()).
    explicit NestingScope(Parser &P, bool Enter = true);
    ~NestingScope() { P.NestingDepth -= Levels; }
    NestingScope(const NestingScope &) = delete;
    NestingScope &operator=(const NestingScope &) = delete;

    /// One more level, left when the scope ends.
    void enter();

  private:
    Parser &P;
    unsigned Levels = 0;
  };

  // --- Token stream management ---
  void consumeToken();
  const Token &peekAhead(unsigned N); // N=1: next token after Tok
  bool tryConsume(tok::TokenKind K) {
    if (Tok.is(K)) {
      consumeToken();
      return true;
    }
    return false;
  }
  /// Consumes \p K or diagnoses "expected %0".
  bool expectAndConsume(tok::TokenKind K, const char *What);
  void skipUntil(tok::TokenKind K, bool ConsumeIt);
  void skipToEndOfPragma();

  DiagnosticsEngine &diags() { return Actions.getDiagnostics(); }

  // --- Types ---
  bool isTypeSpecifierStart() const;
  /// Parses decl-specifiers (const + builtin type keywords). Returns a
  /// null QualType on error.
  QualType parseDeclSpecifiers();
  /// Parses "*"* name "[N]"*; fills Name/NameLoc and derives the full type.
  bool parseDeclarator(QualType &Ty, std::string &Name,
                       SourceLocation &NameLoc);

  // --- Declarations ---
  Decl *parseExternalDeclaration();
  FunctionDecl *parseFunctionDefinition(QualType RetTy, std::string Name,
                                        SourceLocation NameLoc);
  Stmt *parseDeclarationStatement();

  // --- Statements ---
  Stmt *parseStatement();
  Stmt *parseCompoundStatement();
  Stmt *parseIfStatement();
  Stmt *parseWhileStatement();
  Stmt *parseDoStatement();
  Stmt *parseForStatement();
  Stmt *parseReturnStatement();

  // --- Expressions ---
  Expr *parseExpression(); // assignment-expression (no comma operator)
  Expr *parseAssignmentExpression();
  Expr *parseConditionalExpression();
  Expr *parseBinaryExpression(unsigned MinPrec);
  Expr *parseUnaryExpression();
  Expr *parsePostfixExpressionSuffix(Expr *LHS);
  Expr *parsePrimaryExpression();

  // --- OpenMP (ParseOpenMP.cpp) ---
  Stmt *parseOpenMPDeclarativeOrExecutableDirective();
  OMPClause *parseOpenMPClause(OpenMPDirectiveKind DKind);
  bool parseOpenMPVarList(std::vector<Expr *> &Vars);

  Preprocessor &PP;
  Sema &Actions;
  Token Tok;
  std::deque<Token> LookAhead;
  unsigned NestingDepth = 0;
  bool CutOff = false; // set once MaxNestingDepth was exceeded
};

} // namespace mcc

#endif // MCC_PARSE_PARSER_H
