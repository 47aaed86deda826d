//===--- Parser.cpp - MiniC recursive-descent parser -----------------------===//
#include "parse/Parser.h"

namespace mcc {

Parser::Parser(Preprocessor &PP, Sema &Actions) : PP(PP), Actions(Actions) {
  PP.lex(Tok); // prime the first token
}

Parser::NestingScope::NestingScope(Parser &P) : P(P) {
  if (++P.NestingDepth <= MaxNestingDepth || P.CutOff)
    return;
  P.diags().report(P.Tok.getLocation(), diag::err_parse_nesting_too_deep)
      << MaxNestingDepth;
  P.CutOff = true;
  while (!P.Tok.is(tok::eof))
    P.consumeToken();
}

void Parser::consumeToken() {
  if (!LookAhead.empty()) {
    Tok = LookAhead.front();
    LookAhead.pop_front();
    return;
  }
  PP.lex(Tok);
}

const Token &Parser::peekAhead(unsigned N) {
  assert(N >= 1);
  while (LookAhead.size() < N) {
    Token T;
    PP.lex(T);
    LookAhead.push_back(T);
  }
  return LookAhead[N - 1];
}

bool Parser::expectAndConsume(tok::TokenKind K, const char *What) {
  if (Tok.is(K)) {
    consumeToken();
    return true;
  }
  if (!CutOff)
    diags().report(Tok.getLocation(), diag::err_expected) << What;
  return false;
}

void Parser::skipUntil(tok::TokenKind K, bool ConsumeIt) {
  int BraceDepth = 0;
  while (!Tok.is(tok::eof)) {
    if (Tok.is(tok::l_brace))
      ++BraceDepth;
    else if (Tok.is(tok::r_brace)) {
      if (BraceDepth == 0 && K != tok::r_brace)
        return; // do not skip past the enclosing block
      --BraceDepth;
    }
    if (BraceDepth <= 0 && Tok.is(K)) {
      if (ConsumeIt)
        consumeToken();
      return;
    }
    consumeToken();
  }
}

void Parser::skipToEndOfPragma() {
  while (!Tok.is(tok::eof) && !Tok.is(tok::annot_pragma_openmp_end))
    consumeToken();
  if (Tok.is(tok::annot_pragma_openmp_end))
    consumeToken();
}

// ===------------------------------------------------------------------=== //
// Types
// ===------------------------------------------------------------------=== //

bool Parser::isTypeSpecifierStart() const {
  switch (Tok.getKind()) {
  case tok::kw_int:
  case tok::kw_long:
  case tok::kw_short:
  case tok::kw_unsigned:
  case tok::kw_signed:
  case tok::kw_float:
  case tok::kw_double:
  case tok::kw_bool:
  case tok::kw_void:
  case tok::kw_char:
  case tok::kw_const:
  case tok::kw_extern:
  case tok::kw_static:
    return true;
  case tok::identifier:
    // Built-in typedef names.
    return Tok.getText() == "size_t" || Tok.getText() == "ptrdiff_t" ||
           Tok.getText() == "int32_t" || Tok.getText() == "int64_t" ||
           Tok.getText() == "uint32_t" || Tok.getText() == "uint64_t";
  default:
    return false;
  }
}

QualType Parser::parseDeclSpecifiers() {
  ASTContext &Ctx = Actions.getASTContext();
  bool IsConst = false;
  bool IsUnsigned = false, IsSigned = false;
  bool SawLong = false, SawShort = false;
  enum class Base { None, Void, Bool, Char, Int, Float, Double } B = Base::None;
  QualType Typedef;

  bool Progress = true;
  while (Progress) {
    Progress = true;
    switch (Tok.getKind()) {
    case tok::kw_const:
      IsConst = true;
      break;
    case tok::kw_extern:
    case tok::kw_static:
      break; // storage classes accepted and ignored
    case tok::kw_unsigned:
      IsUnsigned = true;
      break;
    case tok::kw_signed:
      IsSigned = true;
      break;
    case tok::kw_long:
      SawLong = true;
      break;
    case tok::kw_short:
      SawShort = true;
      break;
    case tok::kw_void:
      B = Base::Void;
      break;
    case tok::kw_bool:
      B = Base::Bool;
      break;
    case tok::kw_char:
      B = Base::Char;
      break;
    case tok::kw_int:
      B = Base::Int;
      break;
    case tok::kw_float:
      B = Base::Float;
      break;
    case tok::kw_double:
      B = Base::Double;
      break;
    case tok::identifier:
      if (B == Base::None && !SawLong && !IsUnsigned && Typedef.isNull()) {
        std::string_view Name = Tok.getText();
        if (Name == "size_t" || Name == "uint64_t")
          Typedef = Ctx.getULongType();
        else if (Name == "ptrdiff_t" || Name == "int64_t")
          Typedef = Ctx.getLongType();
        else if (Name == "int32_t")
          Typedef = Ctx.getIntType();
        else if (Name == "uint32_t")
          Typedef = Ctx.getUIntType();
        else
          Progress = false;
      } else {
        Progress = false;
      }
      break;
    default:
      Progress = false;
      break;
    }
    if (Progress)
      consumeToken();
  }

  QualType Ty;
  if (!Typedef.isNull()) {
    Ty = Typedef;
  } else {
    switch (B) {
    case Base::Void:
      Ty = Ctx.getVoidType();
      break;
    case Base::Bool:
      Ty = Ctx.getBoolType();
      break;
    case Base::Char:
      Ty = Ctx.getCharType();
      break;
    case Base::Float:
      Ty = Ctx.getFloatType();
      break;
    case Base::Double:
      Ty = Ctx.getDoubleType();
      break;
    case Base::Int:
    case Base::None:
      if (B == Base::None && !IsUnsigned && !IsSigned && !SawLong &&
          !SawShort)
        return QualType(); // no type specifier at all
      if (SawLong)
        Ty = IsUnsigned ? Ctx.getULongType() : Ctx.getLongType();
      else
        Ty = IsUnsigned ? Ctx.getUIntType() : Ctx.getIntType();
      break;
    }
    if (B == Base::Int && SawLong)
      Ty = IsUnsigned ? Ctx.getULongType() : Ctx.getLongType();
  }
  if (IsConst)
    Ty = Ty.withConst();
  return Ty;
}

bool Parser::parseDeclarator(QualType &Ty, std::string &Name,
                             SourceLocation &NameLoc) {
  ASTContext &Ctx = Actions.getASTContext();
  while (Tok.is(tok::star)) {
    consumeToken();
    bool PtrConst = tryConsume(tok::kw_const);
    Ty = Ctx.getPointerType(Ty);
    if (PtrConst)
      Ty = Ty.withConst();
  }
  if (!Tok.is(tok::identifier)) {
    diags().report(Tok.getLocation(), diag::err_expected_identifier);
    return false;
  }
  Name = std::string(Tok.getText());
  NameLoc = Tok.getLocation();
  consumeToken();

  // Array suffixes (sizes must be integral constants).
  std::vector<std::uint64_t> Dims;
  while (Tok.is(tok::l_square)) {
    consumeToken();
    Expr *SizeExpr = parseExpression();
    if (!expectAndConsume(tok::r_square, "']'"))
      return false;
    if (!SizeExpr)
      return false;
    auto V = evaluateIntegerWithConstVars(SizeExpr);
    if (!V || *V <= 0) {
      diags().report(SizeExpr->getBeginLoc(),
                     diag::err_array_size_not_positive);
      return false;
    }
    Dims.push_back(static_cast<std::uint64_t>(*V));
  }
  for (auto It = Dims.rbegin(); It != Dims.rend(); ++It)
    Ty = Ctx.getArrayType(Ty, *It);
  return true;
}

// ===------------------------------------------------------------------=== //
// Declarations
// ===------------------------------------------------------------------=== //

TranslationUnitDecl *Parser::parseTranslationUnit() {
  std::vector<Decl *> Decls;
  while (!Tok.is(tok::eof)) {
    if (Decl *D = parseExternalDeclaration())
      Decls.push_back(D);
  }
  return Actions.ActOnEndOfTranslationUnit(std::move(Decls));
}

Decl *Parser::parseExternalDeclaration() {
  if (Tok.is(tok::semi)) {
    consumeToken();
    return nullptr;
  }
  if (Tok.is(tok::annot_pragma_openmp)) {
    // File-scope pragmas are not supported; skip with a diagnostic.
    diags().report(Tok.getLocation(), diag::err_unexpected_token)
        << "#pragma omp";
    skipToEndOfPragma();
    return nullptr;
  }

  QualType Ty = parseDeclSpecifiers();
  if (Ty.isNull()) {
    diags().report(Tok.getLocation(), diag::err_expected_type);
    consumeToken();
    return nullptr;
  }

  QualType DeclTy = Ty;
  std::string Name;
  SourceLocation NameLoc;
  if (!parseDeclarator(DeclTy, Name, NameLoc)) {
    skipUntil(tok::semi, /*ConsumeIt=*/true);
    return nullptr;
  }

  if (Tok.is(tok::l_paren))
    return parseFunctionDefinition(DeclTy, std::move(Name), NameLoc);

  // File-scope variable.
  Expr *Init = nullptr;
  if (tryConsume(tok::equal))
    Init = parseAssignmentExpression();
  VarDecl *VD =
      Actions.ActOnVarDecl(NameLoc, Name, DeclTy, Init, /*FileScope=*/true);
  expectAndConsume(tok::semi, "';'");
  return VD;
}

FunctionDecl *Parser::parseFunctionDefinition(QualType RetTy, std::string Name,
                                              SourceLocation NameLoc) {
  consumeToken(); // '('
  std::vector<ParmVarDecl *> Params;
  if (Tok.is(tok::kw_void) && peekAhead(1).is(tok::r_paren)) {
    consumeToken(); // void
  } else if (!Tok.is(tok::r_paren)) {
    while (true) {
      QualType PTy = parseDeclSpecifiers();
      if (PTy.isNull()) {
        diags().report(Tok.getLocation(), diag::err_expected_type);
        skipUntil(tok::r_paren, /*ConsumeIt=*/false);
        break;
      }
      std::string PName;
      SourceLocation PLoc;
      if (!parseDeclarator(PTy, PName, PLoc)) {
        skipUntil(tok::r_paren, /*ConsumeIt=*/false);
        break;
      }
      Params.push_back(Actions.ActOnParamDecl(PLoc, PName, PTy));
      if (!tryConsume(tok::comma))
        break;
    }
  }
  expectAndConsume(tok::r_paren, "')'");

  FunctionDecl *FD =
      Actions.ActOnFunctionDecl(NameLoc, Name, RetTy, std::move(Params));

  if (tryConsume(tok::semi))
    return FD; // prototype only

  if (!Tok.is(tok::l_brace)) {
    diags().report(Tok.getLocation(), diag::err_expected) << "'{' or ';'";
    skipUntil(tok::semi, /*ConsumeIt=*/true);
    return FD;
  }
  if (!FD) {
    // Redefinition error: still parse (and discard) the body for recovery.
    parseCompoundStatement();
    return nullptr;
  }
  Actions.ActOnStartFunctionBody(FD);
  Stmt *Body = parseCompoundStatement();
  Actions.ActOnFinishFunctionBody(FD, Body);
  return FD;
}

Stmt *Parser::parseDeclarationStatement() {
  SourceLocation Begin = Tok.getLocation();
  QualType Ty = parseDeclSpecifiers();
  if (Ty.isNull()) {
    diags().report(Tok.getLocation(), diag::err_expected_type);
    skipUntil(tok::semi, /*ConsumeIt=*/true);
    return nullptr;
  }
  std::vector<VarDecl *> Decls;
  while (true) {
    QualType DeclTy = Ty;
    std::string Name;
    SourceLocation NameLoc;
    if (!parseDeclarator(DeclTy, Name, NameLoc)) {
      skipUntil(tok::semi, /*ConsumeIt=*/true);
      return nullptr;
    }
    Expr *Init = nullptr;
    if (tryConsume(tok::equal))
      Init = parseAssignmentExpression();
    Decls.push_back(
        Actions.ActOnVarDecl(NameLoc, Name, DeclTy, Init, false));
    if (!tryConsume(tok::comma))
      break;
  }
  SourceLocation End = Tok.getLocation();
  expectAndConsume(tok::semi, "';'");
  return Actions.ActOnDeclStmt(SourceRange(Begin, End), std::move(Decls));
}

// ===------------------------------------------------------------------=== //
// Statements
// ===------------------------------------------------------------------=== //

Stmt *Parser::parseStatement() {
  NestingScope Nest(*this);
  switch (Tok.getKind()) {
  case tok::l_brace:
    return parseCompoundStatement();
  case tok::semi: {
    SourceLocation Loc = Tok.getLocation();
    consumeToken();
    return Actions.ActOnNullStmt(Loc);
  }
  case tok::kw_if:
    return parseIfStatement();
  case tok::kw_while:
    return parseWhileStatement();
  case tok::kw_do:
    return parseDoStatement();
  case tok::kw_for:
    return parseForStatement();
  case tok::kw_return:
    return parseReturnStatement();
  case tok::kw_break: {
    SourceLocation Loc = Tok.getLocation();
    consumeToken();
    expectAndConsume(tok::semi, "';'");
    return Actions.ActOnBreakStmt(Loc);
  }
  case tok::kw_continue: {
    SourceLocation Loc = Tok.getLocation();
    consumeToken();
    expectAndConsume(tok::semi, "';'");
    return Actions.ActOnContinueStmt(Loc);
  }
  case tok::annot_pragma_openmp:
    return parseOpenMPDeclarativeOrExecutableDirective();
  default:
    break;
  }

  if (isTypeSpecifierStart()) {
    // "size_t * p" could also parse as a multiplication; a declaration
    // needs a declarator after the specifiers, which parseDeclSpecifiers/
    // parseDeclarator resolve. For the built-in typedef identifiers we
    // require the next token to look like a declarator.
    if (Tok.is(tok::identifier)) {
      const Token &Next = peekAhead(1);
      if (!Next.is(tok::identifier) && !Next.is(tok::star))
        return [&]() -> Stmt * {
          Expr *E = parseExpression();
          expectAndConsume(tok::semi, "';'");
          return Actions.ActOnExprStmt(E);
        }();
    }
    return parseDeclarationStatement();
  }

  Expr *E = parseExpression();
  if (!E) {
    // Error recovery: skip to the end of the statement.
    skipUntil(tok::semi, /*ConsumeIt=*/true);
    return nullptr;
  }
  expectAndConsume(tok::semi, "';'");
  return Actions.ActOnExprStmt(E);
}

Stmt *Parser::parseCompoundStatement() {
  SourceLocation LBrace = Tok.getLocation();
  if (!expectAndConsume(tok::l_brace, "'{'"))
    return nullptr;
  Actions.pushScope();
  std::vector<Stmt *> Body;
  while (!Tok.is(tok::r_brace) && !Tok.is(tok::eof)) {
    if (Stmt *S = parseStatement())
      Body.push_back(S);
  }
  SourceLocation RBrace = Tok.getLocation();
  expectAndConsume(tok::r_brace, "'}'");
  Actions.popScope();
  return Actions.ActOnCompoundStmt(SourceRange(LBrace, RBrace),
                                   std::move(Body));
}

Stmt *Parser::parseIfStatement() {
  SourceLocation Begin = Tok.getLocation();
  consumeToken(); // if
  if (!expectAndConsume(tok::l_paren, "'('"))
    return nullptr;
  Expr *Cond = parseExpression();
  expectAndConsume(tok::r_paren, "')'");
  Stmt *Then = parseStatement();
  Stmt *Else = nullptr;
  if (tryConsume(tok::kw_else))
    Else = parseStatement();
  SourceLocation End =
      Else ? Else->getEndLoc() : (Then ? Then->getEndLoc() : Begin);
  return Actions.ActOnIfStmt(SourceRange(Begin, End), Cond, Then, Else);
}

Stmt *Parser::parseWhileStatement() {
  SourceLocation Begin = Tok.getLocation();
  consumeToken(); // while
  if (!expectAndConsume(tok::l_paren, "'('"))
    return nullptr;
  Expr *Cond = parseExpression();
  expectAndConsume(tok::r_paren, "')'");
  Actions.incrementLoopDepth();
  Stmt *Body = parseStatement();
  Actions.decrementLoopDepth();
  return Actions.ActOnWhileStmt(
      SourceRange(Begin, Body ? Body->getEndLoc() : Begin), Cond, Body);
}

Stmt *Parser::parseDoStatement() {
  SourceLocation Begin = Tok.getLocation();
  consumeToken(); // do
  Actions.incrementLoopDepth();
  Stmt *Body = parseStatement();
  Actions.decrementLoopDepth();
  if (!expectAndConsume(tok::kw_while, "'while'"))
    return nullptr;
  if (!expectAndConsume(tok::l_paren, "'('"))
    return nullptr;
  Expr *Cond = parseExpression();
  expectAndConsume(tok::r_paren, "')'");
  SourceLocation End = Tok.getLocation();
  expectAndConsume(tok::semi, "';'");
  return Actions.ActOnDoStmt(SourceRange(Begin, End), Body, Cond);
}

Stmt *Parser::parseForStatement() {
  SourceLocation Begin = Tok.getLocation();
  consumeToken(); // for
  if (!expectAndConsume(tok::l_paren, "'('"))
    return nullptr;
  Actions.pushScope(); // the init declaration lives in its own scope

  Stmt *Init = nullptr;
  if (Tok.is(tok::semi)) {
    consumeToken();
  } else if (isTypeSpecifierStart()) {
    Init = parseDeclarationStatement(); // consumes ';'
  } else {
    Expr *E = parseExpression();
    expectAndConsume(tok::semi, "';'");
    Init = Actions.ActOnExprStmt(E);
  }

  Expr *Cond = nullptr;
  if (!Tok.is(tok::semi))
    Cond = parseExpression();
  expectAndConsume(tok::semi, "';'");

  Expr *Inc = nullptr;
  if (!Tok.is(tok::r_paren))
    Inc = parseExpression();
  expectAndConsume(tok::r_paren, "')'");

  Actions.incrementLoopDepth();
  Stmt *Body = parseStatement();
  Actions.decrementLoopDepth();
  Actions.popScope();
  return Actions.ActOnForStmt(
      SourceRange(Begin, Body ? Body->getEndLoc() : Begin), Init, Cond, Inc,
      Body);
}

Stmt *Parser::parseReturnStatement() {
  SourceLocation Begin = Tok.getLocation();
  consumeToken(); // return
  Expr *Value = nullptr;
  if (!Tok.is(tok::semi))
    Value = parseExpression();
  SourceLocation End = Tok.getLocation();
  expectAndConsume(tok::semi, "';'");
  return Actions.ActOnReturnStmt(SourceRange(Begin, End), Value);
}

// ===------------------------------------------------------------------=== //
// Expressions
// ===------------------------------------------------------------------=== //

namespace {

/// Binary operator precedence (higher binds tighter); 0 = not a binary op.
unsigned getBinOpPrecedence(tok::TokenKind K) {
  switch (K) {
  case tok::pipepipe:
    return 1;
  case tok::ampamp:
    return 2;
  case tok::pipe:
    return 3;
  case tok::caret:
    return 4;
  case tok::amp:
    return 5;
  case tok::equalequal:
  case tok::exclaimequal:
    return 6;
  case tok::less:
  case tok::greater:
  case tok::lessequal:
  case tok::greaterequal:
    return 7;
  case tok::lessless:
  case tok::greatergreater:
    return 8;
  case tok::plus:
  case tok::minus:
    return 9;
  case tok::star:
  case tok::slash:
  case tok::percent:
    return 10;
  default:
    return 0;
  }
}

BinaryOperatorKind getBinOpKind(tok::TokenKind K) {
  switch (K) {
  case tok::pipepipe:
    return BinaryOperatorKind::LOr;
  case tok::ampamp:
    return BinaryOperatorKind::LAnd;
  case tok::pipe:
    return BinaryOperatorKind::Or;
  case tok::caret:
    return BinaryOperatorKind::Xor;
  case tok::amp:
    return BinaryOperatorKind::And;
  case tok::equalequal:
    return BinaryOperatorKind::EQ;
  case tok::exclaimequal:
    return BinaryOperatorKind::NE;
  case tok::less:
    return BinaryOperatorKind::LT;
  case tok::greater:
    return BinaryOperatorKind::GT;
  case tok::lessequal:
    return BinaryOperatorKind::LE;
  case tok::greaterequal:
    return BinaryOperatorKind::GE;
  case tok::lessless:
    return BinaryOperatorKind::Shl;
  case tok::greatergreater:
    return BinaryOperatorKind::Shr;
  case tok::plus:
    return BinaryOperatorKind::Add;
  case tok::minus:
    return BinaryOperatorKind::Sub;
  case tok::star:
    return BinaryOperatorKind::Mul;
  case tok::slash:
    return BinaryOperatorKind::Div;
  case tok::percent:
    return BinaryOperatorKind::Rem;
  default:
    return BinaryOperatorKind::Comma;
  }
}

std::optional<BinaryOperatorKind> getAssignOpKind(tok::TokenKind K) {
  switch (K) {
  case tok::equal:
    return BinaryOperatorKind::Assign;
  case tok::plusequal:
    return BinaryOperatorKind::AddAssign;
  case tok::minusequal:
    return BinaryOperatorKind::SubAssign;
  case tok::starequal:
    return BinaryOperatorKind::MulAssign;
  case tok::slashequal:
    return BinaryOperatorKind::DivAssign;
  case tok::percentequal:
    return BinaryOperatorKind::RemAssign;
  case tok::ampequal:
    return BinaryOperatorKind::AndAssign;
  case tok::pipeequal:
    return BinaryOperatorKind::OrAssign;
  case tok::caretequal:
    return BinaryOperatorKind::XorAssign;
  default:
    return std::nullopt;
  }
}

} // namespace

Expr *Parser::parseExpression() { return parseAssignmentExpression(); }

Expr *Parser::parseAssignmentExpression() {
  Expr *LHS = parseConditionalExpression();
  if (auto Opc = getAssignOpKind(Tok.getKind())) {
    SourceLocation OpLoc = Tok.getLocation();
    consumeToken();
    NestingScope Nest(*this);
    Expr *RHS = parseAssignmentExpression(); // right-associative
    return Actions.ActOnBinaryOp(OpLoc, *Opc, LHS, RHS);
  }
  return LHS;
}

Expr *Parser::parseConditionalExpression() {
  Expr *Cond = parseBinaryExpression(1);
  if (!Tok.is(tok::question))
    return Cond;
  SourceLocation QLoc = Tok.getLocation();
  consumeToken();
  NestingScope Nest(*this);
  Expr *TrueE = parseAssignmentExpression();
  if (!expectAndConsume(tok::colon, "':'"))
    return nullptr;
  Expr *FalseE = parseConditionalExpression();
  return Actions.ActOnConditionalOp(QLoc, Cond, TrueE, FalseE);
}

Expr *Parser::parseBinaryExpression(unsigned MinPrec) {
  Expr *LHS = parseUnaryExpression();
  while (true) {
    unsigned Prec = getBinOpPrecedence(Tok.getKind());
    if (Prec < MinPrec || Prec == 0)
      return LHS;
    BinaryOperatorKind Opc = getBinOpKind(Tok.getKind());
    SourceLocation OpLoc = Tok.getLocation();
    consumeToken();
    Expr *RHS = parseBinaryExpression(Prec + 1);
    LHS = Actions.ActOnBinaryOp(OpLoc, Opc, LHS, RHS);
    if (!LHS)
      return nullptr;
  }
}

Expr *Parser::parseUnaryExpression() {
  SourceLocation OpLoc = Tok.getLocation();
  UnaryOperatorKind Opc;
  switch (Tok.getKind()) {
  case tok::plus:
    Opc = UnaryOperatorKind::Plus;
    break;
  case tok::minus:
    Opc = UnaryOperatorKind::Minus;
    break;
  case tok::exclaim:
    Opc = UnaryOperatorKind::LNot;
    break;
  case tok::tilde:
    Opc = UnaryOperatorKind::Not;
    break;
  case tok::star:
    Opc = UnaryOperatorKind::Deref;
    break;
  case tok::amp:
    Opc = UnaryOperatorKind::AddrOf;
    break;
  case tok::plusplus:
    Opc = UnaryOperatorKind::PreInc;
    break;
  case tok::minusminus:
    Opc = UnaryOperatorKind::PreDec;
    break;
  default:
    return parsePostfixExpressionSuffix(parsePrimaryExpression());
  }
  consumeToken();
  NestingScope Nest(*this);
  return Actions.ActOnUnaryOp(OpLoc, Opc, parseUnaryExpression());
}

Expr *Parser::parsePostfixExpressionSuffix(Expr *LHS) {
  while (LHS) {
    switch (Tok.getKind()) {
    case tok::l_paren: {
      SourceLocation LParen = Tok.getLocation();
      consumeToken();
      std::vector<Expr *> Args;
      NestingScope Nest(*this);
      if (!Tok.is(tok::r_paren)) {
        while (true) {
          Args.push_back(parseAssignmentExpression());
          if (!tryConsume(tok::comma))
            break;
        }
      }
      SourceLocation RParen = Tok.getLocation();
      expectAndConsume(tok::r_paren, "')'");
      LHS = Actions.ActOnCallExpr(
          SourceRange(LHS->getBeginLoc(), RParen), LHS, std::move(Args));
      (void)LParen;
      break;
    }
    case tok::l_square: {
      consumeToken();
      NestingScope Nest(*this);
      Expr *Index = parseExpression();
      SourceLocation RSquare = Tok.getLocation();
      expectAndConsume(tok::r_square, "']'");
      LHS = Actions.ActOnArraySubscript(
          SourceRange(LHS->getBeginLoc(), RSquare), LHS, Index);
      break;
    }
    case tok::plusplus: {
      SourceLocation OpLoc = Tok.getLocation();
      consumeToken();
      LHS = Actions.ActOnUnaryOp(OpLoc, UnaryOperatorKind::PostInc, LHS);
      break;
    }
    case tok::minusminus: {
      SourceLocation OpLoc = Tok.getLocation();
      consumeToken();
      LHS = Actions.ActOnUnaryOp(OpLoc, UnaryOperatorKind::PostDec, LHS);
      break;
    }
    default:
      return LHS;
    }
  }
  return LHS;
}

Expr *Parser::parsePrimaryExpression() {
  switch (Tok.getKind()) {
  case tok::numeric_constant: {
    Token Lit = Tok;
    consumeToken();
    std::string_view Text = Lit.getText();
    bool IsFloating =
        Text.find('.') != std::string_view::npos ||
        (Text.find_first_of("eE") != std::string_view::npos &&
         !(Text.size() > 1 && Text[0] == '0' &&
           (Text[1] == 'x' || Text[1] == 'X'))) ||
        Text.back() == 'f' || Text.back() == 'F';
    return IsFloating ? Actions.ActOnFloatingLiteral(Lit)
                      : Actions.ActOnIntegerLiteral(Lit);
  }
  case tok::kw_true: {
    SourceLocation Loc = Tok.getLocation();
    consumeToken();
    return Actions.ActOnBoolLiteral(Loc, true);
  }
  case tok::kw_false: {
    SourceLocation Loc = Tok.getLocation();
    consumeToken();
    return Actions.ActOnBoolLiteral(Loc, false);
  }
  case tok::identifier: {
    SourceLocation Loc = Tok.getLocation();
    std::string Name(Tok.getText());
    consumeToken();
    return Actions.ActOnIdExpression(Loc, Name);
  }
  case tok::l_paren: {
    SourceLocation LParen = Tok.getLocation();
    consumeToken();
    NestingScope Nest(*this);
    Expr *Sub = parseExpression();
    SourceLocation RParen = Tok.getLocation();
    if (!expectAndConsume(tok::r_paren, "')'"))
      return nullptr;
    return Actions.ActOnParenExpr(SourceRange(LParen, RParen), Sub);
  }
  default:
    if (!CutOff)
      diags().report(Tok.getLocation(), diag::err_expected_expression);
    consumeToken();
    return nullptr;
  }
}

} // namespace mcc
