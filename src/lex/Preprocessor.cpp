#include "lex/Preprocessor.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace mcc {

bool Preprocessor::enterMainFile(const std::string &Path) {
  const MemoryBuffer *Buf = FM.getBuffer(Path);
  if (!Buf)
    return false;
  enterBuffer(SM.createFileID(Buf));
  return true;
}

void Preprocessor::enterBuffer(FileID FID) {
  IncludeStack.push_back(std::make_unique<Lexer>(FID, SM, Diags));
}

void Preprocessor::enterTokenStream(std::span<const Token> Toks) {
  assert(IncludeStack.empty() && Pending.empty() &&
         "replay cannot be mixed with live lexing");
  ReplayCur = Toks.data();
  ReplayEnd = Toks.data() + Toks.size();
}

void Preprocessor::defineCommandLineMacro(const std::string &Name,
                                          const std::string &Value) {
  // Lex the replacement text out of a synthetic buffer that the
  // SourceManager keeps alive.
  OwnedStrings.push_back(std::make_unique<std::string>(Value));
  auto Buf = MemoryBuffer::getMemBuffer(*OwnedStrings.back(),
                                        "<command line>");
  const MemoryBuffer *Raw = Buf.get();
  OwnedBuffers.push_back(std::move(Buf));
  FileID FID = SM.createFileID(Raw);
  Lexer L(FID, SM, Diags);
  MacroInfo MI;
  Token Tok;
  while (L.lex(Tok))
    MI.Body.push_back(Tok);
  Macros[Name] = std::move(MI);
}

bool Preprocessor::lexRawToken(Token &Tok) {
  while (!IncludeStack.empty()) {
    if (currentLexer().lex(Tok))
      return true;
    // EOF of this buffer.
    if (IncludeStack.size() == 1)
      return false; // caller emits tok::eof
    IncludeStack.pop_back();
  }
  return false;
}

void Preprocessor::lex(Token &Result) {
  if (ReplayCur) {
    // Replaying a cached, fully preprocessed stream: no directives, no
    // macro expansion, no include stack — just the recorded tokens.
    if (ReplayCur != ReplayEnd && !ReplayCur->is(tok::eof)) {
      Result = *ReplayCur++;
      return;
    }
    Result.startToken();
    Result.setKind(tok::eof);
    return;
  }
  while (true) {
    // Drain pending (macro-expanded / pragma-annotation) tokens first.
    if (!Pending.empty()) {
      PendingToken PT = Pending.front();
      Pending.pop_front();
      if (PT.Tok.is(tok::identifier)) {
        std::string Name(PT.Tok.getText());
        bool Hidden = PT.HideSet && PT.HideSet->count(Name);
        if (!Hidden && Macros.count(Name)) {
          if (expandMacro(PT.Tok, PT.HideSet))
            continue;
        }
      }
      Result = PT.Tok;
      return;
    }

    if (IncludeStack.empty() || ReachedEOF) {
      Result.startToken();
      Result.setKind(tok::eof);
      return;
    }

    Token Tok;
    if (!lexRawToken(Tok)) {
      ReachedEOF = true;
      if (!Conditionals.empty())
        Diags.report(SourceLocation(), diag::err_pp_unterminated_conditional);
      Result = Tok; // tok::eof
      return;
    }

    if (Tok.is(tok::hash) && Tok.isAtStartOfLine()) {
      handleDirective(Tok);
      continue;
    }

    if (isSkipping())
      continue;

    if (Tok.is(tok::identifier)) {
      std::string Name(Tok.getText());
      if (Macros.count(Name)) {
        if (expandMacro(Tok, nullptr))
          continue;
      }
    }

    Result = Tok;
    return;
  }
}

std::vector<Token> Preprocessor::readDirectiveTokens() {
  std::vector<Token> Toks;
  Token Tok;
  while (currentLexer().lex(Tok) && !Tok.is(tok::eod))
    Toks.push_back(Tok);
  return Toks;
}

void Preprocessor::skipToEod() {
  Token Tok;
  while (currentLexer().lex(Tok) && !Tok.is(tok::eod))
    ;
}

void Preprocessor::handleDirective(const Token &HashTok) {
  Lexer &L = currentLexer();
  L.setParsingPreprocessorDirective(true);

  Token DirTok;
  L.lex(DirTok);

  if (DirTok.is(tok::eod)) {
    // Null directive "#" alone on a line: valid, ignored.
    L.setParsingPreprocessorDirective(false);
    return;
  }

  std::string_view Dir = DirTok.getText();

  // Directives that must be processed even while skipping (to track
  // conditional nesting).
  if (Dir == "ifdef" || Dir == "ifndef" || Dir == "if") {
    if (Dir == "if")
      handleIf(true, /*IsIfdef=*/false);
    else
      handleIf(Dir == "ifdef", /*IsIfdef=*/true);
  } else if (Dir == "elif") {
    handleElif();
  } else if (Dir == "else") {
    handleElse(DirTok);
  } else if (Dir == "endif") {
    handleEndif(DirTok);
  } else if (isSkipping()) {
    skipToEod();
  } else if (Dir == "define") {
    handleDefine();
  } else if (Dir == "undef") {
    handleUndef();
  } else if (Dir == "include") {
    handleInclude(DirTok);
  } else if (Dir == "pragma") {
    handlePragma(DirTok);
  } else if (Dir == "error") {
    skipToEod();
    Diags.report(DirTok.getLocation(), diag::err_pp_unknown_directive)
        << "error (user #error directive)";
  } else {
    skipToEod();
    Diags.report(DirTok.getLocation(), diag::err_pp_unknown_directive)
        << std::string(Dir);
  }

  L.setParsingPreprocessorDirective(false);
  (void)HashTok;
}

void Preprocessor::handleDefine() {
  Lexer &L = currentLexer();
  Token NameTok;
  L.lex(NameTok);
  if (!NameTok.is(tok::identifier) &&
      !(NameTok.getKind() >= tok::kw_int)) { // keywords may be #defined too
    Diags.report(NameTok.getLocation(), diag::err_pp_expected_macro_name);
    skipToEod();
    return;
  }
  std::string Name(NameTok.getText());

  MacroInfo MI;
  MI.DefLoc = NameTok.getLocation();

  Token Tok;
  L.lex(Tok);
  // "NAME(" with no space => function-like macro.
  if (Tok.is(tok::l_paren) && !Tok.hasLeadingSpace()) {
    MI.IsFunctionLike = true;
    bool First = true;
    while (true) {
      L.lex(Tok);
      if (Tok.is(tok::r_paren) && First)
        break;
      if (!Tok.is(tok::identifier)) {
        Diags.report(Tok.getLocation(), diag::err_pp_expected_macro_name);
        skipToEod();
        return;
      }
      MI.Params.emplace_back(Tok.getText());
      First = false;
      L.lex(Tok);
      if (Tok.is(tok::r_paren))
        break;
      if (!Tok.is(tok::comma)) {
        Diags.report(Tok.getLocation(), diag::err_pp_expected_macro_name);
        skipToEod();
        return;
      }
    }
    L.lex(Tok);
  }

  while (!Tok.is(tok::eod)) {
    MI.Body.push_back(Tok);
    L.lex(Tok);
  }

  auto It = Macros.find(Name);
  if (It != Macros.end()) {
    Diags.report(MI.DefLoc, diag::warn_pp_macro_redefined) << Name;
    Diags.report(It->second.DefLoc, diag::note_pp_prev_definition);
  }
  Macros[Name] = std::move(MI);
}

void Preprocessor::handleUndef() {
  Lexer &L = currentLexer();
  Token NameTok;
  L.lex(NameTok);
  if (!NameTok.is(tok::identifier)) {
    Diags.report(NameTok.getLocation(), diag::err_pp_expected_macro_name);
    skipToEod();
    return;
  }
  Macros.erase(std::string(NameTok.getText()));
  skipToEod();
}

void Preprocessor::handleInclude(const Token &DirTok) {
  Lexer &L = currentLexer();
  Token Tok;
  L.lex(Tok);

  std::string Filename;
  if (Tok.is(tok::string_literal)) {
    std::string_view Text = Tok.getText();
    Filename = std::string(Text.substr(1, Text.size() - 2));
  } else if (Tok.is(tok::less)) {
    // <...> includes: accumulate raw token text until '>'.
    while (true) {
      L.lex(Tok);
      if (Tok.is(tok::greater) || Tok.is(tok::eod))
        break;
      Filename += std::string(Tok.getText());
    }
    if (!Tok.is(tok::greater)) {
      Diags.report(DirTok.getLocation(), diag::err_pp_expected_filename);
      return;
    }
  } else {
    Diags.report(Tok.getLocation(), diag::err_pp_expected_filename);
    skipToEod();
    return;
  }
  skipToEod();

  if (IncludeStack.size() >= MaxIncludeDepth) {
    Diags.report(DirTok.getLocation(), diag::err_pp_include_depth);
    return;
  }

  const MemoryBuffer *Buf = FM.getBuffer(Filename);
  if (!Buf) {
    for (const std::string &Dir : IncludeDirs) {
      Buf = FM.getBuffer(Dir + "/" + Filename);
      if (Buf)
        break;
    }
  }
  if (!Buf) {
    Diags.report(DirTok.getLocation(), diag::err_pp_file_not_found)
        << Filename;
    return;
  }
  // The directive-mode flag belongs to the *including* lexer; make sure the
  // included file starts in normal mode.
  currentLexer().setParsingPreprocessorDirective(false);
  enterBuffer(SM.createFileID(Buf));
}

void Preprocessor::handleIf(bool Sense, bool IsIfdef) {
  bool WasActive = !isSkipping();

  bool CondValue = false;
  if (IsIfdef) {
    Lexer &L = currentLexer();
    Token NameTok;
    L.lex(NameTok);
    if (!NameTok.is(tok::identifier)) {
      Diags.report(NameTok.getLocation(), diag::err_pp_expected_macro_name);
    } else {
      bool Defined = Macros.count(std::string(NameTok.getText())) != 0;
      CondValue = Sense ? Defined : !Defined;
    }
    skipToEod();
  } else {
    std::vector<Token> Toks = readDirectiveTokens();
    CondValue = WasActive && evaluateIfCondition(std::move(Toks));
  }

  ConditionalInfo CI;
  CI.ParentActive = WasActive;
  CI.Active = WasActive && CondValue;
  CI.TakenBranch = CI.Active;
  Conditionals.push_back(CI);
}

void Preprocessor::handleElif() {
  std::vector<Token> Toks = readDirectiveTokens();
  if (Conditionals.empty()) {
    Diags.report(SourceLocation(), diag::err_pp_else_without_if);
    return;
  }
  ConditionalInfo &CI = Conditionals.back();
  if (CI.ParentActive && !CI.TakenBranch) {
    CI.Active = evaluateIfCondition(std::move(Toks));
    CI.TakenBranch = CI.Active;
  } else {
    CI.Active = false;
  }
}

void Preprocessor::handleElse(const Token &DirTok) {
  skipToEod();
  if (Conditionals.empty()) {
    Diags.report(DirTok.getLocation(), diag::err_pp_else_without_if);
    return;
  }
  ConditionalInfo &CI = Conditionals.back();
  CI.Active = CI.ParentActive && !CI.TakenBranch && !CI.InElse;
  CI.TakenBranch = CI.TakenBranch || CI.Active;
  CI.InElse = true;
}

void Preprocessor::handleEndif(const Token &DirTok) {
  skipToEod();
  if (Conditionals.empty()) {
    Diags.report(DirTok.getLocation(), diag::err_pp_endif_without_if);
    return;
  }
  Conditionals.pop_back();
}

void Preprocessor::handlePragma(const Token &DirTok) {
  std::vector<Token> Toks = readDirectiveTokens();

  if (isSkipping())
    return;

  bool IsOpenMP = !Toks.empty() && Toks.front().is(tok::identifier) &&
                  Toks.front().getText() == "omp";
  if (!IsOpenMP || !OpenMPEnabled)
    return; // Unknown pragmas (and OpenMP with -fno-openmp) are discarded.

  // Fold into: annot_pragma_openmp <tokens after 'omp'> annot_pragma_openmp_end
  Token Begin;
  Begin.startToken();
  Begin.setKind(tok::annot_pragma_openmp);
  Begin.setLocation(Toks.front().getLocation());

  Token End;
  End.startToken();
  End.setKind(tok::annot_pragma_openmp_end);
  End.setLocation(Toks.back().getLocation());

  Pending.push_back({End, nullptr});
  for (auto It = Toks.rbegin(); It != Toks.rend() - 1; ++It)
    Pending.push_front({*It, nullptr});
  Pending.push_front({Begin, nullptr});
  (void)DirTok;
}

bool Preprocessor::expandMacro(
    const Token &NameTok, std::shared_ptr<std::set<std::string>> HideSet) {
  std::string Name(NameTok.getText());
  const MacroInfo &MI = Macros.at(Name);

  std::vector<std::vector<Token>> Args;
  if (MI.IsFunctionLike) {
    // Peek: the next token must be '('; otherwise this is not an invocation.
    Token Next;
    bool FromPending = false;
    PendingToken SavedPending;
    if (!Pending.empty()) {
      SavedPending = Pending.front();
      Next = SavedPending.Tok;
      FromPending = true;
    } else {
      if (!lexRawToken(Next)) {
        ReachedEOF = true;
        return false;
      }
    }
    if (!Next.is(tok::l_paren)) {
      // Not an invocation: re-queue what we peeked and emit the identifier.
      if (!FromPending)
        Pending.push_front({Next, nullptr});
      return false;
    }
    if (FromPending)
      Pending.pop_front();

    // Collect arguments, balancing parentheses.
    std::vector<Token> Current;
    int Depth = 1;
    while (Depth > 0) {
      Token Tok;
      if (!Pending.empty()) {
        Tok = Pending.front().Tok;
        Pending.pop_front();
      } else if (!lexRawToken(Tok)) {
        ReachedEOF = true;
        return false;
      }
      if (Tok.is(tok::l_paren))
        ++Depth;
      else if (Tok.is(tok::r_paren)) {
        --Depth;
        if (Depth == 0)
          break;
      } else if (Tok.is(tok::comma) && Depth == 1) {
        Args.push_back(std::move(Current));
        Current.clear();
        continue;
      }
      Current.push_back(Tok);
    }
    if (!Current.empty() || !Args.empty() || !MI.Params.empty())
      Args.push_back(std::move(Current));
  }

  auto NewHideSet = std::make_shared<std::set<std::string>>();
  if (HideSet)
    *NewHideSet = *HideSet;
  NewHideSet->insert(Name);

  // Substitute parameters and queue the replacement tokens.
  std::vector<PendingToken> Replacement;
  for (const Token &BodyTok : MI.Body) {
    if (MI.IsFunctionLike && BodyTok.is(tok::identifier)) {
      auto PIt = std::find(MI.Params.begin(), MI.Params.end(),
                           std::string(BodyTok.getText()));
      if (PIt != MI.Params.end()) {
        std::size_t Index =
            static_cast<std::size_t>(PIt - MI.Params.begin());
        if (Index < Args.size())
          for (const Token &ArgTok : Args[Index])
            Replacement.push_back({ArgTok, HideSet});
        continue;
      }
    }
    Replacement.push_back({BodyTok, NewHideSet});
  }
  for (auto It = Replacement.rbegin(); It != Replacement.rend(); ++It)
    Pending.push_front(*It);
  return true;
}

namespace {
/// Minimal recursive-descent evaluator for #if constant expressions.
class IfExprEvaluator {
public:
  IfExprEvaluator(const std::vector<Token> &Toks,
                  const std::map<std::string, MacroInfo> &Macros,
                  DiagnosticsEngine &Diags)
      : Toks(Toks), Macros(Macros), Diags(Diags) {
    EofTok.startToken();
    EofTok.setKind(tok::eof);
  }

  long long evaluate() { return parseLogicalOr(); }

private:
  const Token &peek() const {
    return Pos < Toks.size() ? Toks[Pos] : EofTok;
  }
  Token next() {
    Token T = peek();
    ++Pos;
    return T;
  }
  bool accept(tok::TokenKind K) {
    if (peek().is(K)) {
      ++Pos;
      return true;
    }
    return false;
  }

  /// Reports error \p ID at \p Loc and cuts evaluation off: the rest of
  /// the line is skipped, so every pending level unwinds without
  /// recursing further. The condition then evaluates to 0.
  DiagnosticBuilder fail(SourceLocation Loc, diag::DiagID ID) {
    Pos = Toks.size();
    return Diags.report(Loc, ID);
  }

  /// The value of integer literal \p T (suffixes ignored), or 0 with an
  /// error when it is not an integer that fits in a long long.
  long long literalValue(const Token &T) {
    std::string Text(T.getText());
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(Text.c_str(), &End, 0);
    if (errno == ERANGE || End == Text.c_str()) {
      fail(T.getLocation(), diag::err_pp_invalid_integer) << Text;
      return 0;
    }
    return V;
  }

  /// \p L \p Op \p R for the arithmetic operators (unary minus is
  /// 0 - R). An overflowing result, which C leaves undefined and
  /// LLONG_MIN / -1 turns into a hardware trap, is an error. Division by
  /// zero yields 0.
  long long arith(const Token &Op, long long L, long long R) {
    long long V = 0;
    bool Overflow = false;
    switch (Op.getKind()) {
    case tok::plus:
      Overflow = __builtin_add_overflow(L, R, &V);
      break;
    case tok::minus:
      Overflow = __builtin_sub_overflow(L, R, &V);
      break;
    case tok::star:
      Overflow = __builtin_mul_overflow(L, R, &V);
      break;
    case tok::slash:
    case tok::percent:
      if (R == 0)
        return 0;
      Overflow = L == std::numeric_limits<long long>::min() && R == -1;
      if (!Overflow)
        V = Op.is(tok::slash) ? L / R : L % R;
      break;
    default:
      break;
    }
    if (Overflow) {
      fail(Op.getLocation(), diag::err_pp_expr_overflow);
      return 0;
    }
    return V;
  }

  long long parsePrimary() {
    Token T = next();
    if (T.is(tok::numeric_constant))
      return literalValue(T);
    if (T.is(tok::identifier)) {
      std::string Name(T.getText());
      if (Name == "defined") {
        bool Paren = accept(tok::l_paren);
        Token NameTok = next();
        if (Paren)
          accept(tok::r_paren);
        return Macros.count(std::string(NameTok.getText())) ? 1 : 0;
      }
      // Expand object-like macros whose body is a single literal; anything
      // else (including undefined identifiers) evaluates to 0, per C.
      auto It = Macros.find(Name);
      if (It != Macros.end() && !It->second.IsFunctionLike &&
          It->second.Body.size() == 1 &&
          It->second.Body[0].is(tok::numeric_constant))
        return literalValue(It->second.Body[0]);
      return 0;
    }
    // Parentheses and unary operators recurse: one nesting level each,
    // bounded like the parser's (Preprocessor::MaxNestingDepth).
    if (!T.isOneOf(tok::l_paren, tok::exclaim, tok::minus, tok::plus))
      return 0;
    if (Depth == Preprocessor::MaxNestingDepth) {
      fail(T.getLocation(), diag::err_parse_nesting_too_deep)
          << Preprocessor::MaxNestingDepth;
      return 0;
    }
    ++Depth;
    long long V;
    if (T.is(tok::l_paren)) {
      V = parseLogicalOr();
      accept(tok::r_paren);
    } else if (T.is(tok::exclaim)) {
      V = !parsePrimary();
    } else if (T.is(tok::minus)) {
      V = arith(T, 0, parsePrimary());
    } else {
      V = parsePrimary();
    }
    --Depth;
    return V;
  }

  long long parseMul() {
    long long L = parsePrimary();
    while (peek().isOneOf(tok::star, tok::slash, tok::percent)) {
      Token Op = next();
      L = arith(Op, L, parsePrimary());
    }
    return L;
  }

  long long parseAdd() {
    long long L = parseMul();
    while (peek().isOneOf(tok::plus, tok::minus)) {
      Token Op = next();
      L = arith(Op, L, parseMul());
    }
    return L;
  }

  long long parseCompare() {
    long long L = parseAdd();
    while (true) {
      if (accept(tok::less))
        L = L < parseAdd();
      else if (accept(tok::greater))
        L = L > parseAdd();
      else if (accept(tok::lessequal))
        L = L <= parseAdd();
      else if (accept(tok::greaterequal))
        L = L >= parseAdd();
      else if (accept(tok::equalequal))
        L = L == parseAdd();
      else if (accept(tok::exclaimequal))
        L = L != parseAdd();
      else
        return L;
    }
  }

  long long parseLogicalAnd() {
    long long L = parseCompare();
    while (accept(tok::ampamp)) {
      long long R = parseCompare();
      L = L && R;
    }
    return L;
  }

  long long parseLogicalOr() {
    long long L = parseLogicalAnd();
    while (accept(tok::pipepipe)) {
      long long R = parseLogicalAnd();
      L = L || R;
    }
    return L;
  }

  const std::vector<Token> &Toks;
  const std::map<std::string, MacroInfo> &Macros;
  DiagnosticsEngine &Diags;
  std::size_t Pos = 0;
  unsigned Depth = 0; // parentheses and unary operators entered
  // Per-evaluator eof sentinel (deliberately not a function-local static:
  // service workers preprocess concurrently).
  Token EofTok;
};
} // namespace

bool Preprocessor::evaluateIfCondition(std::vector<Token> Toks) {
  IfExprEvaluator Eval(Toks, Macros, Diags);
  return Eval.evaluate() != 0;
}

} // namespace mcc
