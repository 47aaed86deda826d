//===--- Preprocessor.h - Macro expansion, includes, OpenMP pragmas -*- C++ -*-===//
//
// The Preprocessor layer of the paper's Fig. 1. Sits between the Lexer and
// the Parser: the parser pulls fully preprocessed tokens from here.
//
// Supported: object-like and function-like #define (no # / ## operators),
// #undef, #include (virtual-FS backed), #ifdef/#ifndef/#if/#elif/#else/
// #endif with a constant-expression evaluator and defined(), and #pragma.
//
// "#pragma omp ..." is folded into the token stream as
//   annot_pragma_openmp <pragma tokens...> annot_pragma_openmp_end
// exactly like Clang, so OpenMP directives flow through the normal
// parser instead of a side channel. Tokens inside the pragma undergo macro
// expansion (OpenMP 5.1 requires this), enabling e.g.
//   #define TILE 32
//   #pragma omp tile sizes(TILE, TILE)
//
//===----------------------------------------------------------------------===//
#ifndef MCC_LEX_PREPROCESSOR_H
#define MCC_LEX_PREPROCESSOR_H

#include "lex/Lexer.h"
#include "support/FileManager.h"

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace mcc {

/// A single macro definition.
struct MacroInfo {
  SourceLocation DefLoc;
  bool IsFunctionLike = false;
  std::vector<std::string> Params;
  std::vector<Token> Body;
};

class Preprocessor {
public:
  Preprocessor(FileManager &FM, SourceManager &SM, DiagnosticsEngine &Diags)
      : FM(FM), SM(SM), Diags(Diags) {}

  Preprocessor(const Preprocessor &) = delete;
  Preprocessor &operator=(const Preprocessor &) = delete;

  /// The deepest nesting the front end accepts (Clang's default bracket
  /// depth). The #if evaluator counts each parenthesis and unary operator
  /// against it; Parser::MaxNestingDepth is this limit, and documents
  /// what the parser counts. Deeper input is refused with
  /// err_parse_nesting_too_deep instead of exhausting the stack.
  static constexpr unsigned MaxNestingDepth = 256;

  /// Starts preprocessing \p Path (resolved through the FileManager).
  /// Returns false if the file cannot be read.
  bool enterMainFile(const std::string &Path);

  /// Starts preprocessing an already-registered buffer.
  void enterBuffer(FileID FID);

  /// Replay mode: serves a previously produced, fully preprocessed token
  /// stream instead of lexing. Directive handling and macro expansion are
  /// bypassed entirely — the stream already went through them — which is
  /// what makes a cached token stream (compile service L1 artifact)
  /// replayable bit-for-bit. \p Toks (and the buffers its tokens' text and
  /// locations point into) must outlive this preprocessor; after the last
  /// token, lex() synthesizes eof indefinitely.
  void enterTokenStream(std::span<const Token> Toks);

  /// Produces the next preprocessed token.
  void lex(Token &Result);

  /// Define a macro from the command line ("-DNAME=VALUE" handling).
  void defineCommandLineMacro(const std::string &Name,
                              const std::string &Value);

  [[nodiscard]] bool isMacroDefined(const std::string &Name) const {
    return Macros.count(Name) != 0;
  }

  /// Include search directories for #include resolution.
  void addIncludeDir(std::string Dir) {
    IncludeDirs.push_back(std::move(Dir));
  }

  [[nodiscard]] SourceManager &getSourceManager() { return SM; }
  [[nodiscard]] DiagnosticsEngine &getDiagnostics() { return Diags; }

  /// True while OpenMP pragma recognition is enabled (-fopenmp). When off,
  /// "#pragma omp" lines are discarded like unknown pragmas.
  void setOpenMPEnabled(bool V) { OpenMPEnabled = V; }
  [[nodiscard]] bool isOpenMPEnabled() const { return OpenMPEnabled; }

private:
  struct PendingToken {
    Token Tok;
    // Macros that must not expand for this token (recursion prevention).
    std::shared_ptr<std::set<std::string>> HideSet;
  };

  struct ConditionalInfo {
    bool ParentActive;  // were we emitting tokens when the #if was seen
    bool TakenBranch;   // has any branch of this chain been taken yet
    bool Active;        // is the current branch emitting tokens
    bool InElse = false;
  };

  Lexer &currentLexer() { return *IncludeStack.back(); }
  bool lexRawToken(Token &Tok); // from the current lexer, popping includes

  void handleDirective(const Token &HashTok);
  void handleDefine();
  void handleUndef();
  void handleInclude(const Token &DirTok);
  void handleIf(bool Sense /*true: #if(def), false: #ifndef*/, bool IsIfdef);
  void handleElif();
  void handleElse(const Token &DirTok);
  void handleEndif(const Token &DirTok);
  void handlePragma(const Token &DirTok);
  void skipToEod();
  std::vector<Token> readDirectiveTokens();

  bool isSkipping() const {
    return !Conditionals.empty() && !Conditionals.back().Active;
  }

  /// Expands macro \p Name (already verified to be defined) whose invocation
  /// started with \p NameTok. Function-like macros consume their argument
  /// list from the token stream. Expanded tokens are pushed to the front of
  /// the pending queue. Returns false if a function-like macro name is not
  /// followed by '(' (in which case it is not an invocation).
  bool expandMacro(const Token &NameTok,
                   std::shared_ptr<std::set<std::string>> HideSet);

  /// Evaluates the constant expression of an #if/#elif line.
  bool evaluateIfCondition(std::vector<Token> Toks);

  FileManager &FM;
  SourceManager &SM;
  DiagnosticsEngine &Diags;

  std::vector<std::unique_ptr<Lexer>> IncludeStack;
  std::map<std::string, MacroInfo> Macros;
  std::deque<PendingToken> Pending;
  std::vector<ConditionalInfo> Conditionals;
  std::vector<std::string> IncludeDirs;
  bool OpenMPEnabled = true;
  bool ReachedEOF = false;

  // Replay mode (enterTokenStream): cursor over an externally owned,
  // already-preprocessed stream. Null when lexing normally.
  const Token *ReplayCur = nullptr;
  const Token *ReplayEnd = nullptr;

  static constexpr unsigned MaxIncludeDepth = 64;

  // Owns token text for synthesized tokens (command-line macros).
  std::vector<std::unique_ptr<std::string>> OwnedStrings;
  std::vector<std::unique_ptr<MemoryBuffer>> OwnedBuffers;
};

} // namespace mcc

#endif // MCC_LEX_PREPROCESSOR_H
