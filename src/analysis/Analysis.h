//===--- Analysis.h - AST static-analysis pass framework --------*- C++ -*-===//
//
// The static-analysis layer that sits between Sema and CodeGen: an
// AnalysisManager runs registered ASTAnalysis passes over a translation
// unit; each pass walks the AST with RecursiveASTVisitor and reports
// through the shared DiagnosticsEngine (so the location-remapping policy of
// paper Section 2 applies to analysis diagnostics too).
//
// Three passes ship with the framework:
//   * openmp-race-linter          warns on unsynchronized writes to
//                                 variables shared by default in parallel /
//                                 worksharing regions
//   * canonical-loop-conformance  explains *why* a loop fails OpenMP
//                                 canonical-loop form (OpenMP 5.1 s4.4.1),
//                                 including the generated loops of
//                                 tile/unroll shadow ASTs
//   * post-transform-verifier     the AST analogue of ir::Verifier: checks
//                                 the structural invariants of shadow ASTs
//                                 produced by SemaOpenMPTransform
//
//===----------------------------------------------------------------------===//
#ifndef MCC_ANALYSIS_ANALYSIS_H
#define MCC_ANALYSIS_ANALYSIS_H

#include "ast/RecursiveASTVisitor.h"
#include "support/Diagnostic.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mcc {

class ASTContext;

namespace analysis {

class AnalysisManager;

/// A single analysis pass over a translation unit. Passes are stateless
/// between runs; all output goes through the AnalysisManager's
/// DiagnosticsEngine.
class ASTAnalysis {
public:
  explicit ASTAnalysis(std::string Name) : Name(std::move(Name)) {}
  virtual ~ASTAnalysis() = default;

  [[nodiscard]] const std::string &getName() const { return Name; }

  virtual void run(TranslationUnitDecl *TU, AnalysisManager &AM) = 0;

private:
  std::string Name;
};

/// Owns and runs a pipeline of ASTAnalysis passes, tracking how many
/// warnings/errors each pass produced.
class AnalysisManager {
public:
  AnalysisManager(ASTContext &Ctx, DiagnosticsEngine &Diags)
      : Ctx(Ctx), Diags(Diags) {}

  void addPass(std::unique_ptr<ASTAnalysis> Pass);

  /// Runs every registered pass over \p TU. Returns false if any pass
  /// emitted an error-severity diagnostic.
  bool run(TranslationUnitDecl *TU);

  [[nodiscard]] ASTContext &getASTContext() { return Ctx; }
  [[nodiscard]] DiagnosticsEngine &getDiagnostics() { return Diags; }

  struct PassStats {
    std::string Name;
    unsigned Warnings = 0;
    unsigned Errors = 0;
    unsigned Remarks = 0;
  };
  [[nodiscard]] const std::vector<PassStats> &getStats() const {
    return Stats;
  }

private:
  ASTContext &Ctx;
  DiagnosticsEngine &Diags;
  std::vector<std::unique_ptr<ASTAnalysis>> Passes;
  std::vector<PassStats> Stats;
};

// --- Pass factories ---
std::unique_ptr<ASTAnalysis> createOpenMPRaceLinter();
std::unique_ptr<ASTAnalysis> createCanonicalLoopConformanceCheck();
std::unique_ptr<ASTAnalysis> createPostTransformVerifier();
std::unique_ptr<ASTAnalysis> createDependenceReporter();

/// Registers the default pipeline: the post-transform verifier when
/// \p EnableVerifier (on by default in the driver, like RunVerifier for
/// IR), plus the linter passes when \p EnableLinters (--analyze).
void registerDefaultAnalyses(AnalysisManager &AM, bool EnableLinters,
                             bool EnableVerifier = true);

/// The names --analyze=<pass,...> accepts, comma-separated (for driver
/// diagnostics).
std::string getKnownAnalysisPassNames();

/// Registers exactly the passes named in \p Names, in the canonical
/// pipeline order regardless of the order given (plus the verifier when
/// \p EnableVerifier). Returns the first unknown name, or an empty string
/// on success.
std::string registerAnalysesByName(AnalysisManager &AM,
                                   std::span<const std::string> Names,
                                   bool EnableVerifier = true);

// --- Re-usable single-node checks (also the unit-test entry points) ---

/// Checks one loop against the OpenMP canonical-loop form, emitting
/// warn_analysis_loop_not_canonical plus notes pointing at each offending
/// expression. Returns true if the loop conforms.
bool checkCanonicalLoopConformance(Stmt *Loop, OpenMPDirectiveKind DKind,
                                   DiagnosticsEngine &Diags);

/// Verifies the shadow-AST structural invariants of one loop
/// transformation directive (perfect nesting for tile, generated-loop
/// structure matching the clause arguments, shadow locations confined to
/// the literal loop). Emits err_ast_verifier on violation; returns true if
/// the directive verifies.
bool verifyLoopTransformation(OMPLoopTransformationDirective *Dir,
                              DiagnosticsEngine &Diags);

// --- Loop-nest helpers shared by the passes ---

/// Strips CapturedStmt, OMPCanonicalLoop and single-statement CompoundStmt
/// wrappers (the layers Sema may interpose between a directive and its
/// associated loop); defined once, in the AST library.
using mcc::skipLoopWrappers;

} // namespace analysis
} // namespace mcc

#endif // MCC_ANALYSIS_ANALYSIS_H
