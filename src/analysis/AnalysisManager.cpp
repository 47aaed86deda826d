//===--- AnalysisManager.cpp - Pass pipeline and shared helpers ------------===//
#include "analysis/Analysis.h"

#include "ast/ASTContext.h"

namespace mcc::analysis {

void AnalysisManager::addPass(std::unique_ptr<ASTAnalysis> Pass) {
  Passes.push_back(std::move(Pass));
}

bool AnalysisManager::run(TranslationUnitDecl *TU) {
  unsigned ErrorsBefore = Diags.getNumErrors();
  for (const auto &Pass : Passes) {
    unsigned E0 = Diags.getNumErrors();
    unsigned W0 = Diags.getNumWarnings();
    unsigned R0 = Diags.getNumRemarks();
    Pass->run(TU, *this);
    Stats.push_back({Pass->getName(), Diags.getNumWarnings() - W0,
                     Diags.getNumErrors() - E0, Diags.getNumRemarks() - R0});
  }
  return Diags.getNumErrors() == ErrorsBefore;
}

void registerDefaultAnalyses(AnalysisManager &AM, bool EnableLinters,
                             bool EnableVerifier) {
  if (EnableVerifier)
    AM.addPass(createPostTransformVerifier());
  if (EnableLinters) {
    AM.addPass(createOpenMPRaceLinter());
    AM.addPass(createCanonicalLoopConformanceCheck());
  }
}

std::string getKnownAnalysisPassNames() {
  return "openmp-race-linter, canonical-loop-conformance, deps";
}

std::string registerAnalysesByName(AnalysisManager &AM,
                                   std::span<const std::string> Names,
                                   bool EnableVerifier) {
  bool Race = false, Conformance = false, Deps = false;
  for (const std::string &N : Names) {
    if (N == "openmp-race-linter")
      Race = true;
    else if (N == "canonical-loop-conformance")
      Conformance = true;
    else if (N == "deps")
      Deps = true;
    else
      return N;
  }
  if (EnableVerifier)
    AM.addPass(createPostTransformVerifier());
  // Canonical pipeline order, independent of the order requested.
  if (Race)
    AM.addPass(createOpenMPRaceLinter());
  if (Conformance)
    AM.addPass(createCanonicalLoopConformanceCheck());
  if (Deps)
    AM.addPass(createDependenceReporter());
  return {};
}

} // namespace mcc::analysis
