//===--- DependenceAnalysis.h - Affine loop data-dependence analysis -*- C++ -*-===//
//
// Data-dependence analysis over canonical loop nests: extracts affine
// subscript functions of the nest induction variables from array accesses,
// pairs reads and writes to the same base array, and computes
// distance/direction vectors. Constant-distance dependences are resolved
// exactly (strong SIV); everything else falls back to a conservative
// GCD + Banerjee feasibility test per direction combination, and anything
// non-affine degrades to the unknown direction '*'.
//
// Directions and distances are expressed in the *logical* iteration space
// (iteration numbers 0..N-1 in execution order), so they are directly
// meaningful to the loop transformations that operate on logical
// iterations: a legality query is a scan of the (possibly transformed)
// direction vectors for lexicographic positivity.
//
// Each loop of the nest is read through matchCanonicalLoop and
// getLogicalTripCount (ast/StmtOpenMP.h), the recognizer Sema uses too;
// the step and bounds are folded with evaluateIntegerWithConstVars.
//
// The three consumers are Sema (gating #pragma omp reverse, interchange,
// fuse and distribute_loop), the OpenMP race linter (index-aware analysis
// of array writes in parallel regions), and the --analyze=deps report
// pass.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_ANALYSIS_DEPENDENCEANALYSIS_H
#define MCC_ANALYSIS_DEPENDENCEANALYSIS_H

#include "ast/StmtOpenMP.h"

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mcc::analysis {

/// Dependence kind, named from the source (earlier) access to the sink.
enum class DepKind { Flow, Anti, Output };

/// Per-level direction of a dependence. Lt means the source iteration is
/// strictly earlier than the sink at that level; Any ('*') means unknown.
enum class DepDir : char { Lt = '<', Eq = '=', Gt = '>', Any = '*' };

[[nodiscard]] std::string_view getDepKindName(DepKind K);

/// One dependence between two accesses of a loop nest. Vectors are stored
/// canonicalized: lexicographically non-negative (the first non-'=' level,
/// if any, is never '>'). A dependence between two sibling loops that a
/// fusion would reverse has no common level, so its vectors are empty.
struct Dependence {
  DepKind Kind = DepKind::Flow;
  const VarDecl *Base = nullptr;
  /// One direction per nest level, outermost first.
  std::vector<DepDir> Dirs;
  /// Parallel to Dirs; set where the distance is provably constant.
  std::vector<std::optional<std::int64_t>> Dist;
  SourceLocation SrcLoc;
  SourceLocation SinkLoc;
  /// Extra context for conservative records ("non-affine subscript",
  /// "scalar is written and is not a recognized reduction", ...).
  std::string Detail;

  /// First level whose direction is not '='; getDepth() if all are.
  [[nodiscard]] unsigned carrierLevel() const;
  [[nodiscard]] bool isLoopIndependent() const;
  /// Every level has a known constant distance.
  [[nodiscard]] bool isExact() const;
  /// "flow dependence on 'a', direction (<,=), distance (1,0)"
  [[nodiscard]] std::string describe() const;
};

/// One level of the analyzed nest.
struct NestLoop {
  const ForStmt *Loop = nullptr;
  const VarDecl *IV = nullptr;
  std::int64_t Step = 1; ///< signed constant step (never 0)
  std::optional<std::int64_t> LowerBound;
  /// The logical trip count; unknown above INT64_MAX.
  std::optional<std::int64_t> TripCount;
};

/// A write the analysis could not model (pointer-expression base, escaped
/// array, non-affine subscript, unrecognized scalar update). Surfaced so
/// clients can report the skip instead of silently under-approximating.
struct SkippedAccess {
  SourceLocation Loc;
  std::string Base;
  std::string Reason;
};

/// Answer of a legality query; Reason names the blocking dependence or
/// obstacle when Legal is false. Blocking is the dependence that refutes
/// the transform, when there is one (none for basis failures such as an
/// unanalyzable nest); it lets clients attach a note at the conflicting
/// access.
struct Legality {
  bool Legal = true;
  std::string Reason;
  std::optional<Dependence> Blocking = std::nullopt;
  explicit operator bool() const { return Legal; }
};

class DependenceInfo {
public:
  /// Analyzes the maximal perfectly nested canonical loop nest rooted at
  /// \p NestRoot (statement wrappers are skipped). The nest is extended
  /// beyond \p MinDepth as far as perfect nesting and constant steps
  /// allow, which sharpens the directions seen by outer-level queries.
  /// isAnalyzable() is false when not even \p MinDepth levels could be
  /// modeled.
  static DependenceInfo analyze(Stmt *NestRoot, unsigned MinDepth = 1);

  [[nodiscard]] bool isAnalyzable() const { return Analyzable; }
  [[nodiscard]] const std::string &getFailureReason() const {
    return FailureReason;
  }
  [[nodiscard]] unsigned getDepth() const {
    return static_cast<unsigned>(Loops.size());
  }
  [[nodiscard]] const std::vector<NestLoop> &getLoops() const { return Loops; }
  [[nodiscard]] const std::vector<Dependence> &getDependences() const {
    return Deps;
  }
  [[nodiscard]] const std::vector<SkippedAccess> &getSkippedWrites() const {
    return SkippedWrites;
  }
  /// Array accesses whose subscripts were fully modeled as affine.
  [[nodiscard]] unsigned getNumAnalyzableAccesses() const {
    return NumAnalyzableAccesses;
  }
  [[nodiscard]] bool hasCall() const { return HasCall; }

  // --- Transform-legality oracle ---

  /// May the loop at \p Level (0 = outermost) be reversed?
  [[nodiscard]] Legality isLegalReverse(unsigned Level) const;
  /// May the first Perm.size() levels be reordered so that position p runs
  /// original level Perm[p]?
  [[nodiscard]] Legality
  isLegalInterchange(std::span<const unsigned> Perm) const;
  /// Plain swap of two levels.
  [[nodiscard]] Legality isLegalInterchange(unsigned I, unsigned J) const;
  /// May two adjacent sibling loops (each analyzed as a depth-1 nest) be
  /// fused, with \p First textually preceding \p Second?
  [[nodiscard]] static Legality isLegalFuse(const DependenceInfo &First,
                                            const DependenceInfo &Second);
  /// May the outermost loop be distributed into one loop per top-level
  /// statement of its (compound) body, run in source order? Refused when a
  /// dependence carried by the loop flows from a textually later group to
  /// an earlier one — distribution would run all iterations of the earlier
  /// group first and reverse that dependence.
  [[nodiscard]] Legality isLegalDistribute() const;

  /// The first dependence on \p Base carried by one of the outermost
  /// \p ParallelLevels loops, i.e. a conflict between different iterations
  /// that a worksharing construct would run concurrently. Null if none.
  /// Pass null \p Base to match any array base.
  [[nodiscard]] const Dependence *
  findParallelConflict(unsigned ParallelLevels,
                       const VarDecl *Base = nullptr) const;

private:
  /// Per-access summary retained for the cross-nest fusion query: the
  /// subscript rewritten over the *logical* iteration of this nest's
  /// outermost loop (A0 * t + K per dimension).
  struct AccessSummary {
    const VarDecl *Base = nullptr;
    bool IsWrite = false;
    SourceLocation Loc;
    struct Dim {
      std::int64_t A0 = 0;  ///< coefficient of the outermost logical iter
      std::int64_t K = 0;   ///< constant part (coef*lb + literal constant)
      bool HasK = false;    ///< K could be folded to a constant
      bool InnerUse = false; ///< references an inner level's IV
      std::map<const VarDecl *, std::int64_t> Sym; ///< invariant symbols
    };
    std::vector<Dim> Dims;
  };

  bool Analyzable = false;
  std::string FailureReason;
  bool HasCall = false;
  unsigned NumAnalyzableAccesses = 0;
  std::vector<NestLoop> Loops;
  std::vector<Dependence> Deps;
  std::vector<SkippedAccess> SkippedWrites;
  std::vector<AccessSummary> Summaries;

  /// Checks analyzability and the no-calls rule shared by every transform
  /// query; returns a failed Legality when the nest cannot be reasoned
  /// about at all.
  [[nodiscard]] Legality checkOracleBasis() const;

  friend class DependenceBuilder;
};

} // namespace mcc::analysis

#endif // MCC_ANALYSIS_DEPENDENCEANALYSIS_H
