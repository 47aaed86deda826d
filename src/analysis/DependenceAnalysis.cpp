//===--- DependenceAnalysis.cpp - Affine loop data-dependence analysis -----===//
//
// Implementation notes.
//
// Every induction variable is normalized to its logical iteration number:
// iv_k = lb_k + step_k * t_k with t_k in [0, N_k). A subscript that is
// affine in the IVs, sum(c_k * iv_k) + const + symbols, then becomes
// sum(a_k * t_k) + ... with a_k = c_k * step_k. When both accesses of a
// pair agree on every c_k and on the symbolic terms, the lower bounds and
// symbols cancel out of the dependence equation
//
//     sum(a_k * delta_k) = const_src - const_sink,  delta_k = t_sink - t_src
//
// so nests with symbolic bounds stay analyzable. For each of the 3^depth
// direction combinations {<,=,>} the equation is tested per subscript
// dimension with a GCD divisibility test and a Banerjee-style interval
// test; a combination all of whose dimensions pin the same constant
// solution yields an exact distance (strong SIV). Pairs whose coefficients
// differ, non-affine subscripts, escaped arrays and non-reduction scalar
// writes degrade to a conservative all-'*' dependence instead.
//
//===----------------------------------------------------------------------===//
#include "analysis/DependenceAnalysis.h"

#include "analysis/Analysis.h"
#include "ast/ExprConstant.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace mcc::analysis {

std::string_view getDepKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  }
  return "?";
}

unsigned Dependence::carrierLevel() const {
  for (unsigned I = 0; I < Dirs.size(); ++I)
    if (Dirs[I] != DepDir::Eq)
      return I;
  return static_cast<unsigned>(Dirs.size());
}

bool Dependence::isLoopIndependent() const {
  return carrierLevel() == Dirs.size();
}

bool Dependence::isExact() const {
  for (const auto &D : Dist)
    if (!D)
      return false;
  return true;
}

std::string Dependence::describe() const {
  std::string S(getDepKindName(Kind));
  S += " dependence on '";
  S += Base ? std::string(Base->getName()) : std::string("<unknown>");
  S += '\'';
  if (!Dirs.empty()) {
    S += ", direction (";
    for (unsigned I = 0; I < Dirs.size(); ++I) {
      if (I)
        S += ',';
      S += static_cast<char>(Dirs[I]);
    }
    S += ')';
  }
  bool AnyDist = false;
  for (const auto &D : Dist)
    AnyDist |= D.has_value();
  if (AnyDist && !isLoopIndependent()) {
    S += ", distance (";
    for (unsigned I = 0; I < Dist.size(); ++I) {
      if (I)
        S += ',';
      S += Dist[I] ? std::to_string(*Dist[I]) : std::string("?");
    }
    S += ')';
  }
  if (!Detail.empty()) {
    S += " [";
    S += Detail;
    S += ']';
  }
  return S;
}

// Helpers below intentionally have namespace (not anonymous) linkage:
// DependenceBuilder is a friend of DependenceInfo and holds members of
// these types, and GCC's -Wsubobject-linkage objects to anonymous-namespace
// members in an externally visible class.
namespace depdetail {

bool refersTo(Expr *E, const VarDecl *V) {
  if (!E)
    return false;
  if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(E->ignoreParenImpCasts()))
    if (DRE->getDecl() == V)
      return true;
  for (Stmt *C : E->children())
    if (auto *CE = stmt_dyn_cast<Expr>(C))
      if (refersTo(CE, V))
        return true;
  return false;
}

// --- Affine subscript form: Const + sum(Coef[V] * V) ---------------------

struct AffineExpr {
  std::int64_t Const = 0;
  std::map<const VarDecl *, std::int64_t> Coef;
};

/// Accumulates Scale * E into Out. False when E is not affine.
///
/// \p LocalInits maps single-assignment body-local variables to their
/// initializer: a reference to such a variable is forward-substituted by
/// the initializer instead of appearing as a symbolic term. This is what
/// keeps the shadow ASTs of preceding transformations (tile/unroll
/// materialize the user IV as `T i = lb + iv*step;`) analyzable instead of
/// degrading to a conservative "varies inside the nest" dependence.
bool addAffine(Expr *E, std::int64_t Scale, AffineExpr &Out,
               const std::map<const VarDecl *, Expr *> *LocalInits = nullptr,
               unsigned Depth = 0) {
  if (auto C = evaluateIntegerWithConstVars(E)) {
    Out.Const += Scale * *C;
    return true;
  }
  E = E->ignoreParenImpCasts();
  if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(E)) {
    if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl())) {
      if (LocalInits && Depth < 8) {
        auto It = LocalInits->find(V);
        if (It != LocalInits->end())
          return addAffine(It->second, Scale, Out, LocalInits, Depth + 1);
      }
      Out.Coef[V] += Scale;
      return true;
    }
    return false;
  }
  if (auto *UO = stmt_dyn_cast<UnaryOperator>(E)) {
    if (UO->getOpcode() == UnaryOperatorKind::Minus)
      return addAffine(UO->getSubExpr(), -Scale, Out, LocalInits, Depth);
    if (UO->getOpcode() == UnaryOperatorKind::Plus)
      return addAffine(UO->getSubExpr(), Scale, Out, LocalInits, Depth);
    return false;
  }
  if (auto *BO = stmt_dyn_cast<BinaryOperator>(E)) {
    switch (BO->getOpcode()) {
    case BinaryOperatorKind::Add:
      return addAffine(BO->getLHS(), Scale, Out, LocalInits, Depth) &&
             addAffine(BO->getRHS(), Scale, Out, LocalInits, Depth);
    case BinaryOperatorKind::Sub:
      return addAffine(BO->getLHS(), Scale, Out, LocalInits, Depth) &&
             addAffine(BO->getRHS(), -Scale, Out, LocalInits, Depth);
    case BinaryOperatorKind::Mul:
      if (auto C = evaluateIntegerWithConstVars(BO->getLHS()))
        return addAffine(BO->getRHS(), Scale * *C, Out, LocalInits, Depth);
      if (auto C = evaluateIntegerWithConstVars(BO->getRHS()))
        return addAffine(BO->getLHS(), Scale * *C, Out, LocalInits, Depth);
      return false;
    default:
      return false;
    }
  }
  return false;
}

// --- The builder ----------------------------------------------------------

/// An array access with affine subscripts, in collection (execution
/// pre-order) order.
struct Access {
  const VarDecl *Base = nullptr;
  std::vector<AffineExpr> Subs; ///< outermost dimension first
  bool IsWrite = false;
  SourceLocation Loc;
};

/// Saturating helpers for the Banerjee interval test. A missing optional
/// bound stands for the corresponding infinity.
using MaybeInt = std::optional<std::int64_t>;

std::int64_t mulSat(std::int64_t A, std::int64_t B) {
  __int128 P = static_cast<__int128>(A) * B;
  if (P > INT64_MAX)
    return INT64_MAX;
  if (P < INT64_MIN)
    return INT64_MIN;
  return static_cast<std::int64_t>(P);
}

std::int64_t addSat(std::int64_t A, std::int64_t B) {
  __int128 S = static_cast<__int128>(A) + B;
  if (S > INT64_MAX)
    return INT64_MAX;
  if (S < INT64_MIN)
    return INT64_MIN;
  return static_cast<std::int64_t>(S);
}

} // namespace depdetail

using namespace depdetail;

class DependenceBuilder {
public:
  DependenceInfo build(Stmt *Root, unsigned MinDepth);

private:
  DependenceInfo R;
  std::vector<const VarDecl *> NestIVs; // indexed by level
  std::set<const VarDecl *> NotInvariant;
  std::set<const VarDecl *> LocalDecls;
  /// Body-local vars declared with an initializer and never reassigned:
  /// subscript references are forward-substituted by the initializer.
  std::map<const VarDecl *, Expr *> LocalInits;
  std::set<const VarDecl *> LocalReassigned;
  std::set<const VarDecl *> EscapedBases;
  std::vector<Access> Accesses;
  bool UnattributedWrite = false;
  SourceLocation UnattributedLoc;

  struct ScalarState {
    bool Written = false;
    bool ReductionOk = true;
    std::optional<BinaryOperatorKind> ReductionOp;
    unsigned ExpectedRefs = 0;
    SourceLocation FirstWriteLoc;
  };
  std::map<const VarDecl *, ScalarState> Scalars;

  [[nodiscard]] int ivLevel(const VarDecl *V) const {
    for (unsigned I = 0; I < NestIVs.size(); ++I)
      if (NestIVs[I] == V)
        return static_cast<int>(I);
    return -1;
  }

  bool parseNest(Stmt *Root, unsigned MinDepth);
  void scanModifications(Stmt *S);
  void collect(Stmt *S);
  void handleAssign(BinaryOperator *BO);
  void recordAccess(ArraySubscriptExpr *ASE, bool IsWrite,
                    bool WalkIndices = true);
  void noteScalarWrite(const VarDecl *V, BinaryOperator *BO,
                       SourceLocation Loc);
  void countRefs(Stmt *S, std::map<const VarDecl *, unsigned> &Counts);
  void addConservativeDep(const VarDecl *Base, SourceLocation Loc,
                          std::string Detail);
  void finalizeScalars(Stmt *Body);
  void pairAccesses();
  void testPair(const Access &A, const Access &B, bool SelfPair);
  void buildSummaries();
};

DependenceInfo DependenceBuilder::build(Stmt *Root, unsigned MinDepth) {
  if (!parseNest(Root, MinDepth))
    return std::move(R);
  R.Analyzable = true;

  Stmt *Body = R.Loops.back().Loop->getBody();
  scanModifications(Body);
  for (const VarDecl *V : LocalReassigned)
    LocalInits.erase(V);
  collect(Body);
  finalizeScalars(Body);
  pairAccesses();
  buildSummaries();
  return std::move(R);
}

bool DependenceBuilder::parseNest(Stmt *Root, unsigned MinDepth) {
  // Extending the nest past MinDepth sharpens the vectors (an inner IV in
  // a subscript stays affine instead of degrading to '*'), but the combo
  // enumeration is 3^depth, so stop at a small cap.
  const unsigned MaxDepth = std::max(MinDepth, 4u);
  Stmt *S = Root;
  for (unsigned D = 0; D < MaxDepth; ++D) {
    S = skipLoopWrappers(S);
    auto *For = stmt_dyn_cast<ForStmt>(S);
    auto Fail = [&](const char *Why) {
      if (R.Loops.size() < MinDepth) {
        R.FailureReason = Why;
        return false;
      }
      return true; // deep enough; stop extending
    };
    if (!For)
      return Fail("the associated statement is not a perfectly nested for "
                  "loop at the requested depth");
    NestLoop L;
    L.Loop = For;
    CanonicalLoopForm Form =
        matchCanonicalLoop(For, evaluateIntegerWithConstVars);
    L.IV = Form.IV;
    if (!L.IV)
      return Fail("a loop of the nest has no recognizable induction "
                  "variable");
    if (ivLevel(L.IV) >= 0)
      return Fail("two loops of the nest share an induction variable");
    if (!Form.IncMatched || !Form.StepMagnitude || *Form.StepMagnitude == 0 ||
        *Form.StepMagnitude > INT64_MAX)
      return Fail("a loop of the nest does not advance its induction "
                  "variable by a nonzero constant");
    L.Step = static_cast<std::int64_t>(*Form.StepMagnitude);
    if (Form.Decreasing)
      L.Step = -L.Step;
    if (Form.LowerBound)
      L.LowerBound = evaluateIntegerWithConstVars(Form.LowerBound);
    // A trip count beyond the signed range the distance tests use is
    // treated as unknown.
    auto UB = Form.CondMatched
                  ? evaluateIntegerWithConstVars(Form.UpperBound)
                  : std::nullopt;
    if (L.LowerBound && UB)
      if (auto N = getLogicalTripCount(Form, *L.LowerBound, *UB);
          N && *N <= INT64_MAX)
        L.TripCount = static_cast<std::int64_t>(*N);
    R.Loops.push_back(L);
    NestIVs.push_back(L.IV);
    S = For->getBody();
  }
  return R.Loops.size() >= MinDepth;
}

/// Pre-pass: which variables are written (or locally declared) anywhere in
/// the nest body? Those cannot appear in an affine subscript as invariant
/// symbols.
void DependenceBuilder::scanModifications(Stmt *S) {
  if (!S)
    return;
  if (auto *DS = stmt_dyn_cast<DeclStmt>(S)) {
    for (VarDecl *V : DS->decls()) {
      LocalDecls.insert(V);
      NotInvariant.insert(V);
      if (V->hasInit() && !LocalInits.count(V))
        LocalInits[V] = V->getInit();
      else
        LocalReassigned.insert(V);
    }
  } else if (auto *BO = stmt_dyn_cast<BinaryOperator>(S)) {
    if (BO->isAssignmentOp())
      if (auto *DRE =
              stmt_dyn_cast<DeclRefExpr>(BO->getLHS()->ignoreParenImpCasts()))
        if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl())) {
          NotInvariant.insert(V);
          LocalReassigned.insert(V);
        }
  } else if (auto *UO = stmt_dyn_cast<UnaryOperator>(S)) {
    if (UO->isIncrementDecrementOp())
      if (auto *DRE =
              stmt_dyn_cast<DeclRefExpr>(UO->getSubExpr()->ignoreParenImpCasts()))
        if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl())) {
          NotInvariant.insert(V);
          LocalReassigned.insert(V);
        }
  }
  for (Stmt *C : S->children())
    scanModifications(C);
}

void DependenceBuilder::collect(Stmt *S) {
  if (!S)
    return;
  if (auto *BO = stmt_dyn_cast<BinaryOperator>(S)) {
    if (BO->isAssignmentOp()) {
      handleAssign(BO);
      return;
    }
  }
  if (auto *UO = stmt_dyn_cast<UnaryOperator>(S)) {
    Expr *Sub = UO->getSubExpr()->ignoreParenImpCasts();
    if (UO->isIncrementDecrementOp()) {
      if (auto *ASE = stmt_dyn_cast<ArraySubscriptExpr>(Sub)) {
        recordAccess(ASE, /*IsWrite=*/false);
        recordAccess(ASE, /*IsWrite=*/true, /*WalkIndices=*/false);
        return;
      }
      if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(Sub)) {
        if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl()))
          noteScalarWrite(V, /*BO=*/nullptr, UO->getBeginLoc());
        return;
      }
      // *p++ and friends: an unattributable write.
      UnattributedWrite = true;
      UnattributedLoc = UO->getBeginLoc();
      R.SkippedWrites.push_back({UO->getBeginLoc(), "<expression>",
                                 "write target is not a named array element "
                                 "or scalar"});
      return;
    }
    if (UO->getOpcode() == UnaryOperatorKind::AddrOf) {
      // Taking an address lets the pointee be accessed outside the
      // subscript discipline: escape the underlying base.
      Expr *E = Sub;
      while (auto *ASE = stmt_dyn_cast<ArraySubscriptExpr>(E)) {
        collect(ASE->getIndex());
        E = ASE->getBase()->ignoreParenImpCasts();
      }
      if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(E))
        if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl()))
          EscapedBases.insert(V);
      return;
    }
  }
  if (auto *CE = stmt_dyn_cast<CallExpr>(S)) {
    R.HasCall = true;
    for (Expr *A : CE->arguments())
      collect(A);
    return;
  }
  if (auto *ASE = stmt_dyn_cast<ArraySubscriptExpr>(S)) {
    recordAccess(ASE, /*IsWrite=*/false);
    return;
  }
  if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(S)) {
    // An array or pointer name used as a plain value (call argument,
    // pointer arithmetic, pointer assignment source) escapes the base.
    if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl()))
      if (V->getType()->isPointerType() || V->getType()->isArrayType())
        EscapedBases.insert(V);
    return;
  }
  for (Stmt *C : S->children())
    collect(C);
}

void DependenceBuilder::handleAssign(BinaryOperator *BO) {
  Expr *LHS = BO->getLHS()->ignoreParenImpCasts();
  if (auto *ASE = stmt_dyn_cast<ArraySubscriptExpr>(LHS)) {
    if (BO->isCompoundAssignmentOp()) {
      recordAccess(ASE, /*IsWrite=*/false);
      recordAccess(ASE, /*IsWrite=*/true, /*WalkIndices=*/false);
    } else {
      recordAccess(ASE, /*IsWrite=*/true);
    }
  } else if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(LHS)) {
    if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl())) {
      noteScalarWrite(V, BO, BO->getBeginLoc());
      if (V->getType()->isPointerType())
        EscapedBases.insert(V); // reseating a pointer base mid-nest
    }
  } else {
    UnattributedWrite = true;
    UnattributedLoc = BO->getBeginLoc();
    R.SkippedWrites.push_back({BO->getBeginLoc(), "<expression>",
                               "write target is not a named array element "
                               "or scalar"});
  }
  collect(BO->getRHS());
}

void DependenceBuilder::recordAccess(ArraySubscriptExpr *ASE, bool IsWrite,
                                     bool WalkIndices) {
  Access A;
  A.IsWrite = IsWrite;
  A.Loc = ASE->getBeginLoc();

  std::vector<Expr *> Indices;
  Expr *E = ASE;
  while (auto *Cur = stmt_dyn_cast<ArraySubscriptExpr>(E)) {
    Indices.push_back(Cur->getIndex());
    E = Cur->getBase()->ignoreParenImpCasts();
  }
  std::reverse(Indices.begin(), Indices.end());

  // Nested accesses inside the index expressions (a[b[i]]) are reads in
  // their own right; the outer subscript then fails the affine test.
  if (WalkIndices)
    for (Expr *Idx : Indices)
      collect(Idx);

  auto *DRE = stmt_dyn_cast<DeclRefExpr>(E);
  auto *Base = DRE ? decl_dyn_cast<VarDecl>(DRE->getDecl()) : nullptr;
  if (!Base) {
    if (IsWrite) {
      UnattributedWrite = true;
      UnattributedLoc = A.Loc;
      R.SkippedWrites.push_back({A.Loc, "<expression>",
                                 "subscript base is not a declared array"});
    }
    return;
  }
  A.Base = Base;

  bool Affine = true;
  std::string Why;
  for (Expr *Idx : Indices) {
    AffineExpr AE;
    if (!addAffine(Idx, 1, AE, &LocalInits)) {
      Affine = false;
      Why = "non-affine subscript";
      break;
    }
    for (const auto &[V, C] : AE.Coef) {
      (void)C;
      if (ivLevel(V) < 0 && NotInvariant.count(V)) {
        Affine = false;
        Why = "subscript uses variable '" + std::string(V->getName()) +
              "' that varies inside the nest";
        break;
      }
    }
    if (!Affine)
      break;
    A.Subs.push_back(std::move(AE));
  }

  if (!Affine) {
    addConservativeDep(Base, A.Loc, Why);
    if (IsWrite)
      R.SkippedWrites.push_back({A.Loc, std::string(Base->getName()), Why});
    return;
  }
  Accesses.push_back(std::move(A));
}

void DependenceBuilder::noteScalarWrite(const VarDecl *V, BinaryOperator *BO,
                                        SourceLocation Loc) {
  if (LocalDecls.count(V))
    return; // private to a single iteration
  ScalarState &S = Scalars[V];
  if (!S.Written) {
    S.Written = true;
    S.FirstWriteLoc = Loc;
  }

  // Reduction recognition: every write must be 's = s op expr' / 's op= expr'
  // with one commutative-associative integer op and no other reference to s.
  auto Classify = [&]() -> std::optional<BinaryOperatorKind> {
    if (!BO)
      return std::nullopt; // ++/-- statements are not recognized
    if (!V->getType()->isIntegerType())
      return std::nullopt; // FP reductions reorder rounding: never relaxed
    switch (BO->getOpcode()) {
    case BinaryOperatorKind::AddAssign:
    case BinaryOperatorKind::MulAssign:
    case BinaryOperatorKind::AndAssign:
    case BinaryOperatorKind::OrAssign:
    case BinaryOperatorKind::XorAssign:
      if (refersTo(BO->getRHS(), V))
        return std::nullopt;
      S.ExpectedRefs += 1;
      return BO->getCompoundOpcode();
    case BinaryOperatorKind::Assign: {
      auto *RHS =
          stmt_dyn_cast<BinaryOperator>(BO->getRHS()->ignoreParenImpCasts());
      if (!RHS)
        return std::nullopt;
      switch (RHS->getOpcode()) {
      case BinaryOperatorKind::Add:
      case BinaryOperatorKind::Mul:
      case BinaryOperatorKind::And:
      case BinaryOperatorKind::Or:
      case BinaryOperatorKind::Xor:
        break;
      default:
        return std::nullopt;
      }
      auto IsV = [&](Expr *X) {
        auto *DRE = stmt_dyn_cast<DeclRefExpr>(X->ignoreParenImpCasts());
        return DRE && DRE->getDecl() == V;
      };
      Expr *Other = nullptr;
      if (IsV(RHS->getLHS()))
        Other = RHS->getRHS();
      else if (IsV(RHS->getRHS()))
        Other = RHS->getLHS();
      if (!Other || refersTo(Other, V))
        return std::nullopt;
      S.ExpectedRefs += 2;
      return RHS->getOpcode();
    }
    default:
      return std::nullopt;
    }
  };

  auto Op = Classify();
  if (!Op) {
    S.ReductionOk = false;
    return;
  }
  if (S.ReductionOp && *S.ReductionOp != *Op)
    S.ReductionOk = false; // mixed ops do not commute with each other
  else
    S.ReductionOp = *Op;
}

void DependenceBuilder::countRefs(Stmt *S,
                                  std::map<const VarDecl *, unsigned> &Counts) {
  if (!S)
    return;
  if (auto *DRE = stmt_dyn_cast<DeclRefExpr>(S))
    if (auto *V = decl_dyn_cast<VarDecl>(DRE->getDecl()))
      ++Counts[V];
  for (Stmt *C : S->children())
    countRefs(C, Counts);
}

void DependenceBuilder::addConservativeDep(const VarDecl *Base,
                                           SourceLocation Loc,
                                           std::string Detail) {
  // One all-'*' record per (base, detail) is enough to block everything.
  for (const Dependence &D : R.Deps)
    if (D.Base == Base && D.Detail == Detail)
      return;
  Dependence D;
  D.Kind = DepKind::Flow;
  D.Base = Base;
  D.Dirs.assign(R.Loops.size(), DepDir::Any);
  D.Dist.assign(R.Loops.size(), std::nullopt);
  D.SrcLoc = D.SinkLoc = Loc;
  D.Detail = std::move(Detail);
  R.Deps.push_back(std::move(D));
}

void DependenceBuilder::finalizeScalars(Stmt *Body) {
  std::map<const VarDecl *, unsigned> Counts;
  countRefs(Body, Counts);
  for (auto &[V, S] : Scalars) {
    if (!S.Written)
      continue;
    bool Reduction = S.ReductionOk && S.ReductionOp &&
                     Counts[V] == S.ExpectedRefs && !EscapedBases.count(V);
    if (Reduction)
      continue; // reordering iterations of a reduction is legal
    addConservativeDep(V, S.FirstWriteLoc,
                       "scalar is written and is not a recognized reduction");
  }
  if (UnattributedWrite) {
    addConservativeDep(nullptr, UnattributedLoc,
                       "a write could not be attributed to a declared array "
                       "or scalar");
  }
  for (const VarDecl *V : EscapedBases) {
    // An escaped base only matters if it is actually accessed here.
    bool Touched = false;
    for (const Access &A : Accesses)
      Touched |= A.Base == V;
    if (Touched || Scalars.count(V))
      addConservativeDep(V, SourceLocation(),
                         "the address of '" + std::string(V->getName()) +
                             "' escapes the nest");
  }
}

void DependenceBuilder::pairAccesses() {
  for (const Access &A : Accesses)
    if (!EscapedBases.count(A.Base))
      ++R.NumAnalyzableAccesses;

  for (unsigned I = 0; I < Accesses.size(); ++I) {
    const Access &A = Accesses[I];
    if (EscapedBases.count(A.Base))
      continue; // already covered by a conservative record
    for (unsigned J = I; J < Accesses.size(); ++J) {
      const Access &B = Accesses[J];
      if (B.Base != A.Base)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      testPair(A, B, /*SelfPair=*/I == J);
    }
  }
}

void DependenceBuilder::testPair(const Access &A, const Access &B,
                                 bool SelfPair) {
  if (SelfPair && !A.IsWrite)
    return;
  const unsigned Depth = static_cast<unsigned>(R.Loops.size());
  const unsigned Dims = static_cast<unsigned>(A.Subs.size());
  if (Dims != B.Subs.size()) {
    addConservativeDep(A.Base, A.Loc, "accesses use different subscript "
                                      "ranks");
    return;
  }

  // Per dimension: sum(Coef[k] * delta_k) = Rhs, with Coef[k] = c_k*step_k.
  struct DimEq {
    std::vector<std::int64_t> Coef;
    std::int64_t Rhs = 0;
  };
  std::vector<DimEq> Eqs(Dims);
  for (unsigned D = 0; D < Dims; ++D) {
    DimEq &Eq = Eqs[D];
    Eq.Coef.assign(Depth, 0);
    Eq.Rhs = A.Subs[D].Const - B.Subs[D].Const;
    std::set<const VarDecl *> Vars;
    for (const auto &[V, C] : A.Subs[D].Coef)
      Vars.insert(V);
    for (const auto &[V, C] : B.Subs[D].Coef)
      Vars.insert(V);
    for (const VarDecl *V : Vars) {
      auto Get = [V](const AffineExpr &E) {
        auto It = E.Coef.find(V);
        return It == E.Coef.end() ? 0 : It->second;
      };
      std::int64_t CA = Get(A.Subs[D]);
      std::int64_t CB = Get(B.Subs[D]);
      int Level = ivLevel(V);
      if (CA != CB) {
        // Lower bounds / symbols no longer cancel: give up on the pair.
        addConservativeDep(A.Base, A.Loc,
                           Level >= 0 ? "subscript coefficients of the pair "
                                        "differ (coupled subscripts)"
                                      : "symbolic subscript terms of the "
                                        "pair differ");
        return;
      }
      if (Level >= 0)
        Eq.Coef[Level] = mulSat(CA, R.Loops[Level].Step);
      // Equal symbolic terms cancel; equal IV coefficients keep lb out of
      // the equation, so symbolic loop bounds stay analyzable.
    }
  }

  // Enumerate the 3^depth direction combinations.
  static constexpr DepDir Menu[3] = {DepDir::Lt, DepDir::Eq, DepDir::Gt};
  std::vector<unsigned> Digits(Depth, 0);
  const std::uint64_t Total = [&] {
    std::uint64_t T = 1;
    for (unsigned I = 0; I < Depth; ++I)
      T *= 3;
    return T;
  }();

  for (std::uint64_t Mask = 0; Mask < Total; ++Mask) {
    std::uint64_t M = Mask;
    for (unsigned I = 0; I < Depth; ++I) {
      Digits[I] = M % 3;
      M /= 3;
    }
    std::vector<DepDir> Combo(Depth);
    for (unsigned I = 0; I < Depth; ++I)
      Combo[I] = Menu[Digits[I]];

    bool AllEq = true;
    for (DepDir D : Combo)
      AllEq &= D == DepDir::Eq;
    if (AllEq && SelfPair)
      continue; // the same access in the same iteration

    // A level with fewer than two iterations cannot carry a dependence.
    bool RangeEmpty = false;
    for (unsigned K = 0; K < Depth; ++K)
      if (Combo[K] != DepDir::Eq && R.Loops[K].TripCount &&
          *R.Loops[K].TripCount <= 1)
        RangeEmpty = true;
    if (RangeEmpty)
      continue;

    std::vector<std::optional<std::int64_t>> Pins(Depth);
    bool Feasible = true;
    for (unsigned D = 0; D < Dims && Feasible; ++D) {
      const DimEq &Eq = Eqs[D];
      std::int64_t G = 0;
      unsigned NumNonZero = 0;
      int LastNonZero = -1;
      MaybeInt Lo = 0, Hi = 0; // nullopt = the matching infinity
      for (unsigned K = 0; K < Depth; ++K) {
        if (Combo[K] == DepDir::Eq || Eq.Coef[K] == 0)
          continue;
        std::int64_t C = Eq.Coef[K];
        G = std::gcd(G, C < 0 ? -C : C);
        ++NumNonZero;
        LastNonZero = static_cast<int>(K);
        // delta range at this level: Lt -> [1, N-1], Gt -> [-(N-1), -1].
        MaybeInt DLo, DHi;
        if (Combo[K] == DepDir::Lt) {
          DLo = 1;
          if (R.Loops[K].TripCount)
            DHi = *R.Loops[K].TripCount - 1;
        } else {
          DHi = -1;
          if (R.Loops[K].TripCount)
            DLo = -(*R.Loops[K].TripCount - 1);
        }
        MaybeInt TLo, THi;
        if (C > 0) {
          TLo = DLo ? MaybeInt(mulSat(C, *DLo)) : std::nullopt;
          THi = DHi ? MaybeInt(mulSat(C, *DHi)) : std::nullopt;
        } else {
          TLo = DHi ? MaybeInt(mulSat(C, *DHi)) : std::nullopt;
          THi = DLo ? MaybeInt(mulSat(C, *DLo)) : std::nullopt;
        }
        Lo = (Lo && TLo) ? MaybeInt(addSat(*Lo, *TLo)) : std::nullopt;
        Hi = (Hi && THi) ? MaybeInt(addSat(*Hi, *THi)) : std::nullopt;
      }
      if (NumNonZero == 0) {
        if (Eq.Rhs != 0)
          Feasible = false;
        continue;
      }
      if (Eq.Rhs % G != 0) { // GCD test
        Feasible = false;
        continue;
      }
      if ((Lo && Eq.Rhs < *Lo) || (Hi && Eq.Rhs > *Hi)) { // Banerjee test
        Feasible = false;
        continue;
      }
      if (NumNonZero == 1) { // strong SIV: the solution is pinned
        std::int64_t C = Eq.Coef[LastNonZero];
        if (Eq.Rhs % C != 0) {
          Feasible = false;
          continue;
        }
        std::int64_t Delta = Eq.Rhs / C;
        if (Pins[LastNonZero] && *Pins[LastNonZero] != Delta) {
          Feasible = false;
          continue;
        }
        if ((Combo[LastNonZero] == DepDir::Lt && Delta < 1) ||
            (Combo[LastNonZero] == DepDir::Gt && Delta > -1)) {
          Feasible = false;
          continue;
        }
        if (R.Loops[LastNonZero].TripCount &&
            (Delta >= *R.Loops[LastNonZero].TripCount ||
             Delta <= -*R.Loops[LastNonZero].TripCount)) {
          Feasible = false;
          continue;
        }
        Pins[LastNonZero] = Delta;
      }
    }
    if (!Feasible)
      continue;

    // Canonicalize to a lexicographically non-negative vector: a '>'-first
    // combination is really a dependence in the other direction.
    bool Swapped = false;
    for (DepDir Dir : Combo) {
      if (Dir == DepDir::Eq)
        continue;
      Swapped = Dir == DepDir::Gt;
      break;
    }
    Dependence Dep;
    Dep.Base = A.Base;
    Dep.Dirs.resize(Depth);
    Dep.Dist.resize(Depth);
    for (unsigned K = 0; K < Depth; ++K) {
      DepDir Dir = Combo[K];
      std::optional<std::int64_t> Pin =
          Combo[K] == DepDir::Eq ? std::optional<std::int64_t>(0) : Pins[K];
      if (Swapped) {
        if (Dir == DepDir::Lt)
          Dir = DepDir::Gt;
        else if (Dir == DepDir::Gt)
          Dir = DepDir::Lt;
        if (Pin)
          Pin = -*Pin;
      }
      Dep.Dirs[K] = Dir;
      Dep.Dist[K] = Pin;
    }
    const Access &Src = Swapped ? B : A;
    const Access &Sink = Swapped ? A : B;
    Dep.SrcLoc = Src.Loc;
    Dep.SinkLoc = Sink.Loc;
    if (Src.IsWrite && Sink.IsWrite)
      Dep.Kind = DepKind::Output;
    else if (Src.IsWrite)
      Dep.Kind = DepKind::Flow;
    else
      Dep.Kind = DepKind::Anti;
    R.Deps.push_back(std::move(Dep));
  }
}

void DependenceBuilder::buildSummaries() {
  for (const Access &A : Accesses) {
    if (EscapedBases.count(A.Base))
      continue;
    DependenceInfo::AccessSummary S;
    S.Base = A.Base;
    S.IsWrite = A.IsWrite;
    S.Loc = A.Loc;
    for (const AffineExpr &AE : A.Subs) {
      DependenceInfo::AccessSummary::Dim D;
      D.K = AE.Const;
      D.HasK = true;
      for (const auto &[V, C] : AE.Coef) {
        int Level = ivLevel(V);
        if (Level == 0) {
          D.A0 = mulSat(C, R.Loops[0].Step);
          if (R.Loops[0].LowerBound)
            D.K = addSat(D.K, mulSat(C, *R.Loops[0].LowerBound));
          else
            D.HasK = false;
        } else if (Level > 0) {
          D.InnerUse = true;
        } else {
          D.Sym[V] = C;
        }
      }
      S.Dims.push_back(std::move(D));
    }
    R.Summaries.push_back(std::move(S));
  }
}

DependenceInfo DependenceInfo::analyze(Stmt *NestRoot, unsigned MinDepth) {
  return DependenceBuilder().build(NestRoot, std::max(MinDepth, 1u));
}

// --- Legality oracle ------------------------------------------------------

namespace {

/// Provably lexicographically non-negative after a transformation: a '<'
/// before any '>' or '*', or all '='.
bool lexNonNegative(std::span<const DepDir> W) {
  for (DepDir D : W) {
    if (D == DepDir::Lt)
      return true;
    if (D == DepDir::Gt || D == DepDir::Any)
      return false;
  }
  return true;
}

} // namespace

Legality DependenceInfo::checkOracleBasis() const {
  if (!Analyzable)
    return {false, FailureReason.empty()
                       ? std::string("the loop nest is not analyzable")
                       : FailureReason};
  if (HasCall)
    return {false, "the loop nest contains a function call with unknown "
                   "side effects"};
  return {};
}

Legality DependenceInfo::isLegalReverse(unsigned Level) const {
  if (Legality Basis = checkOracleBasis(); !Basis)
    return Basis;
  if (Level >= getDepth())
    return {false, "the nest is not deep enough for the requested level"};
  for (const Dependence &Dep : Deps) {
    std::vector<DepDir> W = Dep.Dirs;
    if (W[Level] == DepDir::Lt)
      W[Level] = DepDir::Gt;
    else if (W[Level] == DepDir::Gt)
      W[Level] = DepDir::Lt;
    if (!lexNonNegative(W))
      return {false, Dep.describe(), Dep};
  }
  return {};
}

Legality
DependenceInfo::isLegalInterchange(std::span<const unsigned> Perm) const {
  if (Legality Basis = checkOracleBasis(); !Basis)
    return Basis;
  if (Perm.size() > getDepth())
    return {false, "the nest is not deep enough for the requested "
                   "permutation"};
  for (unsigned P : Perm)
    if (P >= Perm.size())
      return {false, "invalid permutation"};
  for (const Dependence &Dep : Deps) {
    std::vector<DepDir> W = Dep.Dirs;
    for (unsigned P = 0; P < Perm.size(); ++P)
      W[P] = Dep.Dirs[Perm[P]];
    if (!lexNonNegative(W))
      return {false, Dep.describe(), Dep};
  }
  return {};
}

Legality DependenceInfo::isLegalInterchange(unsigned I, unsigned J) const {
  std::vector<unsigned> Perm(std::max(I, J) + 1);
  for (unsigned P = 0; P < Perm.size(); ++P)
    Perm[P] = P;
  std::swap(Perm[I], Perm[J]);
  return isLegalInterchange(Perm);
}

Legality DependenceInfo::isLegalFuse(const DependenceInfo &First,
                                     const DependenceInfo &Second) {
  if (Legality Basis = First.checkOracleBasis(); !Basis)
    return Basis;
  if (Legality Basis = Second.checkOracleBasis(); !Basis)
    return Basis;

  // Fusing runs iteration t of Second before iterations t+1.. of First.
  // Originally all of First preceded all of Second, so the fusion is
  // illegal exactly when some access pair (x in First at t1, y in Second
  // at t2) touches the same element with t1 > t2.
  auto HazardOn = [](const DependenceInfo &Info, const VarDecl *Base) {
    for (const Dependence &D : Info.Deps)
      if ((D.Base == Base || !D.Base) &&
          !D.Dirs.empty() && D.Dirs[0] == DepDir::Any)
        return true;
    return false;
  };

  for (const AccessSummary &X : First.Summaries) {
    for (const AccessSummary &Y : Second.Summaries) {
      if (X.Base != Y.Base || (!X.IsWrite && !Y.IsWrite))
        continue;
      if (HazardOn(First, X.Base) || HazardOn(Second, Y.Base))
        return {false, "accesses to '" + std::string(X.Base->getName()) +
                           "' are not fully analyzable in one of the loops"};
      if (X.Dims.size() != Y.Dims.size())
        return {false, "accesses to '" + std::string(X.Base->getName()) +
                           "' use different subscript ranks"};
      // Solve per dimension: A0*t1 + K_x = A0*t2 + K_y  =>  t1-t2 = dK/A0.
      std::optional<std::int64_t> Delta;
      bool NoDep = false;
      bool Unknown = false;
      for (unsigned D = 0; D < X.Dims.size() && !NoDep && !Unknown; ++D) {
        const auto &DX = X.Dims[D];
        const auto &DY = Y.Dims[D];
        if (DX.InnerUse || DY.InnerUse || DX.Sym != DY.Sym || !DX.HasK ||
            !DY.HasK || DX.A0 != DY.A0) {
          Unknown = true;
          break;
        }
        std::int64_t DK = DY.K - DX.K;
        if (DX.A0 == 0) {
          if (DK != 0)
            NoDep = true; // constant subscripts touch different elements
          continue;
        }
        if (DK % DX.A0 != 0) {
          NoDep = true;
          continue;
        }
        std::int64_t ThisDelta = DK / DX.A0;
        if (Delta && *Delta != ThisDelta)
          NoDep = true;
        else
          Delta = ThisDelta;
      }
      if (NoDep)
        continue;
      std::string Name(X.Base->getName());
      if (Unknown)
        return {false,
                "accesses to '" + Name + "' cannot be compared across the "
                                         "two loops"};
      // A conflicting pair: X ran before Y originally, so X is the source.
      Dependence Dep;
      Dep.Kind = !X.IsWrite  ? DepKind::Anti
                 : Y.IsWrite ? DepKind::Output
                             : DepKind::Flow;
      Dep.Base = X.Base;
      Dep.SrcLoc = X.Loc;
      Dep.SinkLoc = Y.Loc;
      if (!Delta) {
        // Same element in every iteration pair: any t1 > t2 conflicts.
        Dep.Detail = "the same element in every iteration of both loops";
        return {false, Dep.describe(), Dep};
      }
      std::int64_t D = *Delta; // t1 - t2 of a conflicting pair
      bool InRange = D >= 1;
      if (InRange && First.Loops[0].TripCount &&
          D > *First.Loops[0].TripCount - 1)
        InRange = false;
      if (InRange) {
        Dep.Detail = "iteration t+" + std::to_string(D) +
                     " of the first loop and iteration t of the second";
        return {false, Dep.describe(), Dep};
      }
    }
  }
  return {};
}

Legality DependenceInfo::isLegalDistribute() const {
  if (Legality Basis = checkOracleBasis(); !Basis)
    return Basis;
  if (Loops.empty())
    return {false, "no loop to distribute"};
  // Groups are the top-level statements of the outermost loop's compound
  // body. Distribution runs every iteration of group g before any
  // iteration of group g+1, so it is illegal exactly when a dependence
  // carried by the loop flows from a textually later group to an earlier
  // one (the sink's whole loop would then run before the source).
  const auto *Body = stmt_dyn_cast<CompoundStmt>(Loops[0].Loop->getBody());
  if (!Body || Body->size() <= 1)
    return {}; // one group: distribution is the identity
  std::vector<SourceRange> Groups;
  for (const Stmt *S : Body->body())
    Groups.push_back(S->getSourceRange());
  auto GroupOf = [&](SourceLocation Loc) -> int {
    if (!Loc.isValid())
      return -1;
    for (unsigned G = 0; G < Groups.size(); ++G)
      if (Groups[G].getBegin() <= Loc && Loc <= Groups[G].getEnd())
        return static_cast<int>(G);
    return -1;
  };
  for (const Dependence &Dep : Deps) {
    if (Dep.Dirs.empty() || Dep.Dirs[0] == DepDir::Eq)
      continue; // loop-independent: source order of groups is preserved
    if (Dep.Dirs[0] == DepDir::Any)
      return {false, Dep.describe(), Dep};
    // Canonicalization guarantees the first non-'=' level is '<': the
    // source iteration is earlier. Only a source in a *later* group is
    // reversed by distribution.
    int SrcG = GroupOf(Dep.SrcLoc);
    int SinkG = GroupOf(Dep.SinkLoc);
    if (SrcG < 0 || SinkG < 0)
      return {false,
              "a dependence endpoint could not be attributed to a "
              "statement group: " +
                  Dep.describe(),
              Dep};
    if (SrcG > SinkG)
      return {false,
              Dep.describe() + " flows from statement group " +
                  std::to_string(SrcG + 1) + " back to group " +
                  std::to_string(SinkG + 1),
              Dep};
  }
  return {};
}

const Dependence *
DependenceInfo::findParallelConflict(unsigned ParallelLevels,
                                     const VarDecl *Base) const {
  for (const Dependence &Dep : Deps) {
    if (Base && Dep.Base != Base)
      continue;
    if (Dep.carrierLevel() < std::min<unsigned>(ParallelLevels, getDepth()))
      return &Dep;
  }
  return nullptr;
}

} // namespace mcc::analysis
