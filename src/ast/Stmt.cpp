#include "ast/StmtOpenMP.h"

namespace mcc {

const char *Stmt::getStmtClassName() const {
  switch (SC) {
#define STMT(Class)                                                            \
  case StmtClass::Class:                                                       \
    return #Class;
#include "ast/StmtNodes.def"
  default:
    return "<unknown>";
  }
}

const char *Decl::getDeclClassName() const {
  switch (DC) {
  case DeclClass::TranslationUnit:
    return "TranslationUnitDecl";
  case DeclClass::Var:
    return "VarDecl";
  case DeclClass::ParmVar:
    return "ParmVarDecl";
  case DeclClass::ImplicitParam:
    return "ImplicitParamDecl";
  case DeclClass::Function:
    return "FunctionDecl";
  case DeclClass::Captured:
    return "CapturedDecl";
  }
  return "<unknown>";
}

std::vector<Stmt *> Stmt::children() const {
  std::vector<Stmt *> C;
  auto Add = [&C](Stmt *S) {
    if (S)
      C.push_back(S);
  };

  switch (SC) {
  case StmtClass::NullStmt:
  case StmtClass::BreakStmt:
  case StmtClass::ContinueStmt:
  case StmtClass::IntegerLiteral:
  case StmtClass::FloatingLiteral:
  case StmtClass::BoolLiteral:
  case StmtClass::StringLiteral:
  case StmtClass::DeclRefExpr:
    break;
  case StmtClass::CompoundStmt:
    for (Stmt *S : stmt_cast<CompoundStmt>(this)->body())
      Add(S);
    break;
  case StmtClass::DeclStmt:
    // The initializers are reachable through the declarations; like Clang,
    // DeclStmt::children() exposes the init expressions.
    for (VarDecl *D : stmt_cast<DeclStmt>(this)->decls())
      Add(D->getInit());
    break;
  case StmtClass::IfStmt: {
    const auto *S = stmt_cast<IfStmt>(this);
    Add(S->getCond());
    Add(S->getThen());
    Add(S->getElse());
    break;
  }
  case StmtClass::WhileStmt: {
    const auto *S = stmt_cast<WhileStmt>(this);
    Add(S->getCond());
    Add(S->getBody());
    break;
  }
  case StmtClass::DoStmt: {
    const auto *S = stmt_cast<DoStmt>(this);
    Add(S->getBody());
    Add(S->getCond());
    break;
  }
  case StmtClass::ForStmt: {
    const auto *S = stmt_cast<ForStmt>(this);
    Add(S->getInit());
    Add(S->getCond());
    Add(S->getInc());
    Add(S->getBody());
    break;
  }
  case StmtClass::ReturnStmt:
    Add(stmt_cast<ReturnStmt>(this)->getValue());
    break;
  case StmtClass::AttributedStmt:
    Add(stmt_cast<AttributedStmt>(this)->getSubStmt());
    break;
  case StmtClass::CapturedStmt:
    Add(stmt_cast<CapturedStmt>(this)->getCapturedStmt());
    break;
  case StmtClass::OMPCanonicalLoop: {
    const auto *S = stmt_cast<OMPCanonicalLoop>(this);
    Add(S->getLoopStmt());
    Add(S->getDistanceFunc());
    Add(S->getLoopVarFunc());
    Add(S->getLoopVarRef());
    break;
  }
  case StmtClass::ImplicitCastExpr:
    Add(stmt_cast<ImplicitCastExpr>(this)->getSubExpr());
    break;
  case StmtClass::ParenExpr:
    Add(stmt_cast<ParenExpr>(this)->getSubExpr());
    break;
  case StmtClass::UnaryOperator:
    Add(stmt_cast<UnaryOperator>(this)->getSubExpr());
    break;
  case StmtClass::BinaryOperator: {
    const auto *E = stmt_cast<BinaryOperator>(this);
    Add(E->getLHS());
    Add(E->getRHS());
    break;
  }
  case StmtClass::ConditionalOperator: {
    const auto *E = stmt_cast<ConditionalOperator>(this);
    Add(E->getCond());
    Add(E->getTrueExpr());
    Add(E->getFalseExpr());
    break;
  }
  case StmtClass::CallExpr: {
    const auto *E = stmt_cast<CallExpr>(this);
    Add(E->getCallee());
    for (Expr *A : E->arguments())
      Add(A);
    break;
  }
  case StmtClass::ArraySubscriptExpr: {
    const auto *E = stmt_cast<ArraySubscriptExpr>(this);
    Add(E->getBase());
    Add(E->getIndex());
    break;
  }
  case StmtClass::ConstantExpr:
    Add(stmt_cast<ConstantExpr>(this)->getSubExpr());
    break;
  // OpenMP directives: only the associated statement. Clauses and shadow
  // AST (transformed statements, loop helpers) are intentionally NOT
  // enumerated (paper Section 1.2, footnote 1).
  case StmtClass::OMPParallelDirective:
  case StmtClass::OMPBarrierDirective:
  case StmtClass::OMPCriticalDirective:
  case StmtClass::OMPSingleDirective:
  case StmtClass::OMPMasterDirective:
  case StmtClass::OMPForDirective:
  case StmtClass::OMPParallelForDirective:
  case StmtClass::OMPSimdDirective:
  case StmtClass::OMPForSimdDirective:
  case StmtClass::OMPTileDirective:
  case StmtClass::OMPUnrollDirective:
  case StmtClass::OMPReverseDirective:
  case StmtClass::OMPInterchangeDirective:
  case StmtClass::OMPFuseDirective:
  case StmtClass::OMPDistributeLoopDirective:
    Add(stmt_cast<OMPExecutableDirective>(this)->getAssociatedStmt());
    break;
  case StmtClass::NUM_STMT_CLASSES:
    break;
  }
  return C;
}

Expr *Expr::ignoreParenImpCasts() {
  Expr *E = this;
  while (true) {
    if (auto *P = stmt_dyn_cast<ParenExpr>(E)) {
      E = P->getSubExpr();
      continue;
    }
    if (auto *C = stmt_dyn_cast<ImplicitCastExpr>(E)) {
      E = C->getSubExpr();
      continue;
    }
    if (auto *CE = stmt_dyn_cast<ConstantExpr>(E)) {
      E = CE->getSubExpr();
      continue;
    }
    return E;
  }
}

Expr *Expr::ignoreParens() {
  Expr *E = this;
  while (auto *P = stmt_dyn_cast<ParenExpr>(E))
    E = P->getSubExpr();
  return E;
}

FunctionDecl *CallExpr::getDirectCallee() const {
  const Expr *C = Callee->ignoreParenImpCasts();
  if (const auto *DRE = stmt_dyn_cast<DeclRefExpr>(C))
    return decl_dyn_cast<FunctionDecl>(DRE->getDecl());
  return nullptr;
}

Stmt *OMPExecutableDirective::getInnermostAssociatedStmt() const {
  Stmt *S = AssociatedStmt;
  while (auto *CS = stmt_dyn_cast<CapturedStmt>(S))
    S = CS->getCapturedStmt();
  return S;
}

Stmt *skipLoopWrappers(Stmt *S, bool KeepCanonicalLoop) {
  for (;;) {
    if (auto *Cap = stmt_dyn_cast<CapturedStmt>(S))
      S = Cap->getCapturedStmt();
    else if (auto *CL = stmt_dyn_cast<OMPCanonicalLoop>(S);
             CL && !KeepCanonicalLoop)
      S = CL->getLoopStmt();
    else if (auto *CS = stmt_dyn_cast<CompoundStmt>(S); CS && CS->size() == 1)
      S = CS->body()[0];
    else
      return S;
  }
}

Stmt *skipToGeneratedLoop(
    Stmt *S,
    const std::function<void(OMPLoopTransformationDirective *)> &OnTransform) {
  for (;;) {
    S = skipLoopWrappers(S);
    auto *TD = stmt_dyn_cast<OMPLoopTransformationDirective>(S);
    if (!TD || !TD->getTransformedStmt())
      return S;
    if (OnTransform)
      OnTransform(TD);
    S = TD->getTransformedStmt();
  }
}

const char *getCastKindName(CastKind CK) {
  switch (CK) {
  case CastKind::LValueToRValue:
    return "LValueToRValue";
  case CastKind::IntegralCast:
    return "IntegralCast";
  case CastKind::IntegralToBoolean:
    return "IntegralToBoolean";
  case CastKind::IntegralToFloating:
    return "IntegralToFloating";
  case CastKind::FloatingToIntegral:
    return "FloatingToIntegral";
  case CastKind::FloatingCast:
    return "FloatingCast";
  case CastKind::FloatingToBoolean:
    return "FloatingToBoolean";
  case CastKind::PointerToBoolean:
    return "PointerToBoolean";
  case CastKind::ArrayToPointerDecay:
    return "ArrayToPointerDecay";
  case CastKind::FunctionToPointerDecay:
    return "FunctionToPointerDecay";
  case CastKind::NoOp:
    return "NoOp";
  }
  return "?";
}

const char *getUnaryOperatorSpelling(UnaryOperatorKind Op) {
  switch (Op) {
  case UnaryOperatorKind::PostInc:
  case UnaryOperatorKind::PreInc:
    return "++";
  case UnaryOperatorKind::PostDec:
  case UnaryOperatorKind::PreDec:
    return "--";
  case UnaryOperatorKind::Plus:
    return "+";
  case UnaryOperatorKind::Minus:
    return "-";
  case UnaryOperatorKind::LNot:
    return "!";
  case UnaryOperatorKind::Not:
    return "~";
  case UnaryOperatorKind::Deref:
    return "*";
  case UnaryOperatorKind::AddrOf:
    return "&";
  }
  return "?";
}

const char *getBinaryOperatorSpelling(BinaryOperatorKind Op) {
  switch (Op) {
  case BinaryOperatorKind::Mul:
    return "*";
  case BinaryOperatorKind::Div:
    return "/";
  case BinaryOperatorKind::Rem:
    return "%";
  case BinaryOperatorKind::Add:
    return "+";
  case BinaryOperatorKind::Sub:
    return "-";
  case BinaryOperatorKind::Shl:
    return "<<";
  case BinaryOperatorKind::Shr:
    return ">>";
  case BinaryOperatorKind::LT:
    return "<";
  case BinaryOperatorKind::GT:
    return ">";
  case BinaryOperatorKind::LE:
    return "<=";
  case BinaryOperatorKind::GE:
    return ">=";
  case BinaryOperatorKind::EQ:
    return "==";
  case BinaryOperatorKind::NE:
    return "!=";
  case BinaryOperatorKind::And:
    return "&";
  case BinaryOperatorKind::Xor:
    return "^";
  case BinaryOperatorKind::Or:
    return "|";
  case BinaryOperatorKind::LAnd:
    return "&&";
  case BinaryOperatorKind::LOr:
    return "||";
  case BinaryOperatorKind::Assign:
    return "=";
  case BinaryOperatorKind::MulAssign:
    return "*=";
  case BinaryOperatorKind::DivAssign:
    return "/=";
  case BinaryOperatorKind::RemAssign:
    return "%=";
  case BinaryOperatorKind::AddAssign:
    return "+=";
  case BinaryOperatorKind::SubAssign:
    return "-=";
  case BinaryOperatorKind::AndAssign:
    return "&=";
  case BinaryOperatorKind::XorAssign:
    return "^=";
  case BinaryOperatorKind::OrAssign:
    return "|=";
  case BinaryOperatorKind::Comma:
    return ",";
  }
  return "?";
}

} // namespace mcc
