//===--- CodeGenFunction.h - Per-function AST -> IR emission ----*- C++ -*-===//
#ifndef MCC_CODEGEN_CODEGENFUNCTION_H
#define MCC_CODEGEN_CODEGENFUNCTION_H

#include "codegen/CodeGenModule.h"

#include <functional>
#include <map>
#include <vector>

namespace mcc {

class CodeGenFunction {
public:
  CodeGenFunction(CodeGenModule &CGM)
      : CGM(CGM), B(CGM.getModule()), OMPB(CGM.getOMPBuilder()) {}

  /// Emits the body of \p FD into its IR function.
  void emitFunction(const FunctionDecl *FD);

  /// Emits the outlined function for a CapturedStmt (early outlining).
  /// Returns the IR function; \p Captures receives the capture order used
  /// for the context array at the call site.
  ir::Function *
  emitOutlinedFunction(const CapturedStmt *CS, const std::string &Name,
                       std::vector<const VarDecl *> &Captures,
                       std::span<OMPClause *const> Clauses);

  // --- Statement emission ---
  void emitStmt(const Stmt *S);
  void emitCompoundStmt(const CompoundStmt *S);
  void emitDeclStmt(const DeclStmt *S);
  void emitVarDecl(const VarDecl *VD);
  void emitIfStmt(const IfStmt *S);
  void emitWhileStmt(const WhileStmt *S);
  void emitDoStmt(const DoStmt *S);
  void emitForStmt(const ForStmt *S, ir::LoopMetadata MD = {});
  void emitReturnStmt(const ReturnStmt *S);
  void emitAttributedStmt(const AttributedStmt *S);

  // --- Expression emission ---
  /// Emits \p E as an rvalue of its IR type.
  ir::Value *emitExpr(const Expr *E);
  /// Emits \p E as an address (lvalue).
  ir::Value *emitLValue(const Expr *E);
  /// Emits \p E and coerces to i1.
  ir::Value *emitCondition(const Expr *E);

  // --- OpenMP (CGOpenMP.cpp) ---
  void emitOMPDirective(const OMPExecutableDirective *D);

private:
  // Legacy (shadow AST) pipeline.
  void emitOMPParallel(const OMPParallelDirective *D);
  void emitOMPLoopDirectiveLegacy(const OMPLoopDirective *D);
  /// Emits the worksharing/simd loop body from the shadow helpers inside
  /// the current function (used both inline and in outlined functions).
  void emitWorkshareFromHelpers(const OMPLoopDirective *D);
  /// A standalone transformation: PreInits + the shadow transformed
  /// statement, or for full/heuristic unroll the loop with unroll metadata.
  void emitOMPTransformLegacy(const OMPLoopTransformationDirective *D);
  /// Combined parallel-for (both pipelines): outlines the region, runs
  /// \p EmitLoop inside the outlined function, and forks it.
  void emitCombinedParallel(
      const OMPLoopBasedDirective *D,
      const std::function<void(CodeGenFunction &)> &EmitLoop);

  // IRBuilder pipeline.
  void emitOMPLoopBasedDirectiveIRBuilder(const OMPLoopBasedDirective *D);
  /// for / simd / for simd (and the loop of parallel for): collapses the
  /// associated loops and applies the worksharing and simd operations.
  void emitWorksharingLoopIRBuilder(const OMPLoopBasedDirective *D);
  /// Recursively emits the loop-construct chain below a directive:
  /// canonical loop nests become CanonicalLoopInfos; nested transformation
  /// directives are applied on the handles. Returns the generated loops
  /// available for consumption; \p Consumed is false for a standalone
  /// transformation, whose heuristic unroll then keeps no loop.
  std::vector<ir::CanonicalLoopInfo *> emitLoopConstruct(const Stmt *S,
                                                         bool Consumed = true);
  /// Emits a perfect nest of OMPCanonicalLoops (distance functions
  /// hoisted), returning one CLI per nest level.
  std::vector<ir::CanonicalLoopInfo *>
  emitCanonicalLoopNest(const OMPCanonicalLoop *Outer);
  /// Evaluates \p CL's distance function at the current insertion point,
  /// returning the trip count (folded to a constant where possible).
  ir::Value *emitCanonicalDistance(const OMPCanonicalLoop *CL);
  /// Materializes \p CL's user loop variable for logical iteration \p IV
  /// via the loop-variable function.
  void emitCanonicalLoopVarBinding(const OMPCanonicalLoop *CL,
                                   ir::Value *IV);
  /// Emits a fuse construct: surrounding siblings plus the fused loop
  /// built by OpenMPIRBuilder::fuseLoops. Returns the fused loop handle.
  ir::CanonicalLoopInfo *emitOMPFuseIRBuilder(const OMPFuseDirective *D);
  /// Emits distribute_loop as one canonical loop per statement group.
  void emitOMPDistributeLoopIRBuilder(const OMPDistributeLoopDirective *D);

  // Common.
  void emitOMPBarrier();
  ir::Value *emitGtid();
  /// Evaluates a captured 'distance' or 'loop-variable' function by
  /// emitting its body inline with parameters bound to \p ParamValues
  /// (addresses or values).
  void emitCapturedFunctionInline(const CapturedStmt *CS,
                                  std::span<ir::Value *const> ParamValues);

  struct ReductionInfo {
    const VarDecl *Var;
    OpenMPReductionOp Op;
    ir::Value *PrivateAddr;
    ir::Value *SharedAddr;
  };
  /// Sets up private/firstprivate/reduction clause variables in the
  /// current function, remapping LocalAddrs. Returns reduction bookkeeping
  /// to be finalized with emitReductionFinalization.
  std::vector<ReductionInfo>
  emitPrivatizationClauses(std::span<OMPClause *const> Clauses);
  void emitReductionFinalization(const std::vector<ReductionInfo> &Rs);

  ir::Value *addressOfDecl(const ValueDecl *D);

  // Break/continue targets.
  struct LoopTargets {
    ir::BasicBlock *BreakTarget;
    ir::BasicBlock *ContinueTarget;
  };

  CodeGenModule &CGM;
  ir::IRBuilder B;
  ir::OpenMPIRBuilder &OMPB;
  ir::Function *CurFn = nullptr;
  const FunctionDecl *CurFnDecl = nullptr;
  std::map<const ValueDecl *, ir::Value *> LocalAddrs;
  std::vector<LoopTargets> LoopStack;
};

} // namespace mcc

#endif // MCC_CODEGEN_CODEGENFUNCTION_H
