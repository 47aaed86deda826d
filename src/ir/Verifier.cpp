//===--- Verifier.cpp - Structural IR validation ---------------------------===//
//
// Catches malformed IR early: unterminated blocks, type mismatches,
// phis inconsistent with predecessors, uses of values from other
// functions... The OpenMPIRBuilder's CanonicalLoopInfo::assertOK builds on
// top of this (loop-skeleton-specific invariants).
//
//===----------------------------------------------------------------------===//
#include "ir/IR.h"

#include <optional>
#include <sstream>
#include <unordered_set>

namespace mcc::ir {

namespace {

class FunctionVerifier {
public:
  explicit FunctionVerifier(const Function &F) : F(F) {}

  std::string run() {
    if (F.isDeclaration())
      return {};
    collectDefinitions();
    for (const auto &BB : F.blocks())
      verifyBlock(*BB);
    return Errors.str();
  }

private:
  void error(const BasicBlock &BB, const Instruction *I,
             const std::string &Msg) {
    Errors << F.getName() << "/" << BB.getName();
    if (I)
      Errors << " (" << getOpcodeName(I->getOpcode()) << ")";
    Errors << ": " << Msg << "\n";
  }

  void collectDefinitions() {
    for (unsigned I = 0; I < F.getNumArgs(); ++I)
      Defined.insert(F.getArg(I));
    for (const auto &BB : F.blocks()) {
      BlocksInFunction.insert(BB.get());
      for (const auto &I : BB->instructions())
        Defined.insert(I.get());
    }
  }

  void verifyOperand(const BasicBlock &BB, const Instruction &I,
                     const Value *Op) {
    switch (Op->getValueKind()) {
    case Value::ValueKind::ConstantInt:
    case Value::ValueKind::ConstantFP:
    case Value::ValueKind::ConstantNull:
    case Value::ValueKind::Global:
    case Value::ValueKind::Function:
      return;
    case Value::ValueKind::BasicBlock:
      if (!BlocksInFunction.count(ir_cast<BasicBlock>(Op)))
        error(BB, &I, "references block from another function");
      return;
    case Value::ValueKind::Argument:
    case Value::ValueKind::Instruction:
      if (!Defined.count(Op))
        error(BB, &I, "operand not defined in this function");
      return;
    }
  }

  void verifyBlock(const BasicBlock &BB) {
    if (BB.empty()) {
      error(BB, nullptr, "empty basic block");
      return;
    }
    if (!BB.getTerminator())
      error(BB, nullptr, "block is not terminated");

    bool SeenNonPhi = false;
    for (std::size_t Index = 0; Index < BB.size(); ++Index) {
      const Instruction &I = *BB.instructions()[Index];
      if (I.isTerminator() && Index + 1 != BB.size())
        error(BB, &I, "terminator in the middle of a block");

      if (I.getOpcode() == Opcode::Phi) {
        if (SeenNonPhi)
          error(BB, &I, "phi after non-phi instruction");
        verifyPhi(BB, I);
      } else {
        SeenNonPhi = true;
      }

      for (const Value *Op : I.operands()) {
        // A phi may use itself through a backedge; anywhere else a
        // self-referencing instruction cannot dominate its own use.
        if (Op == &I && I.getOpcode() != Opcode::Phi)
          error(BB, &I, "instruction uses itself as an operand");
        verifyOperand(BB, I, Op);
      }

      verifyTypes(BB, I);
    }
  }

  /// The predecessor lists, scanned once on the first phi.
  const PredecessorMap &predecessors() {
    if (!PredMap)
      PredMap = computePredecessors(F);
    return *PredMap;
  }

  void verifyPhi(const BasicBlock &BB, const Instruction &I) {
    static const std::vector<BasicBlock *> NoPreds;
    auto It = predecessors().find(&BB);
    const std::vector<BasicBlock *> &Preds =
        It == PredMap->end() ? NoPreds : It->second;
    if (I.getNumIncoming() != Preds.size()) {
      error(BB, &I,
            "phi has " + std::to_string(I.getNumIncoming()) +
                " incoming values but block has " +
                std::to_string(Preds.size()) + " predecessors");
      return;
    }
    for (unsigned P = 0; P < I.getNumIncoming(); ++P) {
      BasicBlock *In = I.getIncomingBlock(P);
      bool Found = false;
      for (BasicBlock *Pred : Preds)
        if (Pred == In)
          Found = true;
      if (!Found)
        error(BB, &I, "phi incoming block is not a predecessor");
      if (I.getIncomingValue(P)->getType() != I.getType())
        error(BB, &I, "phi incoming value type mismatch");
    }
  }

  void verifyTypes(const BasicBlock &BB, const Instruction &I) {
    auto Expect = [&](bool Cond, const char *Msg) {
      if (!Cond)
        error(BB, &I, Msg);
    };
    switch (I.getOpcode()) {
    case Opcode::Sub:
      // Pointer difference: ptr - ptr -> i64 is permitted.
      if (I.getType() == IRType::getI64() &&
          I.getOperand(0)->getType()->isPointer() &&
          I.getOperand(1)->getType()->isPointer())
        break;
      [[fallthrough]];
    case Opcode::Add:
    case Opcode::Mul:
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::AShr:
    case Opcode::LShr:
      Expect(I.getType()->isInteger(), "integer op with non-integer type");
      Expect(I.getOperand(0)->getType() == I.getType() &&
                 I.getOperand(1)->getType() == I.getType(),
             "operand type mismatch");
      break;
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
      Expect(I.getType()->isDouble(), "fp op with non-fp type");
      Expect(I.getOperand(0)->getType() == I.getType() &&
                 I.getOperand(1)->getType() == I.getType(),
             "operand type mismatch");
      break;
    case Opcode::ICmp:
      Expect(I.getType() == IRType::getI1(), "icmp must produce i1");
      Expect(I.getOperand(0)->getType() == I.getOperand(1)->getType(),
             "icmp operand type mismatch");
      break;
    case Opcode::FCmp:
      Expect(I.getType() == IRType::getI1(), "fcmp must produce i1");
      break;
    case Opcode::Alloca:
      Expect(I.getType()->isPointer(), "alloca must produce ptr");
      Expect(I.ElemTy != nullptr, "alloca without element type");
      break;
    case Opcode::Load:
      Expect(I.getOperand(0)->getType()->isPointer(),
             "load address must be ptr");
      break;
    case Opcode::Store:
      Expect(I.getOperand(1)->getType()->isPointer(),
             "store address must be ptr");
      Expect(I.getType()->isVoid(), "store must be void");
      break;
    case Opcode::GEP:
      Expect(I.getOperand(0)->getType()->isPointer(),
             "gep base must be ptr");
      Expect(I.getOperand(1)->getType()->isInteger(),
             "gep index must be integer");
      Expect(I.ElemTy != nullptr, "gep without element type");
      break;
    case Opcode::Call: {
      const auto *Callee = ir_dyn_cast<Function>(I.getOperand(0));
      if (!Callee) {
        error(BB, &I, "call of non-function value");
        break;
      }
      if (I.getNumOperands() - 1 != Callee->getNumArgs()) {
        error(BB, &I, "call arity mismatch for @" + Callee->getName());
        break;
      }
      for (unsigned A = 0; A < Callee->getNumArgs(); ++A)
        if (I.getOperand(A + 1)->getType() !=
            Callee->getArg(A)->getType())
          error(BB, &I,
                "call argument " + std::to_string(A) + " type mismatch");
      Expect(I.getType() == Callee->getReturnType(),
             "call result type mismatch");
      break;
    }
    case Opcode::Ret: {
      const IRType *RetTy = F.getReturnType();
      if (RetTy->isVoid())
        Expect(I.getNumOperands() == 0, "ret with value in void function");
      else {
        Expect(I.getNumOperands() == 1, "ret without value");
        if (I.getNumOperands() == 1)
          Expect(I.getOperand(0)->getType() == RetTy,
                 "ret value type mismatch");
      }
      break;
    }
    case Opcode::Br:
      if (I.isConditionalBr())
        Expect(I.getOperand(0)->getType() == IRType::getI1(),
               "branch condition must be i1");
      break;
    case Opcode::Select:
      Expect(I.getOperand(0)->getType() == IRType::getI1(),
             "select condition must be i1");
      Expect(I.getOperand(1)->getType() == I.getType() &&
                 I.getOperand(2)->getType() == I.getType(),
             "select operand type mismatch");
      break;
    default:
      break;
    }
  }

  const Function &F;
  std::unordered_set<const Value *> Defined;
  std::unordered_set<const BasicBlock *> BlocksInFunction;
  std::optional<PredecessorMap> PredMap;
  std::ostringstream Errors;
};

} // namespace

std::string verifyFunction(const Function &F) {
  return FunctionVerifier(F).run();
}

std::string verifyModule(const Module &M) {
  std::string Errors;
  for (const auto &F : M.functions())
    Errors += verifyFunction(*F);
  return Errors;
}

} // namespace mcc::ir
