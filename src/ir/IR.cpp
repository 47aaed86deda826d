#include "ir/IR.h"

#include <algorithm>

namespace mcc::ir {

const IRType *IRType::getVoid() {
  static constexpr IRType T(TypeKind::Void);
  return &T;
}
const IRType *IRType::getI1() {
  static constexpr IRType T(TypeKind::I1);
  return &T;
}
const IRType *IRType::getI8() {
  static constexpr IRType T(TypeKind::I8);
  return &T;
}
const IRType *IRType::getI32() {
  static constexpr IRType T(TypeKind::I32);
  return &T;
}
const IRType *IRType::getI64() {
  static constexpr IRType T(TypeKind::I64);
  return &T;
}
const IRType *IRType::getDouble() {
  static constexpr IRType T(TypeKind::Double);
  return &T;
}
const IRType *IRType::getPtr() {
  static constexpr IRType T(TypeKind::Ptr);
  return &T;
}

const char *getOpcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Alloca:
    return "alloca";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::GEP:
    return "getelementptr";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::SDiv:
    return "sdiv";
  case Opcode::UDiv:
    return "udiv";
  case Opcode::SRem:
    return "srem";
  case Opcode::URem:
    return "urem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::AShr:
    return "ashr";
  case Opcode::LShr:
    return "lshr";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::FNeg:
    return "fneg";
  case Opcode::ICmp:
    return "icmp";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::ZExt:
    return "zext";
  case Opcode::SExt:
    return "sext";
  case Opcode::Trunc:
    return "trunc";
  case Opcode::SIToFP:
    return "sitofp";
  case Opcode::UIToFP:
    return "uitofp";
  case Opcode::FPToSI:
    return "fptosi";
  case Opcode::FPToUI:
    return "fptoui";
  case Opcode::FPExt:
    return "fpext";
  case Opcode::Br:
    return "br";
  case Opcode::Ret:
    return "ret";
  case Opcode::Call:
    return "call";
  case Opcode::Select:
    return "select";
  case Opcode::Phi:
    return "phi";
  case Opcode::Unreachable:
    return "unreachable";
  }
  return "?";
}

const char *getPredName(CmpPred P) {
  switch (P) {
  case CmpPred::EQ:
    return "eq";
  case CmpPred::NE:
    return "ne";
  case CmpPred::SLT:
    return "slt";
  case CmpPred::SLE:
    return "sle";
  case CmpPred::SGT:
    return "sgt";
  case CmpPred::SGE:
    return "sge";
  case CmpPred::ULT:
    return "ult";
  case CmpPred::ULE:
    return "ule";
  case CmpPred::UGT:
    return "ugt";
  case CmpPred::UGE:
    return "uge";
  case CmpPred::OEQ:
    return "oeq";
  case CmpPred::ONE:
    return "one";
  case CmpPred::OLT:
    return "olt";
  case CmpPred::OLE:
    return "ole";
  case CmpPred::OGT:
    return "ogt";
  case CmpPred::OGE:
    return "oge";
  }
  return "?";
}

BasicBlock *Instruction::getSuccessor(unsigned I) const {
  assert(getOpcode() == Opcode::Br);
  if (isConditionalBr())
    return ir_cast<BasicBlock>(Operands[1 + I]);
  assert(I == 0);
  return ir_cast<BasicBlock>(Operands[0]);
}

void Instruction::setSuccessor(unsigned I, BasicBlock *BB) {
  assert(getOpcode() == Opcode::Br);
  if (isConditionalBr())
    Operands[1 + I] = BB;
  else {
    assert(I == 0);
    Operands[0] = BB;
  }
}

void Instruction::addIncoming(Value *V, BasicBlock *BB) {
  assert(getOpcode() == Opcode::Phi);
  Operands.push_back(V);
  Operands.push_back(BB);
}

BasicBlock *Instruction::getIncomingBlock(unsigned I) const {
  assert(getOpcode() == Opcode::Phi);
  return ir_cast<BasicBlock>(Operands[2 * I + 1]);
}

void Instruction::replaceIncomingBlock(BasicBlock *Old, BasicBlock *New) {
  assert(getOpcode() == Opcode::Phi);
  for (unsigned I = 1; I < Operands.size(); I += 2)
    if (Operands[I] == Old)
      Operands[I] = New;
}

std::vector<BasicBlock *> BasicBlock::predecessors() const {
  std::vector<BasicBlock *> Preds;
  if (!Parent)
    return Preds;
  for (const auto &BB : Parent->blocks()) {
    Instruction *Term = BB->getTerminator();
    if (!Term || Term->getOpcode() != Opcode::Br)
      continue;
    for (unsigned I = 0; I < Term->getNumSuccessors(); ++I)
      if (Term->getSuccessor(I) == this) {
        Preds.push_back(BB.get());
        break;
      }
  }
  return Preds;
}

PredecessorMap computePredecessors(const Function &F) {
  PredecessorMap Preds;
  for (const auto &BB : F.blocks()) {
    Instruction *Term = BB->getTerminator();
    if (!Term || Term->getOpcode() != Opcode::Br)
      continue;
    for (unsigned I = 0; I < Term->getNumSuccessors(); ++I) {
      BasicBlock *Succ = Term->getSuccessor(I);
      // Both arms to one block are a single predecessor entry.
      if (I == 1 && Term->getSuccessor(0) == Succ)
        continue;
      Preds[Succ].push_back(BB.get());
    }
  }
  return Preds;
}

std::vector<BasicBlock *>
Function::createBlocksAfter(BasicBlock *After,
                           const std::vector<std::string> &BlockNames) {
  std::vector<std::unique_ptr<BasicBlock>> New;
  std::vector<BasicBlock *> Raw;
  for (const std::string &Name : BlockNames) {
    New.push_back(std::make_unique<BasicBlock>(uniquify(Name)));
    New.back()->setParent(this);
    Raw.push_back(New.back().get());
  }
  auto It = Blocks.end();
  if (After) {
    It = std::find_if(Blocks.begin(), Blocks.end(),
                      [After](const auto &B) { return B.get() == After; });
    assert(It != Blocks.end() && "After block not in function");
    ++It;
  }
  Blocks.insert(It, std::make_move_iterator(New.begin()),
                std::make_move_iterator(New.end()));
  return Raw;
}

void Function::eraseBlock(BasicBlock *BB) {
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [BB](const auto &B) { return B.get() == BB; });
  assert(It != Blocks.end() && "block not in function");
  Blocks.erase(It);
}

ValueNumbering numberFunctionValues(const Function &F) {
  ValueNumbering VN;
  for (unsigned I = 0; I < F.getNumArgs(); ++I)
    VN.Index[F.getArg(I)] = VN.NumValues++;
  VN.NumArgs = VN.NumValues;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (!I->getType()->isVoid())
        VN.Index[I.get()] = VN.NumValues++;
  return VN;
}

ConstantInt *Module::getInt(const IRType *Ty, std::int64_t V) {
  auto Key = std::make_pair(Ty, V);
  auto It = IntConstants.find(Key);
  if (It != IntConstants.end())
    return It->second.get();
  auto C = std::make_unique<ConstantInt>(Ty, V);
  ConstantInt *Raw = C.get();
  IntConstants[Key] = std::move(C);
  return Raw;
}

ConstantFP *Module::getDouble(double V) {
  auto It = FPConstants.find(V);
  if (It != FPConstants.end())
    return It->second.get();
  auto C = std::make_unique<ConstantFP>(V);
  ConstantFP *Raw = C.get();
  FPConstants[V] = std::move(C);
  return Raw;
}

ConstantNull *Module::getNullPtr() {
  if (!NullPtr)
    NullPtr = std::make_unique<ConstantNull>();
  return NullPtr.get();
}

} // namespace mcc::ir
