#include "midend/Cloning.h"

#include <cassert>

namespace mcc::midend {

using namespace ir;

std::vector<BasicBlock *>
cloneBlocks(Function &F, const std::vector<BasicBlock *> &Blocks,
            ValueMap &VMap, BasicBlock *InsertAfter,
            const std::string &Suffix) {
  // First create the empty clone blocks so branches can be remapped.
  std::vector<std::string> Names;
  for (BasicBlock *BB : Blocks)
    Names.push_back(BB->getName() + Suffix);
  std::vector<BasicBlock *> Clones = F.createBlocksAfter(InsertAfter, Names);
  for (std::size_t BI = 0; BI < Blocks.size(); ++BI)
    VMap[Blocks[BI]] = Clones[BI];

  // Pass 1: clone the instructions with their original operands and record
  // the mapping. (Operands may reference instructions cloned later — e.g.
  // a header phi referencing the latch increment — so remapping must wait
  // until every clone exists.)
  std::vector<Instruction *> NewInsts;
  for (std::size_t BI = 0; BI < Blocks.size(); ++BI) {
    BasicBlock *Src = Blocks[BI];
    BasicBlock *Dst = Clones[BI];
    for (const auto &I : Src->instructions()) {
      if (VMap.count(I.get()))
        continue; // pre-substituted (e.g. header phi)
      auto Clone = std::make_unique<Instruction>(
          I->getOpcode(), I->getType(), I->operands(), I->getName());
      Clone->Pred = I->Pred;
      Clone->ElemTy = I->ElemTy;
      Clone->LoopMD = I->LoopMD;
      VMap[I.get()] = Clone.get();
      NewInsts.push_back(Clone.get());
      Dst->append(std::move(Clone));
    }
  }
  // Pass 2: remap every operand through the completed mapping.
  for (Instruction *I : NewInsts)
    for (unsigned OpIdx = 0; OpIdx < I->getNumOperands(); ++OpIdx)
      I->setOperand(OpIdx, remap(VMap, I->getOperand(OpIdx)));
  return Clones;
}

} // namespace mcc::midend
