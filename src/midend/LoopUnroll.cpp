//===--- LoopUnroll.cpp - Metadata-driven loop unrolling --------------------===//
#include "midend/LoopUnroll.h"

#include "midend/Cloning.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>

namespace mcc::midend {

using namespace ir;

namespace {

/// The recognized loop structure. Two shapes:
///   (a) alloca-form, front-end loops: Header == CondBlock carries the
///       exiting comparison (IV lives in memory);
///   (b) canonical skeleton: Header holds the IV phi and falls through to
///       a separate CondBlock.
struct LoopShape {
  BasicBlock *Preheader = nullptr; // last header predecessor besides Latch
  BasicBlock *Header = nullptr;
  BasicBlock *CondBlock = nullptr;
  Instruction *CondBr = nullptr;
  BasicBlock *BodyEntry = nullptr;
  BasicBlock *Latch = nullptr;
  Instruction *LatchBr = nullptr;
  BasicBlock *Exit = nullptr;
  std::vector<BasicBlock *> Blocks; // header..latch, function order
  std::vector<Instruction *> HeaderPhis;
  // Shape (b) extras:
  Instruction *IVPhi = nullptr;
  Value *TripCount = nullptr; // cmp bound when phi starts at 0, step 1
};

/// The blocks \p BB branches to, each once: the edges
/// BasicBlock::predecessors() counts.
std::vector<BasicBlock *> successors(const BasicBlock *BB) {
  std::vector<BasicBlock *> Succs;
  if (Instruction *T = BB->getTerminator())
    for (unsigned S = 0; S < T->getNumSuccessors(); ++S)
      if (std::find(Succs.begin(), Succs.end(), T->getSuccessor(S)) ==
          Succs.end())
        Succs.push_back(T->getSuccessor(S));
  return Succs;
}

/// The predecessor lists of one function, built once by
/// computePredecessors() and kept current across the loops unrolled in
/// it. Only membership is kept exact: an updated list is no longer in
/// block order.
struct PredecessorLists {
  PredecessorMap Map;

  /// Replaces the edges out of \p BB, which went to \p OldSuccs, with
  /// the edges of its current terminator.
  void update(BasicBlock *BB, const std::vector<BasicBlock *> &OldSuccs) {
    for (BasicBlock *S : OldSuccs) {
      std::vector<BasicBlock *> &Preds = Map[S];
      Preds.erase(std::find(Preds.begin(), Preds.end(), BB));
    }
    for (BasicBlock *S : successors(BB))
      Map[S].push_back(BB);
  }
};

bool analyzeLoop(Function &F, PredecessorMap &Preds, Instruction *LatchBr,
                 LoopShape &L) {
  if (LatchBr->getOpcode() != Opcode::Br || LatchBr->isConditionalBr())
    return false;
  L.LatchBr = LatchBr;
  L.Latch = LatchBr->getParent();
  L.Header = LatchBr->getSuccessor(0);

  if (!L.Header->getTerminator())
    return false;

  // Collect the loop blocks: backward reachability from the latch,
  // stopping at the header.
  std::set<BasicBlock *> InLoop = {L.Header};
  std::vector<BasicBlock *> Work = {L.Latch};
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    if (InLoop.count(BB))
      continue;
    InLoop.insert(BB);
    for (BasicBlock *Pred : Preds[BB])
      if (!InLoop.count(Pred))
        Work.push_back(Pred);
  }
  // Keep function order for readable output. The preheader is the
  // header's last predecessor in that order besides the latch.
  const std::vector<BasicBlock *> &HeaderPreds = Preds[L.Header];
  for (const auto &BB : F.blocks()) {
    if (InLoop.count(BB.get()))
      L.Blocks.push_back(BB.get());
    if (BB.get() != L.Latch && std::find(HeaderPreds.begin(), HeaderPreds.end(),
                                         BB.get()) != HeaderPreds.end())
      L.Preheader = BB.get();
  }

  // Find the (single) exiting block. Multi-block loop conditions (e.g. the
  // strip-mine conditions "iv < tile && iv < n" built with &&) put the
  // exiting branch several blocks after the header.
  for (BasicBlock *BB : L.Blocks) {
    Instruction *Term = BB->getTerminator();
    if (!Term || !Term->isConditionalBr())
      continue;
    BasicBlock *Succ0 = Term->getSuccessor(0);
    BasicBlock *Succ1 = Term->getSuccessor(1);
    bool In0 = InLoop.count(Succ0) != 0;
    bool In1 = InLoop.count(Succ1) != 0;
    if (In0 == In1)
      continue; // internal control flow
    if (L.CondBlock)
      return false; // multiple exits: unsupported
    L.CondBlock = BB;
    L.CondBr = Term;
    L.BodyEntry = In0 ? Succ0 : Succ1;
    L.Exit = In0 ? Succ1 : Succ0;
  }
  if (!L.CondBlock)
    return false;
  if (L.Exit->front() &&
      L.Exit->front()->getOpcode() == Opcode::Phi)
    return false; // exit phis not supported (not produced by our codegen)

  for (const auto &I : L.Header->instructions())
    if (I->getOpcode() == Opcode::Phi)
      L.HeaderPhis.push_back(I.get());

  // Shape (b) trip-count recognition: phi [0, pre], [phi+1, latch];
  // cond: icmp ult phi, N.
  if (L.HeaderPhis.size() == 1 && L.CondBlock != L.Header) {
    Instruction *Phi = L.HeaderPhis[0];
    bool InitZero = false, StepOne = false;
    for (unsigned P = 0; P < Phi->getNumIncoming(); ++P) {
      Value *V = Phi->getIncomingValue(P);
      if (Phi->getIncomingBlock(P) == L.Latch) {
        if (auto *Add = ir_dyn_cast<Instruction>(V))
          if (Add->getOpcode() == Opcode::Add &&
              Add->getOperand(0) == Phi)
            if (auto *C = ir_dyn_cast<ConstantInt>(Add->getOperand(1)))
              StepOne = C->getValue() == 1;
      } else if (auto *C = ir_dyn_cast<ConstantInt>(V)) {
        InitZero = C->getValue() == 0;
      }
    }
    Instruction *Cmp = nullptr;
    for (const auto &I : L.CondBlock->instructions())
      if (I->getOpcode() == Opcode::ICmp)
        Cmp = I.get();
    if (InitZero && StepOne && Cmp && Cmp->Pred == CmpPred::ULT &&
        Cmp->getOperand(0) == Phi) {
      L.IVPhi = Phi;
      L.TripCount = Cmp->getOperand(1);
    }
  }
  return true;
}

/// Constant trip count for shape (b) (phi IV, init 0, step 1, ult bound).
std::int64_t getConstantTripCount(const LoopShape &L) {
  if (!L.TripCount)
    return -1;
  if (const auto *C = ir_dyn_cast<ConstantInt>(L.TripCount))
    return C->getValue();
  return -1;
}

unsigned loopBodySize(const LoopShape &L) {
  unsigned N = 0;
  for (const BasicBlock *BB : L.Blocks)
    N += static_cast<unsigned>(BB->size());
  return N;
}

void clearMD(Instruction *Br) {
  Br->LoopMD = LoopMetadata{};
  Br->LoopMD.UnrollDisable = true;
}

/// Unrolls by chaining K-1 clones of the whole header..latch region; every
/// copy keeps its exit check ("conditional within the loop" variant).
void unrollConditionalExit(Function &F, LoopShape &L, unsigned K,
                           std::vector<BasicBlock *> &NewBlocks) {
  ValueMap PrevMap; // empty = identity (copy 0 is the original)
  BasicBlock *PrevLatch = L.Latch;
  Instruction *PrevLatchBr = L.LatchBr;
  BasicBlock *InsertAfter = L.Latch;
  ValueMap LastMap;

  for (unsigned J = 1; J < K; ++J) {
    ValueMap VMap;
    // Header phis are substituted by the previous copy's "next" value.
    for (Instruction *Phi : L.HeaderPhis) {
      Value *FromLatch = nullptr;
      for (unsigned P = 0; P < Phi->getNumIncoming(); ++P)
        if (Phi->getIncomingBlock(P) == L.Latch)
          FromLatch = Phi->getIncomingValue(P);
      assert(FromLatch);
      VMap[Phi] = remap(PrevMap, FromLatch);
    }
    std::vector<BasicBlock *> Clones =
        cloneBlocks(F, L.Blocks, VMap, InsertAfter,
                    ".unroll" + std::to_string(J));
    InsertAfter = Clones.back();
    NewBlocks.insert(NewBlocks.end(), Clones.begin(), Clones.end());

    BasicBlock *HeaderClone = ir_cast<BasicBlock>(VMap.at(L.Header));
    auto *LatchClone = ir_cast<BasicBlock>(VMap.at(L.Latch));
    Instruction *LatchCloneBr = LatchClone->getTerminator();
    // The cloned back edge goes to the original header (it may be
    // retargeted to the next copy in the following iteration).
    LatchCloneBr->setSuccessor(0, L.Header);
    clearMD(LatchCloneBr);
    // The previous copy now falls through to this one.
    PrevLatchBr->setSuccessor(0, HeaderClone);

    PrevMap = std::move(VMap);
    PrevLatch = LatchClone;
    PrevLatchBr = LatchCloneBr;
    LastMap = PrevMap;
  }

  // The original header's phis now receive their back-edge values from the
  // last copy's latch.
  if (K > 1)
    for (Instruction *Phi : L.HeaderPhis)
      for (unsigned P = 0; P < Phi->getNumIncoming(); ++P)
        if (Phi->getIncomingBlock(P) == L.Latch) {
          Phi->setOperand(2 * P, remap(LastMap, Phi->getIncomingValue(P)));
          Phi->setOperand(2 * P + 1, PrevLatch);
        }
  clearMD(L.LatchBr);
}

} // namespace

// The remainder strategy needs the Module (for constants); implement the
// real logic here with full context.
namespace {

struct UnrollContext {
  Module &M;
  Function &F;
  LoopUnrollOptions Opts;
  LoopUnrollStats &Stats;
  PredecessorLists &Preds;
  std::vector<BasicBlock *> NewBlocks; // created by the current unroll
};

void doUnrollWithRemainder(UnrollContext &Ctx, LoopShape &L, unsigned K) {
  Function &F = Ctx.F;
  Module &M = Ctx.M;
  const IRType *IVTy = L.IVPhi->getType();

  BasicBlock *Preheader = L.Preheader;
  assert(Preheader && "loop without preheader");

  // 1. Remainder loop: full clone, running [mainTrip, trip).
  ValueMap RemMap;
  Ctx.NewBlocks =
      cloneBlocks(F, L.Blocks, RemMap, L.Blocks.back(), ".remainder");
  auto *RemHeader = ir_cast<BasicBlock>(RemMap.at(L.Header));
  auto *RemPhi = ir_cast<Instruction>(RemMap.at(L.IVPhi));
  auto *RemLatch = ir_cast<BasicBlock>(RemMap.at(L.Latch));
  clearMD(RemLatch->getTerminator());

  // 2. mainTrip = trip - trip % K, computed in the preheader.
  std::unique_ptr<Instruction> PreTerm =
      Preheader->take(Preheader->size() - 1);
  ConstantInt *KC = M.getInt(IVTy, static_cast<std::int64_t>(K));
  auto *Rem = new Instruction(Opcode::URem, IVTy,
                              {L.TripCount, KC}, "unroll.rem");
  Preheader->append(std::unique_ptr<Instruction>(Rem));
  auto *MainTrip = new Instruction(Opcode::Sub, IVTy,
                                   {L.TripCount, Rem}, "unroll.maintrip");
  Preheader->append(std::unique_ptr<Instruction>(MainTrip));
  Preheader->append(std::move(PreTerm));

  // Main loop bound becomes mainTrip.
  Instruction *MainCmp = nullptr;
  for (const auto &I : L.CondBlock->instructions())
    if (I->getOpcode() == Opcode::ICmp)
      MainCmp = I.get();
  assert(MainCmp);
  MainCmp->setOperand(1, MainTrip);

  // Main loop exit flows into the remainder loop.
  for (unsigned S = 0; S < L.CondBr->getNumSuccessors(); ++S)
    if (L.CondBr->getSuccessor(S) == L.Exit)
      L.CondBr->setSuccessor(S, RemHeader);

  // Remainder phi: entry value mainTrip, entering from the main cond
  // block.
  for (unsigned P = 0; P < RemPhi->getNumIncoming(); ++P)
    if (RemPhi->getIncomingBlock(P) != RemLatch) {
      RemPhi->setOperand(2 * P, MainTrip);
      RemPhi->setOperand(2 * P + 1, L.CondBlock);
    }

  // 3. Replicate the body region (without header/cond checks) K-1 times
  //    inside the main loop.
  std::vector<BasicBlock *> BodyRegion;
  for (BasicBlock *BB : L.Blocks)
    if (BB != L.Header && BB != L.CondBlock)
      BodyRegion.push_back(BB);

  ValueMap PrevMap;
  BasicBlock *InsertAfter = L.Latch;
  Instruction *PrevLatchBr = L.LatchBr;
  ValueMap LastMap;
  for (unsigned J = 1; J < K; ++J) {
    ValueMap VMap;
    std::vector<BasicBlock *> Clones = cloneBlocks(
        F, BodyRegion, VMap, InsertAfter, ".unroll" + std::to_string(J));
    InsertAfter = Clones.back();
    Ctx.NewBlocks.insert(Ctx.NewBlocks.end(), Clones.begin(), Clones.end());
    auto *BodyClone = ir_cast<BasicBlock>(VMap.at(L.BodyEntry));
    auto *LatchClone = ir_cast<BasicBlock>(VMap.at(L.Latch));
    Instruction *LatchCloneBr = LatchClone->getTerminator();

    // iv_j = iv + J, prepended to the cloned body entry; all cloned uses
    // of the phi are rewritten to it.
    auto *IVJ = new Instruction(Opcode::Add, IVTy,
                                {L.IVPhi, M.getInt(IVTy, J)},
                                "iv.unroll" + std::to_string(J));
    BodyClone->insertAt(0, std::unique_ptr<Instruction>(IVJ));
    for (BasicBlock *CB : Clones)
      for (const auto &I : CB->instructions())
        for (unsigned OpIdx = 0; OpIdx < I->getNumOperands(); ++OpIdx)
          if (I->getOperand(OpIdx) == L.IVPhi && I.get() != IVJ)
            I->setOperand(OpIdx, IVJ);

    LatchCloneBr->setSuccessor(0, L.Header);
    clearMD(LatchCloneBr);
    PrevLatchBr->setSuccessor(0, BodyClone);
    PrevMap = std::move(VMap);
    PrevLatchBr = LatchCloneBr;
    LastMap = PrevMap;
  }

  // The phi's back-edge now comes from the last copy's latch with value
  // iv + K (the cloned increment computes (iv + (K-1)) + 1).
  if (K > 1)
    for (unsigned P = 0; P < L.IVPhi->getNumIncoming(); ++P)
      if (L.IVPhi->getIncomingBlock(P) == L.Latch) {
        L.IVPhi->setOperand(
            2 * P, remap(LastMap, L.IVPhi->getIncomingValue(P)));
        L.IVPhi->setOperand(2 * P + 1,
                            remap(LastMap, static_cast<Value *>(L.Latch)));
      }
  clearMD(L.LatchBr);
  ++Ctx.Stats.LoopsWithRemainder;
}

void processLoop(UnrollContext &Ctx, Instruction *LatchBr) {
  LoopMetadata MD = LatchBr->LoopMD;
  LoopShape L;
  if (!analyzeLoop(Ctx.F, Ctx.Preds.Map, LatchBr, L)) {
    ++Ctx.Stats.LoopsSkipped;
    LatchBr->LoopMD.UnrollDisable = true;
    return;
  }

  unsigned K = 0;
  bool WantFull = MD.UnrollFull;
  if (MD.UnrollCount > 0)
    K = MD.UnrollCount;
  else if (WantFull) {
    std::int64_t Trip = getConstantTripCount(L);
    if (Trip >= 0 &&
        Trip <= static_cast<std::int64_t>(Ctx.Opts.FullUnrollMax)) {
      K = Trip == 0 ? 1 : static_cast<unsigned>(Trip);
      ++Ctx.Stats.LoopsFullyUnrolled;
    } else {
      K = Ctx.Opts.HeuristicFactor; // too large/unknown: partial fallback
    }
  } else if (MD.UnrollEnable) {
    // Profitability heuristic: only small bodies.
    if (Ctx.Opts.HeuristicFactor == 0 ||
        loopBodySize(L) > Ctx.Opts.HeuristicSizeLimit) {
      ++Ctx.Stats.LoopsSkipped;
      clearMD(LatchBr);
      return;
    }
    K = Ctx.Opts.HeuristicFactor;
  }
  if (K <= 1) {
    clearMD(LatchBr);
    if (K == 1)
      ++Ctx.Stats.LoopsUnrolled;
    return;
  }

  bool CanRemainder = L.IVPhi != nullptr && L.TripCount != nullptr;
  bool UseRemainder;
  switch (Ctx.Opts.Strat) {
  case LoopUnrollOptions::Strategy::Remainder:
    UseRemainder = CanRemainder;
    break;
  case LoopUnrollOptions::Strategy::ConditionalExit:
    UseRemainder = false;
    break;
  case LoopUnrollOptions::Strategy::Auto:
  default:
    // Full unrolling of a constant-trip loop needs no remainder and no
    // extra conditionals only when the count divides; conditional-exit is
    // exact for it.
    UseRemainder = CanRemainder && !WantFull;
    break;
  }

  // Only the loop's own blocks and the clones change their terminators.
  std::vector<std::vector<BasicBlock *>> OldSuccs;
  for (BasicBlock *BB : L.Blocks)
    OldSuccs.push_back(successors(BB));
  if (UseRemainder)
    doUnrollWithRemainder(Ctx, L, K);
  else
    unrollConditionalExit(Ctx.F, L, K, Ctx.NewBlocks);
  for (std::size_t I = 0; I < L.Blocks.size(); ++I)
    Ctx.Preds.update(L.Blocks[I], OldSuccs[I]);
  for (BasicBlock *BB : Ctx.NewBlocks)
    Ctx.Preds.update(BB, {});
  ++Ctx.Stats.LoopsUnrolled;
}

} // namespace

LoopUnrollStats runLoopUnroll(Module &M, const LoopUnrollOptions &Opts) {
  LoopUnrollStats Stats;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    std::optional<PredecessorLists> Preds; // built at the first loop
    // One scan in block order. Processing a loop inserts its clones after
    // the latch being visited and leaves that latch unannotated; no block
    // before it changes its terminator. So the scan goes on from there
    // and still meets every annotated loop unrolling exposes (e.g. the
    // floor loop of a tiled partial unroll, cloned into the new blocks).
    for (std::size_t Idx = 0; Idx < F->blocks().size(); ++Idx) {
      Instruction *Term = F->blocks()[Idx]->getTerminator();
      if (!Term || Term->getOpcode() != Opcode::Br ||
          Term->isConditionalBr())
        continue;
      if (!Term->LoopMD.any() || Term->LoopMD.UnrollDisable)
        continue;
      if (!Term->LoopMD.UnrollFull && !Term->LoopMD.UnrollEnable &&
          Term->LoopMD.UnrollCount == 0) {
        // Only vectorize hints: nothing for this pass.
        continue;
      }
      if (!Preds)
        Preds = PredecessorLists{computePredecessors(*F)};
      UnrollContext Ctx{M, *F, Opts, Stats, *Preds, {}};
      processLoop(Ctx, Term);
    }
  }
  return Stats;
}

} // namespace mcc::midend
