#include "midend/Passes.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace mcc::midend {

using namespace ir;

namespace {

/// Removes phi-incoming entries whose block died.
void prunePhis(BasicBlock *BB, const std::set<BasicBlock *> &Alive) {
  for (const auto &I : BB->instructions()) {
    if (I->getOpcode() != Opcode::Phi)
      break;
    // Rebuild the operand list without dead incoming blocks.
    std::vector<Value *> Kept;
    for (unsigned P = 0; P < I->getNumIncoming(); ++P)
      if (Alive.count(I->getIncomingBlock(P))) {
        Kept.push_back(I->getIncomingValue(P));
        Kept.push_back(I->getIncomingBlock(P));
      }
    if (Kept.size() != I->getNumOperands())
      I->setOperands(std::move(Kept));
    (void)BB;
  }
}

unsigned removeUnreachable(Function &F) {
  if (F.isDeclaration())
    return 0;
  std::set<BasicBlock *> Reachable;
  std::vector<BasicBlock *> Work = {F.getEntryBlock()};
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    if (!Reachable.insert(BB).second)
      continue;
    if (Instruction *Term = BB->getTerminator())
      for (unsigned S = 0; S < Term->getNumSuccessors(); ++S)
        Work.push_back(Term->getSuccessor(S));
  }
  std::vector<BasicBlock *> Dead;
  for (const auto &BB : F.blocks())
    if (!Reachable.count(BB.get()))
      Dead.push_back(BB.get());
  for (BasicBlock *BB : Reachable)
    prunePhis(BB, Reachable);
  for (BasicBlock *BB : Dead)
    F.eraseBlock(BB);
  return static_cast<unsigned>(Dead.size());
}

bool hasSideEffects(const Instruction &I) {
  switch (I.getOpcode()) {
  case Opcode::Store:
  case Opcode::Call:
  case Opcode::Br:
  case Opcode::Ret:
  case Opcode::Unreachable:
    return true;
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
    return true; // may trap
  default:
    return false;
  }
}

bool isAlloca(const Value *V) {
  const auto *I = ir_dyn_cast<Instruction>(V);
  return I && I->getOpcode() == Opcode::Alloca;
}

/// A pointer SSA value whose object identity is known exactly: two
/// distinct such values never alias (distinct allocas are distinct
/// storage, allocas are not globals, and distinct globals are distinct).
/// GEP results and loaded pointers stay "unknown" and are handled
/// conservatively.
bool isDistinctObject(const Value *V) {
  return ir_dyn_cast<GlobalVariable>(V) || isAlloca(V);
}

unsigned forwardLoadsInFunction(Function &F) {
  // Loads proven redundant, mapped to the value they must yield. Uses
  // are rewritten function-wide at the end; chains (a forwarded load
  // feeding another forwarded load's key) are chased through Resolve.
  std::map<Value *, Value *> Replace;
  auto Resolve = [&Replace](Value *V) {
    for (auto It = Replace.find(V); It != Replace.end();
         It = Replace.find(V))
      V = It->second;
    return V;
  };

  unsigned Forwarded = 0;
  for (const auto &BB : F.blocks()) {
    // What each pointer currently holds, valid within this block only.
    std::map<Value *, Value *> Known;
    for (const auto &IP : BB->instructions()) {
      Instruction *I = IP.get();
      switch (I->getOpcode()) {
      case Opcode::Load: {
        Value *P = Resolve(I->getOperand(0));
        auto It = Known.find(P);
        if (It != Known.end() &&
            It->second->getType() == I->getType()) {
          Replace[I] = It->second;
          ++Forwarded;
        } else {
          // Remember the loaded value so a repeated load forwards too.
          Known[P] = I;
        }
        break;
      }
      case Opcode::Store: {
        Value *P = Resolve(I->getOperand(1));
        if (isDistinctObject(P)) {
          // The store touches exactly P: entries for other distinct
          // objects survive, unknown-pointer entries may alias P.
          for (auto It = Known.begin(); It != Known.end();)
            if (It->first != P && !isDistinctObject(It->first))
              It = Known.erase(It);
            else
              ++It;
        } else {
          // A store through a GEP or loaded pointer may hit anything.
          Known.clear();
        }
        Known[P] = Resolve(I->getOperand(0));
        break;
      }
      case Opcode::Call:
        // The callee may write any escaped or global storage.
        Known.clear();
        break;
      default:
        break;
      }
    }
  }

  if (Forwarded == 0)
    return 0;
  for (const auto &BB : F.blocks())
    for (const auto &IP : BB->instructions())
      for (unsigned K = 0; K < IP->getNumOperands(); ++K)
        IP->setOperand(K, Resolve(IP->getOperand(K)));
  return Forwarded;
}

// ===--------------- Scalar promotion over natural loops ---------------=== //

/// One function's CFG facts for scalar promotion: predecessor lists, the
/// reverse post-order (RPO) with its DFS tree, the immediate-dominator
/// tree and the natural loops. Built once per function. The only CFG
/// change promotion makes, splitting a loop's exit edge with a
/// `.promote.exit` block, is applied in place by splitEdge().
class CFGSnapshot {
public:
  struct Loop {
    BasicBlock *Header = nullptr;
    std::vector<BasicBlock *> Blocks;      // unordered
    std::vector<BasicBlock *> BackSources; // blocks with an edge to Header
  };

  explicit CFGSnapshot(Function &F) {
    for (const auto &BB : F.blocks())
      addNode(BB.get());
    for (auto &[BB, Preds] : computePredecessors(F))
      if (auto It = Ids.find(BB); It != Ids.end())
        Nodes[It->second].Preds = std::move(Preds);
    computeRPO();
    computeDominators();
    computeLoops();
  }

  [[nodiscard]] const std::vector<Loop> &loops() const { return Loops; }
  [[nodiscard]] const std::vector<BasicBlock *> &
  preds(const BasicBlock *BB) const {
    return Nodes[id(BB)].Preds;
  }
  /// The loops containing \p BB.
  [[nodiscard]] const std::vector<unsigned> &
  loopsOf(const BasicBlock *BB) const {
    return Nodes[id(BB)].Loops;
  }
  [[nodiscard]] bool contains(unsigned K, const BasicBlock *BB) const {
    const std::vector<unsigned> &Ls = loopsOf(BB);
    return std::find(Ls.begin(), Ls.end(), K) != Ls.end();
  }
  [[nodiscard]] bool reachable(const BasicBlock *BB) const {
    return Nodes[id(BB)].RPONum != None;
  }
  /// Position in the RPO; only meaningful for reachable blocks.
  [[nodiscard]] unsigned rpoNumber(const BasicBlock *BB) const {
    return Nodes[id(BB)].RPONum;
  }
  /// Whether \p A dominates \p B; false when either is unreachable.
  [[nodiscard]] bool dominates(const BasicBlock *A,
                               const BasicBlock *B) const {
    unsigned NA = id(A), NB = id(B);
    if (Nodes[NA].RPONum == None || Nodes[NB].RPONum == None)
      return false;
    // Dominators precede in RPO: climb B's idom chain down to A's number.
    while (Nodes[NB].RPONum > Nodes[NA].RPONum)
      NB = Nodes[NB].IDom;
    return NA == NB;
  }

  /// Records the new block \p W on the edge \p C -> \p E. C's terminator
  /// and E's phis already name W, W branches to E, and W was created
  /// right after C in block order.
  void splitEdge(BasicBlock *C, BasicBlock *E, BasicBlock *W) {
    unsigned NC = id(C), NE = id(E), NW = addNode(W);
    Nodes[NW].Preds = {C};
    // E's list is in block order and W sits right after C, so W takes
    // C's slot.
    std::replace(Nodes[NE].Preds.begin(), Nodes[NE].Preds.end(), C, W);

    if (Nodes[NC].RPONum != None)
      insertIntoRPO(NC, NE, NW);

    // W joins every loop holding E, except a loop headed by E that C->E
    // enters from outside. Where C->E was a back edge, W replaces C as
    // its source.
    for (unsigned K : Nodes[NE].Loops) {
      Loop &L = Loops[K];
      auto BS = std::find(L.BackSources.begin(), L.BackSources.end(), C);
      if (L.Header == E && BS == L.BackSources.end())
        continue;
      L.Blocks.push_back(W);
      Nodes[NW].Loops.push_back(K);
      if (BS != L.BackSources.end()) {
        *BS = W;
        std::stable_sort(L.BackSources.begin(), L.BackSources.end(),
                         [&](BasicBlock *X, BasicBlock *Y) {
                           return rpoNumber(X) < rpoNumber(Y);
                         });
      }
    }
  }

private:
  static constexpr unsigned None = ~0u;

  struct Node {
    BasicBlock *BB = nullptr;
    std::vector<BasicBlock *> Preds; // as BasicBlock::predecessors()
    unsigned RPONum = None;          // None: unreachable
    unsigned IDom = None;
    unsigned DFSParent = None;
    unsigned SubtreeSize = 0; // blocks in the DFS subtree rooted here
    std::vector<unsigned> Loops;
  };

  [[nodiscard]] unsigned id(const BasicBlock *BB) const {
    auto It = Ids.find(BB);
    assert(It != Ids.end() && "block not in the snapshot");
    return It->second;
  }
  unsigned addNode(BasicBlock *BB) {
    Ids[BB] = static_cast<unsigned>(Nodes.size());
    Nodes.emplace_back().BB = BB;
    return static_cast<unsigned>(Nodes.size() - 1);
  }

  /// Depth-first search from the entry, successors in terminator order.
  void computeRPO() {
    struct Frame {
      unsigned N;
      unsigned NextSucc;
    };
    std::vector<bool> Seen(Nodes.size());
    std::vector<unsigned> Post;
    std::vector<Frame> Stack = {{0, 0}};
    Seen[0] = true;
    while (!Stack.empty()) {
      Frame &Fr = Stack.back();
      unsigned N = Fr.N;
      Instruction *T = Nodes[N].BB->getTerminator();
      if (T && Fr.NextSucc < T->getNumSuccessors()) {
        unsigned S = id(T->getSuccessor(Fr.NextSucc++));
        if (!Seen[S]) {
          Seen[S] = true;
          Nodes[S].DFSParent = N;
          Stack.push_back({S, 0});
        }
        continue;
      }
      Stack.pop_back();
      Post.push_back(N);
      Node &Done = Nodes[N];
      ++Done.SubtreeSize;
      if (Done.DFSParent != None)
        Nodes[Done.DFSParent].SubtreeSize += Done.SubtreeSize;
    }
    RPO.assign(Post.rbegin(), Post.rend());
    renumberFrom(0);
  }

  void renumberFrom(std::size_t Pos) {
    for (; Pos < RPO.size(); ++Pos)
      Nodes[RPO[Pos]].RPONum = static_cast<unsigned>(Pos);
  }

  /// Cooper, Harvey and Kennedy's "A Simple, Fast Dominance Algorithm".
  void computeDominators() {
    auto Intersect = [&](unsigned A, unsigned B) {
      while (A != B) {
        while (Nodes[A].RPONum > Nodes[B].RPONum)
          A = Nodes[A].IDom;
        while (Nodes[B].RPONum > Nodes[A].RPONum)
          B = Nodes[B].IDom;
      }
      return A;
    };
    Nodes[RPO[0]].IDom = RPO[0];
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (std::size_t I = 1; I < RPO.size(); ++I) {
        Node &N = Nodes[RPO[I]];
        unsigned New = None;
        for (BasicBlock *P : N.Preds) {
          unsigned NP = id(P);
          if (Nodes[NP].IDom == None)
            continue; // unreachable, or not processed yet
          New = New == None ? NP : Intersect(NP, New);
        }
        if (New != N.IDom) {
          N.IDom = New;
          Changed = true;
        }
      }
    }
  }

  /// Natural loops: back edges B->H where H dominates B; bodies by
  /// backward reachability from B stopping at H.
  void computeLoops() {
    std::unordered_map<const BasicBlock *, unsigned> LoopOf;
    for (unsigned N : RPO) {
      BasicBlock *BB = Nodes[N].BB;
      Instruction *T = BB->getTerminator();
      if (!T)
        continue;
      for (unsigned S = 0; S < T->getNumSuccessors(); ++S) {
        BasicBlock *H = T->getSuccessor(S);
        if (!dominates(H, BB))
          continue;
        auto [It, New] =
            LoopOf.try_emplace(H, static_cast<unsigned>(Loops.size()));
        unsigned K = It->second;
        if (New) {
          Loops.emplace_back().Header = H;
          addToLoop(K, H);
        }
        Loops[K].BackSources.push_back(BB);
        std::vector<BasicBlock *> Work = {BB};
        while (!Work.empty()) {
          BasicBlock *Cur = Work.back();
          Work.pop_back();
          if (contains(K, Cur))
            continue;
          addToLoop(K, Cur);
          for (BasicBlock *P : preds(Cur))
            Work.push_back(P);
        }
      }
    }
  }

  void addToLoop(unsigned K, BasicBlock *BB) {
    Loops[K].Blocks.push_back(BB);
    Nodes[id(BB)].Loops.push_back(K);
  }

  /// Places the new block \p NW, reached only through C->W->E, where a
  /// fresh DFS would: W becomes a DFS child of C, and the RPO of C's
  /// subtree lists C, then its children's subtrees in reverse order of
  /// discovery. So W goes right before E when E was first reached over
  /// this edge (E's subtree now hangs below W), else right before the
  /// last child C discovered over an earlier edge, else right after
  /// C's whole subtree.
  void insertIntoRPO(unsigned NC, unsigned NE, unsigned NW) {
    Node &C = Nodes[NC];
    Node &E = Nodes[NE];
    Node &W = Nodes[NW];
    W.DFSParent = NC;
    W.SubtreeSize = 1;
    std::size_t Pos;
    if (E.DFSParent == NC) {
      E.DFSParent = NW;
      W.SubtreeSize += E.SubtreeSize;
      Pos = E.RPONum;
    } else {
      Pos = C.RPONum + C.SubtreeSize;
      Instruction *T = C.BB->getTerminator();
      for (unsigned S = 0; S < T->getNumSuccessors(); ++S) {
        BasicBlock *Succ = T->getSuccessor(S);
        if (Succ == W.BB)
          break;
        if (Nodes[id(Succ)].DFSParent == NC)
          Pos = Nodes[id(Succ)].RPONum;
      }
    }
    for (unsigned A = NC; A != None; A = Nodes[A].DFSParent)
      ++Nodes[A].SubtreeSize;
    RPO.insert(RPO.begin() + static_cast<std::ptrdiff_t>(Pos), NW);
    renumberFrom(Pos);

    // Every path into W comes from C. E's paths all pass W exactly when
    // its other predecessors are unreachable or reached through E.
    W.IDom = NC;
    bool WDominatesE = true;
    for (BasicBlock *P : E.Preds)
      if (P != W.BB && reachable(P) && !dominates(E.BB, P))
        WDominatesE = false;
    if (WDominatesE)
      E.IDom = NW;
  }

  std::unordered_map<const BasicBlock *, unsigned> Ids;
  std::vector<Node> Nodes; // by id: function block order, then splits
  std::vector<unsigned> RPO;
  std::vector<Loop> Loops;
};

/// Chases GEPs to the pointer they index into. Indexing stays within the
/// underlying object, so a GEP access aliases only its base object.
template <typename ResolveFn> Value *baseObject(Value *V, ResolveFn Resolve) {
  while (auto *I = ir_dyn_cast<Instruction>(V)) {
    if (I->getOpcode() != Opcode::GEP)
      break;
    V = Resolve(I->getOperand(0));
  }
  return V;
}

/// Promotes scalars that live in memory (globals and non-escaping
/// allocas) into SSA registers across natural loops: initial load in
/// the preheader, phis at the header and interior joins, writeback at
/// the single exit. This is what breaks the per-iteration
/// load/add/store round-trip on accumulator globals that store-to-load
/// forwarding (block-local) cannot touch.
///
/// Innermost loops go first (fewest blocks, then header name): an
/// accumulator promoted out of an inner loop reappears (as the inserted
/// preheader load / writeback store) inside the enclosing loop and is
/// hoisted again when that loop's turn comes. Accesses only ever move
/// outward through the nest, so this terminates.
///
/// The function is analysed once (CFGSnapshot). A promotion's loads and
/// stores are only marked erased and its replaced loads only recorded:
/// every scan skips the marks and reads operands through the
/// replacements, and both are applied to the IR once at the end. The
/// result is the IR of promoting one loop at a time and re-analysing
/// the whole function after each: a loop that failed is tried again only
/// after a promotion touched one of its blocks, the preheader or exit
/// edge it depends on, or the set of non-escaping allocas. A replaced
/// load is read only inside its own loop and by the writebacks on that
/// loop's exit edge: the front ends reload scalars from memory in every
/// block, store forwarding stays within a block, and promotion puts its
/// own phis and writebacks there.
class ScalarPromoter {
public:
  explicit ScalarPromoter(Function &F)
      : F(F), Snap(F), Queue(LoopOrder{&Snap}) {}

  unsigned run() {
    if (Snap.loops().empty())
      return 0;
    SafeAllocas = nonEscapingAllocas();
    for (unsigned K = 0; K < Snap.loops().size(); ++K)
      Queue.insert(K);
    unsigned Promoted = 0;
    while (!Queue.empty()) {
      unsigned K = *Queue.begin();
      Queue.erase(Queue.begin());
      Promoted += promoteInLoop(K);
    }
    if (Promoted == 0)
      return 0;
    for (const auto &BB : F.blocks()) {
      BB->eraseIf([&](const Instruction *I) { return Erased.count(I); });
      for (const auto &IP : BB->instructions())
        for (unsigned K = 0; K < IP->getNumOperands(); ++K)
          IP->setOperand(K, resolve(IP->getOperand(K)));
    }
    return Promoted;
  }

private:
  /// Fewest blocks first, then header name: innermost loops first, in a
  /// deterministic order.
  struct LoopOrder {
    const CFGSnapshot *Snap;
    bool operator()(unsigned A, unsigned B) const {
      const CFGSnapshot::Loop &LA = Snap->loops()[A];
      const CFGSnapshot::Loop &LB = Snap->loops()[B];
      if (LA.Blocks.size() != LB.Blocks.size())
        return LA.Blocks.size() < LB.Blocks.size();
      return LA.Header->getName() < LB.Header->getName();
    }
  };

  /// \p V after the replacements of the promotions done so far.
  Value *resolve(Value *V) const {
    for (auto It = Replace.find(V); It != Replace.end(); It = Replace.find(V))
      V = It->second;
    return V;
  }

  /// An alloca is promotable storage only if its address never escapes:
  /// every use in the function is as a load's pointer or a store's
  /// destination (being a store's *value* operand publishes the address).
  std::unordered_set<const Value *> nonEscapingAllocas() const {
    std::unordered_set<const Value *> Allocas, Escaped;
    for (const auto &BB : F.blocks())
      for (const auto &IP : BB->instructions()) {
        if (Erased.count(IP.get()))
          continue;
        if (IP->getOpcode() == Opcode::Alloca)
          Allocas.insert(IP.get());
        for (unsigned K = 0; K < IP->getNumOperands(); ++K) {
          Value *Op = resolve(IP->getOperand(K));
          if (!isAlloca(Op))
            continue;
          bool Safe = (IP->getOpcode() == Opcode::Load && K == 0) ||
                      (IP->getOpcode() == Opcode::Store && K == 1);
          if (!Safe)
            Escaped.insert(Op);
        }
      }
    for (const Value *A : Escaped)
      Allocas.erase(A);
    return Allocas;
  }

  void markLoopsOf(const BasicBlock *BB, std::set<unsigned> &Dirty) const {
    const std::vector<unsigned> &Ls = Snap.loopsOf(BB);
    Dirty.insert(Ls.begin(), Ls.end());
  }

  unsigned promoteInLoop(unsigned K);

  Function &F;
  CFGSnapshot Snap;
  std::set<unsigned, LoopOrder> Queue; // loops to (re)try
  std::unordered_set<const Value *> SafeAllocas;
  std::unordered_map<Value *, Value *> Replace; // replaced load -> value
  std::unordered_set<const Instruction *> Erased;
};

unsigned ScalarPromoter::promoteInLoop(unsigned LoopIdx) {
  const CFGSnapshot::Loop &L = Snap.loops()[LoopIdx];
  auto InLoop = [&](const BasicBlock *BB) {
    return Snap.contains(LoopIdx, BB);
  };
  auto Resolve = [&](Value *V) { return resolve(V); };
  // The pointer a load or store not yet erased accesses; null for any
  // other instruction.
  auto accessed = [&](const std::unique_ptr<Instruction> &IP) -> Value * {
    Opcode Op = IP->getOpcode();
    if ((Op != Opcode::Load && Op != Opcode::Store) || Erased.count(IP.get()))
      return nullptr;
    return resolve(IP->getOperand(Op == Opcode::Load ? 0 : 1));
  };

  // Structural gates: unique preheader, a single exit edge whose target
  // is reached only from the loop, and no calls (a callee may touch any
  // global or escaped storage).
  BasicBlock *Preheader = nullptr;
  for (BasicBlock *P : Snap.preds(L.Header)) {
    if (InLoop(P))
      continue;
    if (Preheader && Preheader != P)
      return 0;
    Preheader = P;
  }
  if (!Preheader || !Preheader->getTerminator())
    return 0;

  BasicBlock *CondBlock = nullptr, *Exit = nullptr;
  for (BasicBlock *BB : L.Blocks) {
    Instruction *T = BB->getTerminator();
    if (!T)
      return 0;
    for (unsigned S = 0; S < T->getNumSuccessors(); ++S) {
      BasicBlock *Succ = T->getSuccessor(S);
      if (InLoop(Succ))
        continue;
      if (CondBlock && (CondBlock != BB || Exit != Succ))
        return 0; // multiple exit edges
      CondBlock = BB;
      Exit = Succ;
    }
  }
  if (!CondBlock)
    return 0; // no exit: nothing observable to write back

  for (BasicBlock *BB : L.Blocks)
    for (const auto &IP : BB->instructions())
      if (IP->getOpcode() == Opcode::Call)
        return 0;

  auto dominatesAllBackSources = [&](BasicBlock *BB) {
    for (BasicBlock *BS : L.BackSources)
      if (!Snap.dominates(BB, BS))
        return false;
    return true;
  };

  std::vector<BasicBlock *> LoopRPO;
  for (BasicBlock *BB : L.Blocks)
    if (Snap.reachable(BB))
      LoopRPO.push_back(BB);
  std::sort(LoopRPO.begin(), LoopRPO.end(),
            [&](BasicBlock *A, BasicBlock *B) {
              return Snap.rpoNumber(A) < Snap.rpoNumber(B);
            });

  // Candidate discovery: pointers accessed directly (no GEP) inside the
  // loop whose object identity is exact.
  struct Candidate {
    const IRType *Ty = nullptr;
    bool HasStore = false;
    bool Bad = false;
  };
  std::map<Value *, Candidate> Cands;
  std::vector<Value *> CandOrder; // deterministic discovery order
  auto candFor = [&](Value *P) -> Candidate & {
    auto [It, New] = Cands.try_emplace(P);
    if (New)
      CandOrder.push_back(P);
    return It->second;
  };
  auto isPromotableObject = [&](Value *V) {
    if (ir_dyn_cast<GlobalVariable>(V))
      return true;
    return SafeAllocas.count(V) != 0;
  };
  for (BasicBlock *BB : LoopRPO)
    for (const auto &IP : BB->instructions()) {
      Value *P = accessed(IP);
      if (!P || !isPromotableObject(P))
        continue;
      Candidate &C = candFor(P);
      if (IP->getOpcode() == Opcode::Load) {
        if (C.Ty && C.Ty != IP->getType())
          C.Bad = true;
        C.Ty = IP->getType();
      } else {
        const IRType *VTy = IP->getOperand(0)->getType();
        if (C.Ty && C.Ty != VTy)
          C.Bad = true;
        C.Ty = VTy;
        C.HasStore = true;
        // An introduced exit writeback is only legal when the loop
        // already stores on every iteration.
        if (!dominatesAllBackSources(BB))
          C.Bad = true;
      }
    }
  // Aliasing: every other memory access in the loop must provably touch
  // a different object.
  for (BasicBlock *BB : L.Blocks)
    for (const auto &IP : BB->instructions()) {
      Value *P = accessed(IP);
      if (!P)
        continue;
      Value *Base = baseObject(P, Resolve);
      bool Distinct = isDistinctObject(Base);
      for (auto &[G, C] : Cands)
        if (P != G && (!Distinct || Base == G))
          C.Bad = true;
    }

  // This promotion's replacements. Its own scans read operands as they
  // stand before it (through earlier promotions' replacements only).
  unsigned Promoted = 0;
  std::unordered_map<Value *, Value *> NewReplace;
  std::vector<Instruction *> NewErased;

  // Writebacks land in a dedicated block on the exit edge, so they run
  // exactly once per loop execution even when the exit target has other
  // predecessors (e.g. an unroll-remainder loop header).
  BasicBlock *WBBlock = nullptr;
  auto writebackBlock = [&]() {
    if (WBBlock)
      return WBBlock;
    WBBlock = F.createBlockAfter(CondBlock, CondBlock->getName() +
                                                ".promote.exit");
    Instruction *T = CondBlock->getTerminator();
    for (unsigned S = 0; S < T->getNumOperands(); ++S)
      if (T->getOperand(S) == Exit)
        T->setOperand(S, WBBlock);
    for (const auto &IP : Exit->instructions()) {
      if (IP->getOpcode() != Opcode::Phi)
        break;
      for (unsigned P = 0; P < IP->getNumIncoming(); ++P)
        if (IP->getIncomingBlock(P) == CondBlock)
          IP->setOperand(2 * P + 1, WBBlock);
    }
    WBBlock->append(std::make_unique<Instruction>(
        Opcode::Br, IRType::getVoid(), std::vector<Value *>{Exit}));
    return WBBlock;
  };

  for (Value *G : CandOrder) {
    const Candidate &C = Cands[G];
    if (C.Bad || !C.Ty)
      continue;
    std::string Tag = G->getName().empty() ? "promo" : G->getName();
    auto PreLoad = std::make_unique<Instruction>(
        Opcode::Load, C.Ty, std::vector<Value *>{G}, Tag + ".promoted");
    PreLoad->ElemTy = C.Ty;
    Instruction *Pre =
        Preheader->insertAt(Preheader->size() - 1, std::move(PreLoad));

    if (!C.HasStore) {
      // Loop-invariant: every load is the preheader load.
      for (BasicBlock *BB : LoopRPO)
        for (const auto &IP : BB->instructions())
          if (IP->getOpcode() == Opcode::Load && IP.get() != Pre &&
              accessed(IP) == G) {
            NewReplace[IP.get()] = Pre;
            NewErased.push_back(IP.get());
          }
      ++Promoted;
      continue;
    }

    // Single-variable SSA construction over the loop region with phis
    // at the header and every interior join.
    std::map<BasicBlock *, Instruction *> PhiAt;
    std::map<BasicBlock *, std::vector<BasicBlock *>> InPreds;
    for (BasicBlock *BB : LoopRPO) {
      std::vector<BasicBlock *> Preds;
      for (BasicBlock *P : Snap.preds(BB))
        if (InLoop(P) &&
            std::find(Preds.begin(), Preds.end(), P) == Preds.end())
          Preds.push_back(P);
      InPreds[BB] = Preds;
      if (BB == L.Header || Preds.size() >= 2) {
        auto Phi = std::make_unique<Instruction>(
            Opcode::Phi, C.Ty, std::vector<Value *>{}, Tag + ".promoted");
        PhiAt[BB] = BB->insertAt(0, std::move(Phi));
      }
    }
    std::map<BasicBlock *, Value *> EndVal;
    for (BasicBlock *BB : LoopRPO) {
      Value *Cur = PhiAt.count(BB) ? static_cast<Value *>(PhiAt[BB])
                                   : EndVal[InPreds[BB].front()];
      for (const auto &IP : BB->instructions()) {
        if (accessed(IP) != G)
          continue;
        if (IP->getOpcode() == Opcode::Load)
          NewReplace[IP.get()] = Cur;
        else
          Cur = resolve(IP->getOperand(0));
        NewErased.push_back(IP.get());
      }
      EndVal[BB] = Cur;
    }
    for (auto &[BB, Phi] : PhiAt) {
      std::vector<Value *> Ops;
      if (BB == L.Header) {
        Ops.push_back(Pre);
        Ops.push_back(Preheader);
        for (BasicBlock *BS : L.BackSources) {
          Ops.push_back(EndVal[BS]);
          Ops.push_back(BS);
        }
      } else {
        for (BasicBlock *P : InPreds[BB]) {
          Ops.push_back(EndVal[P]);
          Ops.push_back(P);
        }
      }
      Phi->setOperands(std::move(Ops));
    }
    auto WB = std::make_unique<Instruction>(
        Opcode::Store, IRType::getVoid(),
        std::vector<Value *>{EndVal[CondBlock], G});
    BasicBlock *WBB = writebackBlock();
    WBB->insertAt(WBB->size() - 1, std::move(WB));
    ++Promoted;
  }

  if (Promoted == 0)
    return 0;

  // Loops to try again: those holding a block this promotion changed
  // (its own blocks, the preheader, the split exit edge), or all of them
  // when an alloca stopped escaping. Loop sizes key the queue, so the
  // loops holding the exit, which the split grows, leave it first.
  std::set<unsigned> Dirty;
  for (BasicBlock *BB : L.Blocks)
    markLoopsOf(BB, Dirty);
  markLoopsOf(Preheader, Dirty);
  markLoopsOf(Exit, Dirty);
  for (unsigned K : Dirty)
    Queue.erase(K);
  if (WBBlock)
    Snap.splitEdge(CondBlock, Exit, WBBlock);

  bool AllocaUseErased = false;
  for (Instruction *I : NewErased) {
    Erased.insert(I);
    if (I->getOpcode() == Opcode::Store &&
        isAlloca(resolve(I->getOperand(0))))
      AllocaUseErased = true;
  }
  Replace.insert(NewReplace.begin(), NewReplace.end());

  // Erasing a store whose value was an alloca may leave that alloca
  // without an escaping use; any loop may then promote it.
  if (AllocaUseErased) {
    auto NowSafe = nonEscapingAllocas();
    if (NowSafe != SafeAllocas) {
      SafeAllocas = std::move(NowSafe);
      for (unsigned K = 0; K < Snap.loops().size(); ++K)
        Dirty.insert(K);
    }
  }
  Queue.insert(Dirty.begin(), Dirty.end());
  return Promoted;
}

unsigned promoteScalarsInFunction(Function &F) {
  if (F.isDeclaration())
    return 0;
  return ScalarPromoter(F).run();
}

} // namespace

unsigned runSimplifyCFG(Module &M) {
  unsigned Removed = 0;
  for (const auto &F : M.functions())
    Removed += removeUnreachable(*F);
  return Removed;
}

unsigned runDCE(Module &M) {
  unsigned Removed = 0;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    // Count uses once; erasing an instruction releases its operands'
    // uses, and whatever drops to zero is erased in turn.
    std::unordered_map<const Value *, unsigned> Uses;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        for (const Value *Op : I->operands())
          ++Uses[Op];
    auto Removable = [&](const Instruction *I) {
      return !hasSideEffects(*I) && !I->getType()->isVoid() &&
             Uses[I] == 0;
    };
    std::unordered_set<const Instruction *> Dead;
    std::vector<const Instruction *> Work;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (Removable(I.get()))
          Work.push_back(I.get());
    while (!Work.empty()) {
      const Instruction *I = Work.back();
      Work.pop_back();
      if (!Dead.insert(I).second)
        continue;
      for (const Value *Op : I->operands()) {
        const auto *OpI = ir_dyn_cast<Instruction>(Op);
        if (--Uses[Op] == 0 && OpI && Removable(OpI))
          Work.push_back(OpI);
      }
    }
    if (Dead.empty())
      continue;
    for (const auto &BB : F->blocks())
      BB->eraseIf([&](const Instruction *I) { return Dead.count(I); });
    Removed += static_cast<unsigned>(Dead.size());
  }
  return Removed;
}

unsigned runStoreForward(Module &M) {
  unsigned Forwarded = 0;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Forwarded += forwardLoadsInFunction(*F);
  return Forwarded;
}

unsigned runScalarPromote(Module &M) {
  unsigned Promoted = 0;
  for (const auto &F : M.functions())
    Promoted += promoteScalarsInFunction(*F);
  return Promoted;
}

PipelineStats runDefaultPipeline(Module &M,
                                 const LoopUnrollOptions &UnrollOpts) {
  PipelineStats Stats;
  Stats.Unroll = runLoopUnroll(M, UnrollOpts);
  Stats.BlocksSimplified = runSimplifyCFG(M);
  Stats.LoadsForwarded = runStoreForward(M);
  Stats.ScalarsPromoted = runScalarPromote(M);
  Stats.InstructionsDCEd = runDCE(M);
  return Stats;
}

} // namespace mcc::midend
