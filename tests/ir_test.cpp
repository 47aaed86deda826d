//===--- ir_test.cpp - IR core, printer, verifier, IRBuilder tests --------===//
#include "irbuilder/IRBuilder.h"

#include <gtest/gtest.h>

using namespace mcc::ir;

namespace {

TEST(IRTypeTest, SizesAndNames) {
  EXPECT_EQ(IRType::getI32()->getSizeInBytes(), 4u);
  EXPECT_EQ(IRType::getI64()->getSizeInBytes(), 8u);
  EXPECT_EQ(IRType::getDouble()->getSizeInBytes(), 8u);
  EXPECT_EQ(IRType::getPtr()->getSizeInBytes(), 8u);
  EXPECT_STREQ(IRType::getI1()->getName(), "i1");
  EXPECT_TRUE(IRType::getI32()->isInteger());
  EXPECT_FALSE(IRType::getDouble()->isInteger());
  EXPECT_TRUE(IRType::getPtr()->isPointer());
}

TEST(IRTest, ConstantsAreUniqued) {
  Module M;
  EXPECT_EQ(M.getI32(42), M.getI32(42));
  EXPECT_NE(M.getI32(42), M.getI32(43));
  EXPECT_NE(static_cast<Value *>(M.getI32(42)),
            static_cast<Value *>(M.getI64(42)));
  EXPECT_EQ(M.getDouble(1.5), M.getDouble(1.5));
}

TEST(IRTest, FunctionCreation) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(),
                                 {IRType::getI32(), IRType::getPtr()},
                                 {"x", "p"});
  EXPECT_EQ(F->getNumArgs(), 2u);
  EXPECT_EQ(F->getArg(0)->getName(), "x");
  EXPECT_TRUE(F->isDeclaration());
  F->createBlock("entry");
  EXPECT_FALSE(F->isDeclaration());
  EXPECT_EQ(M.getFunction("f"), F);
  EXPECT_EQ(M.getFunction("g"), nullptr);
}

TEST(IRTest, GetOrInsertFunctionReuses) {
  Module M;
  Function *A = M.getOrInsertFunction("ext", IRType::getVoid(), {});
  Function *B = M.getOrInsertFunction("ext", IRType::getVoid(), {});
  EXPECT_EQ(A, B);
}

TEST(IRTest, BlockPredecessors) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B = F->createBlock("b");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder Bld(M);
  Bld.setInsertPoint(Entry);
  Bld.createCondBr(M.getI1(true), A, B);
  Bld.setInsertPoint(A);
  Bld.createBr(Join);
  Bld.setInsertPoint(B);
  Bld.createBr(Join);
  Bld.setInsertPoint(Join);
  Bld.createRetVoid();

  std::vector<BasicBlock *> Preds = Join->predecessors();
  EXPECT_EQ(Preds.size(), 2u);
  EXPECT_EQ(Entry->predecessors().size(), 0u);
}

// computePredecessors() is the one-scan form of predecessors(): same
// lists, same order, for every block, on a CFG with a self loop, a
// conditional branch with both arms to one block, a back edge from a
// later block, a block reached only from blocks after it, and blocks
// without predecessors.
TEST(IRTest, PredecessorMapMatchesPredecessors) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Both = F->createBlock("both");
  BasicBlock *Join = F->createBlock("join");
  BasicBlock *Late = F->createBlock("late");
  BasicBlock *Dead = F->createBlock("dead");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder Bld(M);
  Bld.setInsertPoint(Entry);
  Bld.createCondBr(M.getI1(true), Loop, Late);
  Bld.setInsertPoint(Loop);
  Bld.createCondBr(M.getI1(false), Loop, Both);
  Bld.setInsertPoint(Both);
  Bld.createCondBr(M.getI1(true), Join, Join);
  Bld.setInsertPoint(Join);
  Bld.createCondBr(M.getI1(true), Exit, Loop);
  Bld.setInsertPoint(Late);
  Bld.createBr(Join);
  Bld.setInsertPoint(Dead);
  Bld.createBr(Loop);
  Bld.setInsertPoint(Exit);
  Bld.createRetVoid();

  PredecessorMap Map = computePredecessors(*F);
  for (const auto &BB : F->blocks()) {
    auto It = Map.find(BB.get());
    std::vector<BasicBlock *> FromMap =
        It == Map.end() ? std::vector<BasicBlock *>{} : It->second;
    EXPECT_EQ(FromMap, BB->predecessors()) << BB->getName();
  }
  EXPECT_EQ(Map[Loop], (std::vector<BasicBlock *>{Entry, Loop, Join, Dead}));
  EXPECT_EQ(Map[Join], (std::vector<BasicBlock *>{Both, Late}));
  EXPECT_EQ(Map.count(Entry), 0u);
  EXPECT_EQ(Map.count(Dead), 0u);
}

TEST(IRBuilderTest, ConstantFolding) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {IRType::getI32()});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);

  // 2 + 3 folds without creating an instruction.
  Value *V = B.createAdd(M.getI32(2), M.getI32(3));
  auto *C = ir_dyn_cast<ConstantInt>(V);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getValue(), 5);
  EXPECT_EQ(BB->size(), 0u);
  EXPECT_GE(B.getNumFolds(), 1u);
}

TEST(IRBuilderTest, AlgebraicSimplifications) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {IRType::getI32()});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *X = F->getArg(0);

  EXPECT_EQ(B.createAdd(X, M.getI32(0)), X); // x + 0 = x
  EXPECT_EQ(B.createMul(X, M.getI32(1)), X); // x * 1 = x
  EXPECT_EQ(B.createSub(X, M.getI32(0)), X); // x - 0 = x
  Value *Zero = B.createMul(X, M.getI32(0)); // x * 0 = 0
  auto *C = ir_dyn_cast<ConstantInt>(Zero);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getValue(), 0);
  EXPECT_EQ(BB->size(), 0u);
}

TEST(IRBuilderTest, FoldingCanBeDisabled) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M, /*FoldConstants=*/false);
  B.setInsertPoint(BB);
  Value *V = B.createAdd(M.getI32(2), M.getI32(3));
  EXPECT_EQ(ir_dyn_cast<ConstantInt>(V), nullptr);
  EXPECT_EQ(BB->size(), 1u);
}

TEST(IRBuilderTest, FoldedTruncationRespectsWidth) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  // 0x7FFFFFFF + 1 in i32 wraps to INT32_MIN.
  Value *V = B.createAdd(M.getI32(0x7FFFFFFF), M.getI32(1));
  auto *C = ir_dyn_cast<ConstantInt>(V);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getValue(), INT32_MIN);
}

TEST(IRBuilderTest, IntCastFolding) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI64(), {});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *V = B.createIntCast(M.getI32(-5), IRType::getI64(), true);
  auto *C = ir_dyn_cast<ConstantInt>(V);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getValue(), -5);
  EXPECT_EQ(C->getType(), IRType::getI64());
}

TEST(IRBuilderTest, AllocaInEntryStaysInEntry) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Other = F->createBlock("other");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.createBr(Other);
  B.setInsertPoint(Other);
  Instruction *A = B.createAllocaInEntry(IRType::getI64(), 1, "slot");
  EXPECT_EQ(A->getParent(), Entry);
  EXPECT_EQ(Entry->front(), A); // before the branch
}

TEST(IRPrinterTest, PrintsStructure) {
  Module M("test");
  Function *F =
      M.createFunction("sum", IRType::getI32(),
                       {IRType::getI32(), IRType::getI32()}, {"a", "b"});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *S = B.createAdd(F->getArg(0), F->getArg(1), "sum");
  B.createRet(S);

  std::string Text = printModule(M);
  EXPECT_NE(Text.find("define i32 @sum(i32 %a, i32 %b)"), std::string::npos);
  EXPECT_NE(Text.find("%sum = add i32 %a, %b"), std::string::npos);
  EXPECT_NE(Text.find("ret i32 %sum"), std::string::npos);
}

TEST(IRPrinterTest, PrintsLoopMetadata) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *A = F->createBlock("a");
  IRBuilder B(M);
  B.setInsertPoint(A);
  Instruction *Br = B.createBr(A);
  Br->LoopMD.UnrollCount = 4;
  std::string Text = printFunction(*F);
  EXPECT_NE(Text.find("!unroll.count(4)"), std::string::npos);
}

TEST(VerifierTest, AcceptsWellFormed) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {IRType::getI32()});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createRet(F->getArg(0));
  EXPECT_EQ(verifyModule(M), "");
}

TEST(VerifierTest, DetectsMissingTerminator) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createAlloca(IRType::getI32());
  std::string Err = verifyFunction(*F);
  EXPECT_NE(Err.find("not terminated"), std::string::npos);
}

TEST(VerifierTest, DetectsTypeMismatch) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *BB = F->createBlock("entry");
  // Hand-build a mistyped add (the builder would assert/fold).
  auto Bad = std::make_unique<Instruction>(
      Opcode::Add, IRType::getI32(),
      std::vector<Value *>{M.getI32(1), M.getI64(2)}, "bad");
  BB->append(std::move(Bad));
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createRetVoid();
  std::string Err = verifyFunction(*F);
  EXPECT_NE(Err.find("type mismatch"), std::string::npos);
}

TEST(VerifierTest, DetectsRetTypeMismatch) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createRet(M.getI64(0));
  std::string Err = verifyFunction(*F);
  EXPECT_NE(Err.find("ret value type mismatch"), std::string::npos);
}

TEST(VerifierTest, DetectsBadPhi) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Next = F->createBlock("next");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.createBr(Next);
  B.setInsertPoint(Next);
  Instruction *Phi = B.createPhi(IRType::getI32(), "p");
  // Incoming from a non-predecessor block.
  Phi->addIncoming(M.getI32(1), Next);
  B.createRetVoid();
  std::string Err = verifyFunction(*F);
  EXPECT_NE(Err.find("not a predecessor"), std::string::npos);
}

TEST(VerifierTest, DetectsMidBlockTerminator) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createRetVoid();
  // Hand-append a second terminator; the first is now mid-block.
  BB->append(std::make_unique<Instruction>(Opcode::Ret, IRType::getVoid(),
                                           std::vector<Value *>{}, ""));
  std::string Err = verifyFunction(*F);
  EXPECT_NE(Err.find("terminator in the middle of a block"),
            std::string::npos);
}

TEST(VerifierTest, DetectsSelfReferencingInstruction) {
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *BB = F->createBlock("entry");
  auto Bad = std::make_unique<Instruction>(
      Opcode::Add, IRType::getI32(),
      std::vector<Value *>{M.getI32(1), M.getI32(2)}, "selfref");
  Bad->setOperand(0, Bad.get());
  BB->append(std::move(Bad));
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createRetVoid();
  std::string Err = verifyFunction(*F);
  EXPECT_NE(Err.find("uses itself as an operand"), std::string::npos);
}

TEST(VerifierTest, AcceptsPhiSelfReference) {
  // A loop-carried phi legitimately appears among its own incoming values.
  Module M;
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *Phi = B.createPhi(IRType::getI32(), "p");
  Phi->addIncoming(M.getI32(0), Entry);
  Phi->addIncoming(Phi, Loop);
  B.createBr(Loop);
  std::string Err = verifyFunction(*F);
  EXPECT_EQ(Err.find("uses itself as an operand"), std::string::npos);
}

TEST(VerifierTest, DetectsCallArityMismatch) {
  Module M;
  Function *Callee = M.createFunction("g", IRType::getVoid(),
                                      {IRType::getI32()});
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  BasicBlock *BB = F->createBlock("entry");
  auto Bad = std::make_unique<Instruction>(
      Opcode::Call, IRType::getVoid(), std::vector<Value *>{Callee}, "");
  BB->append(std::move(Bad));
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createRetVoid();
  std::string Err = verifyFunction(*F);
  EXPECT_NE(Err.find("arity mismatch"), std::string::npos);
}

} // namespace
