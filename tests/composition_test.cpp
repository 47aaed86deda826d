//===--- composition_test.cpp - E9: directive composition equivalence -----===//
//
// The paper's central semantic claims, validated end-to-end by executing
// generated code under all four pipeline configurations (legacy shadow-AST
// and IRBuilder mode, each with and without the mid-end):
//
//   * "#pragma omp parallel for" over "#pragma omp unroll partial(2)" is
//     semantically equivalent to the manually unrolled loop (Section 1.1);
//   * transformations apply in reverse order of their appearance;
//   * tiling preserves the iteration *set*; worksharing executes every
//     iteration exactly once; reductions combine correctly.
//
//===----------------------------------------------------------------------===//
#include "ExecutionTestHelper.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace mcc;
using namespace mcc::test;

namespace {

TEST(CompositionTest, ParallelForPlusUnrollEqualsManualUnroll) {
  // The exact example of the paper's Section 1.1. With N not divisible by
  // the unroll factor, the remainder conditional matters.
  const char *Directive = R"(
    int N = 17;
    long sum = 0;
    int main() {
      #pragma omp parallel for reduction(+: sum)
      #pragma omp unroll partial(2)
      for (int i = 0; i < N; i += 1)
        sum += i * i;
      long r = sum;
      int out = r;
      return out;
    }
  )";
  const char *Manual = R"(
    int N = 17;
    long sum = 0;
    int main() {
      #pragma omp parallel for reduction(+: sum)
      for (int i = 0; i < N; i += 2) {
        sum += i * i;
        if (i + 1 < N) sum += (i + 1) * (i + 1);
      }
      long r = sum;
      int out = r;
      return out;
    }
  )";
  std::int64_t Expected = 0;
  for (int I = 0; I < 17; ++I)
    Expected += I * I;
  expectAllPipelinesReturn(Directive, Expected);
  expectAllPipelinesReturn(Manual, Expected);
}

TEST(CompositionTest, StackedUnrollFullOverPartial) {
  // Paper Listing 6: unroll full consuming the partially unrolled loop.
  expectAllPipelinesReturn(R"(
    int acc = 0;
    int main() {
      #pragma omp unroll full
      #pragma omp unroll partial(2)
      for (int i = 7; i < 17; i += 3)
        acc += i;
      return acc;
    }
  )",
                           7 + 10 + 13 + 16);
}

TEST(CompositionTest, UnrollPartialAlone) {
  expectAllPipelinesReturn(R"(
    int acc = 0;
    int main() {
      #pragma omp unroll partial(4)
      for (int i = 0; i < 10; ++i)
        acc += i + 1;
      return acc;
    }
  )",
                           55);
}

TEST(CompositionTest, UnrollPartialNonUnitStepDownward) {
  expectAllPipelinesReturn(R"(
    int acc = 0;
    int main() {
      #pragma omp unroll partial(3)
      for (int i = 20; i > 0; i -= 4)
        acc += i;
      return acc;
    }
  )",
                           20 + 16 + 12 + 8 + 4);
}

TEST(CompositionTest, UnrollFullAlone) {
  expectAllPipelinesReturn(R"(
    int acc = 1;
    int main() {
      #pragma omp unroll full
      for (int i = 1; i <= 5; ++i)
        acc *= i;
      return acc;
    }
  )",
                           120);
}

TEST(CompositionTest, UnrollHeuristicAlone) {
  expectAllPipelinesReturn(R"(
    int acc = 0;
    int main() {
      #pragma omp unroll
      for (int i = 0; i < 23; ++i)
        acc += 2;
      return acc;
    }
  )",
                           46);
}

TEST(CompositionTest, TilePreservesIterationSet) {
  // Record the visited (i, j) pairs; tiling permutes but preserves them.
  const char *Source = R"(
    void record(long v);
    int main() {
      #pragma omp tile sizes(3, 5)
      for (int i = 0; i < 7; ++i)
        for (int j = 0; j < 11; ++j)
          record(i * 100 + j);
      return 0;
    }
  )";
  std::vector<std::int64_t> Expected;
  for (int I = 0; I < 7; ++I)
    for (int J = 0; J < 11; ++J)
      Expected.push_back(I * 100 + J);

  for (bool IRB : {false, true}) {
    CompilerOptions O;
    O.LangOpts.OpenMPEnableIRBuilder = IRB;
    Execution E(Source, O);
    E.runMain();
    std::vector<std::int64_t> Got = E.Recorded;
    std::sort(Got.begin(), Got.end());
    EXPECT_EQ(Got, Expected) << "irbuilder=" << IRB;
  }
}

TEST(CompositionTest, TileVisitsTilesInBlockedOrder) {
  // For one loop of 6 with size 2 the visit order is exactly blocked:
  // (0,1),(2,3),(4,5) — same as original here, but for 2D the order
  // differs from row-major: check the first tile is completed first.
  const char *Source = R"(
    void record(long v);
    int main() {
      #pragma omp tile sizes(2, 2)
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
          record(i * 10 + j);
      return 0;
    }
  )";
  for (bool IRB : {false, true}) {
    CompilerOptions O;
    O.LangOpts.OpenMPEnableIRBuilder = IRB;
    Execution E(Source, O);
    E.runMain();
    ASSERT_EQ(E.Recorded.size(), 16u);
    // First four visits are the first 2x2 tile.
    std::vector<std::int64_t> FirstTile(E.Recorded.begin(),
                                        E.Recorded.begin() + 4);
    EXPECT_EQ(FirstTile, (std::vector<std::int64_t>{0, 1, 10, 11}))
        << "irbuilder=" << IRB;
  }
}

TEST(CompositionTest, ParallelForOverTile) {
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int main() {
      #pragma omp parallel for reduction(+: sum)
      #pragma omp tile sizes(8)
      for (int i = 0; i < 50; ++i)
        sum += i;
      return sum;
    }
  )",
                           49 * 50 / 2);
}

TEST(CompositionTest, ForOverTileTwoLoops) {
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int main() {
      #pragma omp parallel for collapse(2) reduction(+: sum)
      #pragma omp tile sizes(4, 4)
      for (int i = 0; i < 10; ++i)
        for (int j = 0; j < 14; ++j)
          sum += i * j;
      return sum;
    }
  )",
                           45 * 91);
}

TEST(CompositionTest, Collapse2WorkshareCoversAll) {
  expectAllPipelinesReturn(R"(
    int hits[60];
    int main() {
      #pragma omp parallel for collapse(2)
      for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 10; ++j)
          hits[i * 10 + j] += 1;
      int bad = 0;
      for (int k = 0; k < 60; ++k)
        if (hits[k] != 1) bad += 1;
      return bad;
    }
  )",
                           0);
}

TEST(CompositionTest, TileOverUnrollPartial) {
  // Reverse-order application: the tile consumes the loop generated by
  // unroll.
  expectAllPipelinesReturn(R"(
    int acc = 0;
    int main() {
      #pragma omp tile sizes(4)
      #pragma omp unroll partial(2)
      for (int i = 0; i < 37; ++i)
        acc += i;
      return acc;
    }
  )",
                           36 * 37 / 2);
}

TEST(CompositionTest, UnrollPartialOverTile) {
  expectAllPipelinesReturn(R"(
    int acc = 0;
    int main() {
      #pragma omp unroll partial(2)
      #pragma omp tile sizes(8)
      for (int i = 0; i < 30; ++i)
        acc += i;
      return acc;
    }
  )",
                           29 * 30 / 2);
}

struct ScheduleCase {
  const char *Schedule;
  int Threads;
};

class ScheduleSweep : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleSweep, EveryIterationExactlyOnce) {
  const ScheduleCase &C = GetParam();
  std::string Source = R"(
    int hits[97];
    int main() {
      #pragma omp parallel for schedule()" +
                       std::string(C.Schedule) + R"()
      for (int i = 0; i < 97; ++i)
        hits[i] += 1;
      int bad = 0;
      for (int k = 0; k < 97; ++k)
        if (hits[k] != 1) bad += 1;
      return bad;
    }
  )";
  for (bool IRB : {false, true}) {
    CompilerOptions O;
    O.LangOpts.OpenMPEnableIRBuilder = IRB;
    O.LangOpts.OpenMPDefaultNumThreads = static_cast<unsigned>(C.Threads);
    Execution E(Source, O);
    EXPECT_EQ(E.runMain(), 0)
        << "schedule=" << C.Schedule << " threads=" << C.Threads
        << " irbuilder=" << IRB;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleSweep,
    ::testing::Values(ScheduleCase{"static", 1}, ScheduleCase{"static", 4},
                      ScheduleCase{"static, 7", 4},
                      ScheduleCase{"dynamic", 4},
                      ScheduleCase{"dynamic, 5", 3},
                      ScheduleCase{"guided", 4},
                      ScheduleCase{"guided, 2", 8}));

TEST(CompositionTest, ReductionOperators) {
  expectAllPipelinesReturn(R"(
    int mx = -1000;
    int mn = 1000;
    int main() {
      #pragma omp parallel for reduction(max: mx) reduction(min: mn)
      for (int i = 0; i < 40; ++i) {
        int v = (i * 7) % 23 - 11;
        mx = mx > v ? mx : v;
        mn = mn < v ? mn : v;
      }
      return mx * 100 + (mn + 50);
    }
  )",
                           [] {
                             int Mx = -1000, Mn = 1000;
                             for (int I = 0; I < 40; ++I) {
                               int V = (I * 7) % 23 - 11;
                               Mx = std::max(Mx, V);
                               Mn = std::min(Mn, V);
                             }
                             return Mx * 100 + (Mn + 50);
                           }());
}

TEST(CompositionTest, PrivateAndFirstprivate) {
  expectAllPipelinesReturn(R"(
    int base = 100;
    int sum = 0;
    int main() {
      #pragma omp parallel for firstprivate(base) reduction(+: sum)
      for (int i = 0; i < 10; ++i) {
        int local = base + i;
        sum += local;
      }
      return sum;
    }
  )",
                           10 * 100 + 45);
}

TEST(CompositionTest, ParallelPlusInnerFor) {
  // Orphaned-style composition: parallel region containing a worksharing
  // loop directive.
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int main() {
      #pragma omp parallel
      {
        #pragma omp for reduction(+: sum)
        for (int i = 0; i < 64; ++i)
          sum += 1;
      }
      return sum;
    }
  )",
                           64);
}

TEST(CompositionTest, SimdLoopExecutesSerially) {
  expectAllPipelinesReturn(R"(
    int acc = 0;
    int main() {
      #pragma omp simd
      for (int i = 0; i < 16; ++i)
        acc += i;
      return acc;
    }
  )",
                           120);
}

TEST(CompositionTest, ForSimdComposite) {
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int main() {
      #pragma omp parallel
      {
        #pragma omp for simd reduction(+: sum)
        for (int i = 0; i < 48; ++i)
          sum += i % 5;
      }
      return sum;
    }
  )",
                           [] {
                             int S = 0;
                             for (int I = 0; I < 48; ++I)
                               S += I % 5;
                             return S;
                           }());
}

// The paper's conclusion: "after tiling a loop, it is possible to apply
// worksharing to the outer loop and simd to the inner loop" — the OpenMP
// 6.0-bound composition, expressed directly on CanonicalLoopInfo handles
// in ompirbuilder_test and here at source level as worksharing over the
// tile-generated loop with a simd-annotated body structure.
TEST(CompositionTest, FutureWorkWorkshareOverTileGeneratedLoop) {
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int main() {
      #pragma omp parallel for reduction(+: sum)
      #pragma omp tile sizes(16)
      for (int i = 0; i < 77; ++i)
        sum += i;
      return sum;
    }
  )",
                           76 * 77 / 2);
}

TEST(CompositionTest, BarrierAndCritical) {
  expectAllPipelinesReturn(R"(
    int counter = 0;
    int main() {
      #pragma omp parallel num_threads(4)
      {
        #pragma omp critical
        {
          counter += 1;
        }
        #pragma omp barrier
        ;
      }
      return counter;
    }
  )",
                           4);
}

TEST(CompositionTest, MasterRunsOnce) {
  expectAllPipelinesReturn(R"(
    int counter = 0;
    int main() {
      #pragma omp parallel num_threads(4)
      {
        #pragma omp master
        {
          counter += 1;
        }
      }
      return counter;
    }
  )",
                           1);
}

TEST(CompositionTest, DownwardWorkshareLoop) {
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int main() {
      #pragma omp parallel for reduction(+: sum)
      for (int i = 100; i > 0; i -= 2)
        sum += i;
      return sum;
    }
  )",
                           2550); // 2+4+...+100
}

TEST(CompositionTest, UnsignedIVWorkshare) {
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int main() {
      #pragma omp parallel for reduction(+: sum)
      for (unsigned int i = 0u; i < 33u; i += 3)
        sum += i;
      return sum;
    }
  )",
                           0 + 3 + 6 + 9 + 12 + 15 + 18 + 21 + 24 + 27 + 30);
}

TEST(CompositionTest, VariableBoundsEvaluatedCorrectly) {
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int compute(int lo, int hi, int step) {
      #pragma omp parallel for reduction(+: sum)
      #pragma omp unroll partial(2)
      for (int i = lo; i < hi; i += step)
        sum += i;
      return sum;
    }
    int main() { return compute(3, 50, 5); }
  )",
                           3 + 8 + 13 + 18 + 23 + 28 + 33 + 38 + 43 + 48);
}

TEST(CompositionTest, PointerIVWorkshareLoop) {
  // A pointer-typed iteration variable exercises the non-trivial distance
  // function (divide a byte distance by the step) and loop-variable
  // function (pointer reconstruction) — the MiniC stand-in for the
  // paper's iterator-based loops (DESIGN.md substitution #2).
  expectAllPipelinesReturn(R"(
    int data[40];
    int sum = 0;
    int main() {
      for (int k = 0; k < 40; ++k) data[k] = k;
      #pragma omp parallel for reduction(+: sum)
      for (int *p = data; p < data + 40; p += 1)
        sum += *p;
      return sum;
    }
  )",
                           39 * 40 / 2);
}

TEST(CompositionTest, PointerIVStridedUnroll) {
  expectAllPipelinesReturn(R"(
    int data[32];
    int sum = 0;
    int main() {
      for (int k = 0; k < 32; ++k) data[k] = k + 1;
      #pragma omp unroll partial(2)
      for (int *p = data; p < data + 32; p += 3)
        sum += *p;
      return sum;
    }
  )",
                           [] {
                             int S = 0;
                             for (int K = 0; K < 32; K += 3)
                               S += K + 1;
                             return S;
                           }());
}

TEST(CompositionTest, Collapse3TripleNest) {
  expectAllPipelinesReturn(R"(
    int hits[120];
    int main() {
      #pragma omp parallel for collapse(3)
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 5; ++j)
          for (int k = 0; k < 6; ++k)
            hits[i * 30 + j * 6 + k] += 1;
      int bad = 0;
      for (int n = 0; n < 120; ++n)
        if (hits[n] != 1) bad += 1;
      return bad;
    }
  )",
                           0);
}

struct ComposeCase {
  int Trip, UnrollFactor, TileSize;
};

class ComposeSweep : public ::testing::TestWithParam<ComposeCase> {};

TEST_P(ComposeSweep, TileOverUnrollAllPipelines) {
  const ComposeCase &C = GetParam();
  std::string Source =
      "int acc = 0;\nint main() {\n"
      "  #pragma omp tile sizes(" + std::to_string(C.TileSize) + ")\n" +
      "  #pragma omp unroll partial(" + std::to_string(C.UnrollFactor) +
      ")\n" +
      "  for (int i = 0; i < " + std::to_string(C.Trip) +
      "; ++i)\n    acc += i;\n  return acc;\n}\n";
  expectAllPipelinesReturn(
      Source, static_cast<std::int64_t>(C.Trip) * (C.Trip - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComposeSweep,
    ::testing::Values(ComposeCase{16, 2, 4}, ComposeCase{17, 2, 4},
                      ComposeCase{30, 3, 5}, ComposeCase{7, 4, 8},
                      ComposeCase{100, 8, 4}));

TEST(CompositionTest, NonCanonicalLoopNoteEmitted) {
  Execution E(R"(
    int main() {
      #pragma omp for
      for (int i = 1; i < 100; i *= 2) ;
      return 0;
    }
  )");
  EXPECT_FALSE(E.CompiledOK);
  std::string Diags = E.diagnostics();
  EXPECT_NE(Diags.find("increment clause"), std::string::npos);
  // The "note: loop must conform to the OpenMP canonical loop form"
  // companion diagnostic.
  EXPECT_NE(Diags.find("note:"), std::string::npos);
  EXPECT_NE(Diags.find("canonical loop form"), std::string::npos);
}

// A directive may associate with at most the loops a nested
// transformation generates: tile sizes(n) exposes n (its floor loops),
// unroll partial one. Both pipelines refuse a directive that asks for
// more; the IRBuilder pipeline used to crash or drop the collapse.
struct ArityCase {
  const char *Name;
  const char *Source;
  const char *Found; // "but only <Found> were found"
};

class ConsumedArity : public ::testing::TestWithParam<ArityCase> {};

TEST_P(ConsumedArity, RefusedInBothPipelines) {
  for (bool IRBuilder : {false, true}) {
    CompilerOptions Opts;
    Opts.LangOpts.OpenMPEnableIRBuilder = IRBuilder;
    Execution E(GetParam().Source, Opts);
    EXPECT_FALSE(E.CompiledOK) << (IRBuilder ? "irbuilder" : "legacy");
    EXPECT_NE(E.diagnostics().find(std::string("but only ") +
                                   GetParam().Found + " were found"),
              std::string::npos)
        << (IRBuilder ? "irbuilder" : "legacy") << ":\n"
        << E.diagnostics();
  }
}

INSTANTIATE_TEST_SUITE_P(
    CompositionTest, ConsumedArity,
    ::testing::Values(
        ArityCase{"TileThreeOverUnrollPartial", R"(
          int a[64];
          int main() {
            #pragma omp tile sizes(4, 4, 4)
            #pragma omp unroll partial(2)
            for (int i = 0; i < 64; i += 1)
              a[i] = i;
            return a[5];
          })",
                  "1"},
        ArityCase{"CollapseTwoOverUnrollPartial", R"(
          int main() {
            int s = 0;
            #pragma omp parallel for collapse(2) reduction(+: s)
            #pragma omp unroll partial(2)
            for (int i = 0; i < 64; i += 1)
              s += i;
            return s;
          })",
                  "1"},
        ArityCase{"TileThreeOverTileTwo", R"(
          int a[64];
          int main() {
            #pragma omp tile sizes(4, 4, 4)
            #pragma omp tile sizes(2, 2)
            for (int i = 0; i < 8; i += 1)
              for (int j = 0; j < 8; j += 1)
                a[i * 8 + j] = i + j;
            return a[9];
          })",
                  "2"},
        ArityCase{"CollapseFourOverTileTwo", R"(
          int main() {
            int s = 0;
            #pragma omp parallel for collapse(4) reduction(+: s)
            #pragma omp tile sizes(3, 4)
            for (int i = 0; i < 8; i += 1)
              for (int j = 0; j < 8; j += 1)
                s += i + j;
            return s;
          })",
                  "2"}),
    [](const ::testing::TestParamInfo<ArityCase> &Info) {
      return std::string(Info.param.Name);
    });

// In IRBuilder mode a nested transformation is composed on loop handles
// only at the top of a nest; below a literal loop it is refused with a
// diagnostic (the legacy pipeline consumes its shadow loop instead).
TEST(CompositionTest, IRBuilderRefusesTransformBelowLiteralLoop) {
  const char *Source = R"(
    int a[64];
    int main() {
      #pragma omp tile sizes(2, 2)
      for (int i = 0; i < 8; i += 1)
        #pragma omp unroll partial(2)
        for (int j = 0; j < 8; j += 1)
          a[i * 8 + j] = i + j;
      return a[9];
    }
  )";
  EXPECT_EQ(Execution(Source).runMain(), 2);
  Execution E(Source, irBuilderOpts());
  EXPECT_FALSE(E.CompiledOK);
  EXPECT_NE(E.diagnostics().find("below a literal loop"), std::string::npos)
      << E.diagnostics();
}

TEST(CompositionTest, ZeroTripWorkshareLoop) {
  expectAllPipelinesReturn(R"(
    int sum = 0;
    int main() {
      int n = 0;
      #pragma omp parallel for reduction(+: sum)
      for (int i = 0; i < n; ++i)
        sum += 1;
      return sum;
    }
  )",
                           0);
}

TEST(CompositionTest, NumThreadsClauseRespected) {
  const char *Source = R"(
    int ids[16];
    int main() {
      #pragma omp parallel num_threads(3)
      {
        ids[omp_get_thread_num()] = 1;
      }
      int n = 0;
      for (int i = 0; i < 16; ++i) n += ids[i];
      return n;
    }
  )";
  // omp_get_thread_num must be declared for Sema; prepend a prototype.
  std::string WithProto = std::string("int omp_get_thread_num();\n") + Source;
  expectAllPipelinesReturn(WithProto, 3);
}

} // namespace
