//===--- Gen.cpp - Seeded job lists and their host references -------------===//
//
// Nests are fuzz::ProgramSpec values, so each one renders through the
// fuzzer's printer and checks against ProgramSpec::reference(), which
// evaluates the serial program on the host. Several nests are spliced
// into one function by renaming each nest's globals; the function folds
// the nests' checksums in a fixed order that the host repeats.
//
//===----------------------------------------------------------------------===//
#include "Bench.h"

#include "fuzz/Fuzz.h"

#include <cctype>
#include <cmath>

namespace pb {
namespace {

using mcc::fuzz::BodyOp;
using mcc::fuzz::LoopSpec;
using mcc::fuzz::ProgramSpec;
using mcc::fuzz::RelOp;
using mcc::fuzz::SiblingSpec;

constexpr std::int64_t Mod = 1000000007;

/// The accepted directive mix, one entry per nest kind. The dependence-
/// gated kinds (fuse, reverse, interchange) use bodies without carried
/// dependences, so the legality oracle runs and must accept them.
enum class NestKind {
  Tile,
  Unroll,
  UnrollFull,
  TileUnroll,
  ParallelFor,
  Collapse,
  ParallelTile,
  Fuse,
  ParallelFuse,
  Reverse,
  Interchange,
  ParallelInterchange,
};
constexpr unsigned NumNestKinds = 12;

/// A loop with exactly \p Trip iterations; non-simple loops vary the
/// bound form, step sign and comparison.
LoopSpec makeLoop(Draw &D, std::int64_t Trip, bool Simple) {
  if (Simple)
    return LoopSpec{0, Trip, 1, RelOp::LT};
  std::int64_t Lb = D.Value.range(-4, 4), Step = D.Shape.range(1, 3);
  switch (D.Shape.range(0, 3)) {
  case 0:
    return LoopSpec{Lb, Lb + Trip * Step, Step, RelOp::LT};
  case 1:
    return LoopSpec{Lb, Lb + (Trip - 1) * Step, Step, RelOp::LE};
  case 2:
    return LoopSpec{Lb, Lb - Trip * Step, -Step, RelOp::GT};
  default:
    return LoopSpec{Lb, Lb - (Trip - 1) * Step, -Step, RelOp::GE};
  }
}

BodyOp makeOp(Draw &D, bool DependenceGated) {
  BodyOp Op;
  if (DependenceGated)
    Op.K = D.Shape.range(0, 1) ? BodyOp::Kind::ArrayUpdate
                               : BodyOp::Kind::SumLinear;
  else
    switch (D.Shape.range(0, 3)) {
    case 0:
      Op.K = BodyOp::Kind::SumLinear;
      break;
    case 1:
      Op.K = BodyOp::Kind::SumQuadratic;
      break;
    case 2:
      Op.K = BodyOp::Kind::SumCond;
      break;
    default:
      Op.K = BodyOp::Kind::ArrayUpdate;
      break;
    }
  for (std::int64_t &C : Op.C)
    C = D.Value.range(-9, 9);
  if (Op.C[0] == 0)
    Op.C[0] = 1 + D.Value.range(0, 8);
  Op.Bias = D.Value.range(-20, 20);
  Op.Mod = D.Value.range(2, 5);
  return Op;
}

const char *pickSchedule(Draw &D) {
  static const char *Schedules[] = {"",          "static",     "static, 2",
                                    "static, 5", "dynamic, 3", "guided"};
  return Schedules[D.Shape.range(0, 5)];
}

ProgramSpec makeNest(Draw &D, NestKind K, std::int64_t MaxTrip) {
  Rng &S = D.Shape;
  ProgramSpec P;
  auto Trip = [&] { return S.range(2, MaxTrip); };
  auto Loops = [&](unsigned Depth, bool Simple) {
    for (unsigned L = 0; L < Depth; ++L)
      P.Loops.push_back(makeLoop(D, Trip(), Simple));
  };
  auto Body = [&](bool Gated) {
    for (std::int64_t N = S.range(1, Gated ? 2 : 3); N > 0; --N)
      P.Body.push_back(makeOp(D, Gated));
  };
  auto Siblings = [&](unsigned N) {
    P.DirectIndex = true;
    for (unsigned I = 0; I < N; ++I) {
      SiblingSpec Sib;
      Sib.Loop = LoopSpec{0, Trip(), 1, RelOp::LT};
      for (std::int64_t Ops = S.range(1, 2); Ops > 0; --Ops) {
        BodyOp Op = makeOp(D, /*DependenceGated=*/true);
        if (Op.K == BodyOp::Kind::SumLinear && S.range(0, 1))
          Op.K = BodyOp::Kind::SumQuadratic;
        Sib.Body.push_back(Op);
      }
      P.Siblings.push_back(Sib);
    }
  };
  auto Permute = [&](unsigned Depth) {
    std::vector<unsigned> Perm(Depth);
    for (unsigned L = 0; L < Depth; ++L)
      Perm[L] = L + 1;
    do {
      for (unsigned L = Depth; L > 1; --L)
        std::swap(Perm[L - 1], Perm[static_cast<unsigned>(S.range(0, L - 1))]);
    } while (std::is_sorted(Perm.begin(), Perm.end()));
    return Perm;
  };
  mcc::fuzz::PragmaSpec &G = P.Pragmas;
  switch (K) {
  case NestKind::Tile: {
    unsigned Depth = static_cast<unsigned>(S.range(1, 3));
    Loops(Depth, false);
    Body(false);
    for (std::int64_t N = S.range(1, Depth); N > 0; --N)
      G.TileSizes.push_back(S.range(1, 8));
    break;
  }
  case NestKind::Unroll: {
    unsigned Depth = static_cast<unsigned>(S.range(1, 3));
    Loops(Depth, false);
    Body(false);
    G.UnrollFactor = static_cast<unsigned>(S.range(2, 8));
    G.UnrollInnermost = Depth >= 2 && S.range(0, 1);
    break;
  }
  case NestKind::UnrollFull:
    P.Loops.push_back(makeLoop(D, S.range(2, 6), false));
    if (S.range(0, 1))
      P.Loops.push_back(makeLoop(D, Trip(), false));
    Body(false);
    G.UnrollFull = true;
    break;
  case NestKind::TileUnroll:
    Loops(static_cast<unsigned>(S.range(1, 2)), false);
    Body(false);
    G.TileSizes.push_back(S.range(1, 8));
    G.UnrollFactor = static_cast<unsigned>(S.range(2, 4));
    break;
  case NestKind::ParallelFor:
    Loops(static_cast<unsigned>(S.range(1, 2)), false);
    Body(false);
    G.ParallelFor = true;
    G.Schedule = pickSchedule(D);
    break;
  case NestKind::Collapse: {
    unsigned Depth = static_cast<unsigned>(S.range(2, 3));
    Loops(Depth, false);
    Body(false);
    G.ParallelFor = true;
    G.Schedule = pickSchedule(D);
    G.Collapse = static_cast<unsigned>(S.range(2, Depth));
    break;
  }
  case NestKind::ParallelTile:
    Loops(static_cast<unsigned>(S.range(1, 2)), false);
    Body(false);
    G.ParallelFor = true;
    G.TileSizes.push_back(S.range(1, 8));
    break;
  case NestKind::Fuse:
    Siblings(static_cast<unsigned>(S.range(2, 3)));
    G.Fuse = true;
    if (P.Siblings.size() == 3 && S.range(0, 1)) {
      G.FuseFirst = static_cast<unsigned>(S.range(1, 2));
      G.FuseCount = 2;
    }
    break;
  case NestKind::ParallelFuse:
    Siblings(2);
    G.Fuse = true;
    G.ParallelFor = true;
    G.Schedule = pickSchedule(D);
    break;
  case NestKind::Reverse:
    Loops(static_cast<unsigned>(S.range(1, 3)), true);
    P.DirectIndex = true;
    Body(true);
    G.Reverse = true;
    break;
  case NestKind::Interchange: {
    unsigned Depth = static_cast<unsigned>(S.range(2, 3));
    Loops(Depth, true);
    P.DirectIndex = true;
    Body(true);
    G.Permutation = Permute(Depth);
    break;
  }
  case NestKind::ParallelInterchange:
    Loops(2, true);
    P.DirectIndex = true;
    Body(true);
    G.ParallelFor = true;
    G.Permutation = {2, 1};
    break;
  }
  return P;
}

/// `reverse` over a loop whose body reads a[i] and updates a[i + D]:
/// iteration i + D reads what iteration i wrote, a flow dependence of
/// distance D that reversal would invert, so the transform is illegal.
ProgramSpec makeCarriedNest(Draw &D) {
  ProgramSpec P;
  std::int64_t Dist = D.Shape.range(1, 3);
  P.Loops.push_back(LoopSpec{0, D.Shape.range(Dist + 2, 12), 1, RelOp::LT});
  P.DirectIndex = true;
  P.Body.push_back(makeOp(D, /*DependenceGated=*/true));
  BodyOp Carried = makeOp(D, /*DependenceGated=*/true);
  Carried.K = BodyOp::Kind::ArrayCarried;
  Carried.Dist = Dist;
  P.Body.push_back(Carried);
  P.Pragmas.Reverse = true;
  return P;
}

/// Renames the identifiers `sum` and `a` of a rendered nest.
std::string renameGlobals(const std::string &Text, const std::string &Sum,
                          const std::string &Arr) {
  std::string Out;
  Out.reserve(Text.size() + 64);
  for (std::size_t I = 0; I < Text.size();) {
    unsigned char Ch = static_cast<unsigned char>(Text[I]);
    if (std::isalpha(Ch) || Ch == '_') {
      std::size_t J = I;
      while (J < Text.size() &&
             (std::isalnum(static_cast<unsigned char>(Text[J])) ||
              Text[J] == '_'))
        ++J;
      std::string Id = Text.substr(I, J - I);
      Out += Id == "sum" ? Sum : Id == "a" ? Arr : Id;
      I = J;
    } else if (std::isdigit(Ch)) {
      while (I < Text.size() &&
             std::isalnum(static_cast<unsigned char>(Text[I])))
        Out += Text[I++];
    } else {
      Out += Text[I++];
    }
  }
  return Out;
}

/// Splices \p Nests into `int Name()`, appending their globals to
/// \p Globals. Returns the function's host-evaluated result.
std::int64_t renderFunction(const std::string &Name,
                            const std::vector<ProgramSpec> &Nests,
                            std::string &Globals, std::string &Fn) {
  static const std::string Head = "int main() {\n";
  static const std::string Tail = "  return out;\n}\n";
  Fn += "int " + Name + "() {\n  long acc = 0;\n";
  std::int64_t Acc = 0;
  for (std::size_t K = 0; K < Nests.size(); ++K) {
    std::string Id = Name + "_" + std::to_string(K);
    std::string Text = renameGlobals(Nests[K].render(), "s" + Id, "a" + Id);
    std::size_t H = Text.find(Head);
    std::size_t T = Text.rfind(Tail);
    Globals += Text.substr(0, H);
    Fn += "  {\n";
    Fn += Text.substr(H + Head.size(), T - H - Head.size());
    Fn += "    acc = (acc * 131 + out) % 1000000007;\n  }\n";
    Acc = (Acc * 131 + Nests[K].reference()) % Mod;
  }
  Fn += "  int ret = acc;\n  return ret;\n}\n";
  return static_cast<std::int32_t>(Acc);
}

} // namespace

Program makeNestProgram(Draw &D, unsigned NumFns, unsigned NestsPerFn,
                        std::int64_t MaxTrip, unsigned &Cursor,
                        bool CarriedNest) {
  Program Out;
  std::string Globals, Fns;
  std::string Main = "int main() {\n  long acc = 0;\n";
  std::int64_t Acc = 0;
  unsigned CarriedFn = static_cast<unsigned>(D.Shape.range(0, NumFns - 1));
  for (unsigned F = 0; F < NumFns; ++F) {
    std::vector<ProgramSpec> Nests;
    for (unsigned K = 0; K < NestsPerFn; ++K)
      Nests.push_back(makeNest(
          D, static_cast<NestKind>(Cursor++ % NumNestKinds), MaxTrip));
    if (CarriedNest && F == CarriedFn)
      Nests.back() = makeCarriedNest(D);
    std::string Name = "f" + std::to_string(F);
    std::int64_t V = renderFunction(Name, Nests, Globals, Fns);
    Acc = (Acc * 131 + V) % Mod;
    Main += "  acc = (acc * 131 + " + Name + "()) % 1000000007;\n";
  }
  Main += "  int ret = acc;\n  return ret;\n}\n";
  Out.Source = Globals + Fns + Main;
  Out.Reference = static_cast<std::int32_t>(Acc);
  Out.ExpectRefusal = CarriedNest;
  return Out;
}

//===----------------------------------------------------------------------===//
// kernel_run kernels
//===----------------------------------------------------------------------===//

namespace {

/// MiniC `int` arithmetic: 32-bit, wrapping like the IR's i32.
std::int32_t i32(std::int64_t V) { return static_cast<std::int32_t>(V); }

constexpr unsigned NumKernelKinds = 9;
const char *const KernelNames[NumKernelKinds] = {
    "Plain",     "Unroll8",     "Tile16",   "ArraySweep", "CallHeavy",
    "RegPressure", "ParallelFor", "Collapse", "Dynamic"};

/// Kernel \p Kind: source plus host-evaluated result. \p Work scales the
/// iteration count.
Program makeKernel(Draw &D, unsigned Kind, double Work) {
  Program P;
  const std::int64_t C0 = D.Value.range(1, 9), C1 = D.Value.range(1, 9);
  const std::string S0 = std::to_string(C0), S1 = std::to_string(C1);
  // Sizes scale with Work and vary by up to 6% from job to job.
  auto Jitter = [&](double Base) {
    std::int64_t N = static_cast<std::int64_t>(Base * Work);
    return N - N / 16 + D.Shape.range(0, N / 8);
  };
  std::int64_t Acc = 0;
  switch (Kind) {
  case 0:   // Plain
  case 1: { // Unroll8
    std::int64_t N = Jitter(900000);
    P.Source = "long acc = 0;\nint main() {\n  acc = 0;\n";
    if (Kind == 1)
      P.Source += "  #pragma omp unroll partial(8)\n";
    P.Source += "  for (int i = 0; i < " + std::to_string(N) +
                "; i += 1)\n    acc += i * " + S1 + " + " + S0 + ";\n";
    for (std::int64_t I = 0; I < N; ++I)
      Acc += i32(I * C1 + C0);
    break;
  }
  case 2: { // Tile16
    std::int64_t Outer = Jitter(12288), Inner = 64;
    P.Source = "long acc = 0;\nint main() {\n  acc = 0;\n"
               "  #pragma omp tile sizes(16, 16)\n"
               "  for (int i = 0; i < " + std::to_string(Outer) +
               "; i += 1)\n    for (int j = 0; j < " + std::to_string(Inner) +
               "; j += 1)\n      acc += i * " + S1 + " + j;\n";
    for (std::int64_t I = 0; I < Outer; ++I)
      for (std::int64_t J = 0; J < Inner; ++J)
        Acc += i32(I * C1 + J);
    break;
  }
  case 3: { // ArraySweep
    std::int64_t Rounds = Jitter(768);
    P.Source = "long a[1024];\nint main() {\n"
               "  for (int k = 0; k < 1024; k += 1)\n    a[k] = k;\n"
               "  for (int r = 0; r < " + std::to_string(Rounds) +
               "; r += 1)\n    for (int i = 0; i < 1024; i += 1)\n"
               "      a[i] += i * " + S1 + " + " + S0 + ";\n"
               "  long acc = 0;\n"
               "  for (int k = 0; k < 1024; k += 1)\n    acc += a[k];\n";
    for (std::int64_t K = 0; K < 1024; ++K)
      Acc += K + Rounds * i32(K * C1 + C0);
    break;
  }
  case 4: { // CallHeavy
    std::int64_t N = Jitter(300000);
    P.Source = "int add3(int a, int b, int c) { return a + b + c; }\n"
               "int mix(int a, int b) { return add3(a, b * " + S1 +
               ", a - b); }\n"
               "long acc = 0;\nint main() {\n  acc = 0;\n"
               "  for (int i = 0; i < " + std::to_string(N) +
               "; i += 1)\n    acc += mix(i, i + " + S0 + ");\n";
    for (std::int64_t I = 0; I < N; ++I) {
      std::int64_t A = I, B = i32(I + C0);
      Acc += i32(i32(A + i32(B * C1)) + i32(A - B));
    }
    break;
  }
  case 5: { // RegPressure
    std::int64_t N = Jitter(600000);
    P.Source = "long a0 = 0; long a1 = 0; long a2 = 0;\n"
               "long a3 = 0; long a4 = 0; long a5 = 0;\n"
               "int main() {\n"
               "  a0 = " + S0 + "; a1 = 1; a2 = 2; a3 = 3; a4 = 4; a5 = " +
               S1 + ";\n"
               "  for (int i = 0; i < " + std::to_string(N) + "; i += 1) {\n"
               "    a0 += i; a1 += i * 2; a2 += i * 3;\n"
               "    a3 += a0; a4 += a1; a5 += a2;\n"
               "  }\n"
               "  long acc = a0 + a1 + a2 + a3 + a4 + a5;\n";
    std::int64_t A0 = C0, A1 = 1, A2 = 2, A3 = 3, A4 = 4, A5 = C1;
    for (std::int64_t I = 0; I < N; ++I) {
      A0 += I;
      A1 += i32(I * 2);
      A2 += i32(I * 3);
      A3 += A0;
      A4 += A1;
      A5 += A2;
    }
    Acc = A0 + A1 + A2 + A3 + A4 + A5;
    break;
  }
  case 6: { // ParallelFor
    std::int64_t N = Jitter(2400000);
    P.Source = "int main() {\n  long acc = 0;\n"
               "  #pragma omp parallel for reduction(+: acc) schedule(static)\n"
               "  for (int i = 0; i < " + std::to_string(N) +
               "; i += 1)\n    acc += i * " + S1 + " + " + S0 + ";\n";
    for (std::int64_t I = 0; I < N; ++I)
      Acc += i32(I * C1 + C0);
    break;
  }
  case 7: { // Collapse
    std::int64_t Rows = Jitter(3840), Cols = 640;
    P.Source = "int main() {\n  long acc = 0;\n"
               "  #pragma omp parallel for collapse(2) reduction(+: acc)\n"
               "  for (int i = 0; i < " + std::to_string(Rows) +
               "; i += 1)\n    for (int j = 0; j < " + std::to_string(Cols) +
               "; j += 1)\n      acc += i * " + S1 + " + j * " + S0 + ";\n";
    for (std::int64_t I = 0; I < Rows; ++I)
      for (std::int64_t J = 0; J < Cols; ++J)
        Acc += i32(i32(I * C1) + i32(J * C0));
    break;
  }
  default: { // Dynamic: triangular work, so chunks are uneven
    std::int64_t Rows = Jitter(2200 / std::sqrt(Work));
    P.Source = "int main() {\n  long acc = 0;\n"
               "  #pragma omp parallel for reduction(+: acc) "
               "schedule(dynamic, 16)\n"
               "  for (int i = 0; i < " + std::to_string(Rows) +
               "; i += 1)\n    for (int j = 0; j < i; j += 1)\n"
               "      acc += j * " + S1 + " + " + S0 + ";\n";
    for (std::int64_t I = 0; I < Rows; ++I)
      for (std::int64_t J = 0; J < I; ++J)
        Acc += i32(J * C1 + C0);
    break;
  }
  }
  P.Source += "  int out = acc % 1000000;\n  return out;\n}\n";
  P.Reference = i32(Acc % 1000000);
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Job lists
//===----------------------------------------------------------------------===//

namespace {

mcc::CompilerOptions options(bool O1, bool IRBuilder,
                             mcc::interp::ExecEngineKind Engine) {
  mcc::CompilerOptions O;
  O.RunMidend = O1;
  O.LangOpts.OpenMPEnableIRBuilder = IRBuilder;
  O.ExecEngine = Engine;
  return O;
}

Job toJob(Program P, mcc::CompilerOptions O, unsigned Nests,
          const char *Label) {
  Job J;
  J.Source = std::move(P.Source);
  J.Opts = std::move(O);
  J.Want = P.ExpectRefusal ? Expect::Refusal : Expect::Value;
  J.Reference = P.Reference;
  J.NestsPerFn = Nests;
  J.Label = Label;
  return J;
}

} // namespace

std::vector<Job> makeNestCompileJobs(std::uint64_t Seed, unsigned Count) {
  Draw D(0x6e657374ull, Seed);
  std::vector<Job> Jobs;
  // One directive cursor per nest count, so that every group walks the
  // whole directive mix and the groups differ only in nests per function.
  unsigned Cursors[4] = {0, 0, 0, 0};
  static const char *Labels[] = {"", "nests=1", "nests=2", "nests=3"};
  for (unsigned I = 0; I < Count; ++I) {
    // Nest counts cycle 1,2,3 so each pass holds the same mix, with the
    // multi-nest functions where ScalarPromote's cost grows fastest.
    unsigned Nests = 1 + I % 3;
    Program P = makeNestProgram(D, 1, Nests, 8, Cursors[Nests]);
    bool IRBuilder = (I / 3) % 2;
    Jobs.push_back(toJob(std::move(P),
                         options(true, IRBuilder,
                                 mcc::interp::ExecEngineKind::Bytecode),
                         Nests, Labels[Nests]));
  }
  return Jobs;
}

std::vector<Job> makeFrontendBulkJobs(std::uint64_t Seed, unsigned Count) {
  Draw D(0x62756c6bull, Seed);
  std::vector<Job> Jobs;
  unsigned Cursor = 0;
  for (unsigned I = 0; I < Count; ++I) {
    // Every eighth unit carries one dependence-violating reverse, which
    // Sema must refuse; the rest compile and run once.
    bool Carried = I % 8 == 7;
    Program P = makeNestProgram(D, 32, 4, 4, Cursor, Carried);
    Jobs.push_back(toJob(std::move(P),
                         options(false, I % 2,
                                 mcc::interp::ExecEngineKind::Bytecode),
                         4, Carried ? "refused" : "bulk"));
  }
  return Jobs;
}

std::vector<Job> makeKernelRunJobs(std::uint64_t Seed, unsigned Count) {
  Draw D(0x6b65726eull, Seed);
  static const mcc::interp::ExecEngineKind Engines[] = {
      mcc::interp::ExecEngineKind::Bytecode,
      mcc::interp::ExecEngineKind::Native,
      mcc::interp::ExecEngineKind::Tiered};
  // Work per kernel and engine, sized so that every job takes about 15 ms
  // on the reference host: job times then cluster, and p50 and p90 sit in
  // dense parts of the distribution instead of in the gap between slow
  // bytecode jobs and fast native ones. RegPressure stays below 2M
  // iterations, where its cubic accumulator still fits in a long.
  static const double Work[9][3] = {
      {0.49, 4.66, 4.07}, {0.47, 2.19, 2.43}, {0.40, 1.89, 2.09},
      {0.55, 3.34, 3.46}, {0.32, 0.84, 0.94}, {0.49, 3.30, 3.30},
      {0.67, 2.29, 3.45}, {0.43, 1.17, 1.15}, {0.69, 4.77, 3.62}};
  std::vector<Job> Jobs;
  for (unsigned I = 0; I < Count; ++I) {
    unsigned Kind = I % NumKernelKinds;
    unsigned Engine = (I / NumKernelKinds) % 3;
    Jobs.push_back(toJob(makeKernel(D, Kind, Work[Kind][Engine]),
                         options(true, true, Engines[Engine]), 0,
                         KernelNames[Kind]));
  }
  return Jobs;
}

} // namespace pb
