//===--- RecoverySource.h - E17's recovery-mix program ----------*- C++ -*-===//
//
// The "job mix" program of E17's cold-start recovery measurement: one
// `main` holding a number of pragma-annotated nests (a collapsed
// parallel for, a partially unrolled loop and a tiled nest per nest
// group), so a cold compile pays real parse/Sema/lowering/mid-end cost.
// Shared by bench_service (the mix, 8 nests), bench_pipeline (mid-end
// nest scaling, 1-16 nests) and the -O1 IR golden of the 8-nest job.
// Header-only and free of the benchmark library so tests can include it.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_BENCH_RECOVERYSOURCE_H
#define MCC_BENCH_RECOVERYSOURCE_H

#include <string>

namespace mcc::bench {

/// The recovery-mix program number \p Seed, with \p Nests nest groups in
/// `main`.
inline std::string recoverySource(unsigned Seed, unsigned Nests = 8) {
  std::string S = "#define N 32\n";
  S += "long seed" + std::to_string(Seed) + " = " + std::to_string(Seed) +
       ";\n";
  S += "int a[N * N]; int b[N * N]; int c[N * N];\n"
       "int main(void) {\n";
  for (unsigned K = 0; K < Nests; ++K) {
    std::string KS = std::to_string(K + 1);
    S += "  #pragma omp parallel for collapse(2)\n"
         "  for (int i = 0; i < N; i = i + 1)\n"
         "    for (int j = 0; j < N; j = j + 1)\n"
         "      c[i * N + j] = a[i * N + j] * " + KS + " + b[j * N + i];\n"
         "  #pragma omp unroll partial(16)\n"
         "  for (int k = 0; k < N * N; k = k + 1)\n"
         "    a[k] = c[k] + " + KS + ";\n"
         // Literal bounds: tile's shadow-node verifier rejects loop
         // bounds spelled via macro expansion (location outside the loop).
         "  #pragma omp tile sizes(4, 4)\n"
         "  for (int t1 = 0; t1 < 32; t1 = t1 + 1)\n"
         "    for (int t2 = 0; t2 < 32; t2 = t2 + 1)\n"
         "      b[t1 * 32 + t2] = b[t1 * 32 + t2] + a[t2 * 32 + t1];\n";
  }
  S += "  long sum = 0;\n"
       "  for (int k = 0; k < N * N; k = k + 1)\n"
       "    sum += a[k];\n"
       "  int out = sum;\n"
       "  return out;\n"
       "}\n";
  return S;
}

} // namespace mcc::bench

#endif // MCC_BENCH_RECOVERYSOURCE_H
