// Release-mode performance gates for the dispatched SIMD kernels: the
// AVX2 paths must actually beat the forced-scalar fallback. All
// comparisons are in-process and interleaved — scalar and
// AVX2 reps alternate and each side keeps its minimum — because
// cross-run wall-clock on shared CI machines swings ±10–20% while
// interleaved min-of-reps ratios stay stable.
//
// Gate (speedup = scalar_time / avx2_time): triangle counting ≥ 2.0×
// (measured ~2.9× at 1 thread, ~2.4× at 4 threads on a 4-core AVX2
// Xeon; the gate runs at hardware concurrency).
//
// KronFit has no gate because it has no AVX2 path. Its edge-gradient
// kernel read 0.92–1.04× against a 1.05 bound depending on code layout
// alone, and its Metropolis swap loop is latency-bound (see
// src/kronfit/likelihood.h), so one portable loop serves every level.
//
// The tests skip themselves outside their operating envelope: debug
// builds (timings meaningless under -O0/assertions), non-AVX2 CPUs
// (nothing to compare), and runs where the cap is already below AVX2
// (DPKRON_FORCE_SCALAR — re-raising the cap would defeat the point of
// that job).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/graph/graph.h"
#include "src/graph/triangles.h"
#include "src/skg/sampler.h"

namespace dpkron {
namespace {

bool ReleaseBuild() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

// One GTEST_SKIP site per test (GTEST_SKIP must run in the TEST body).
// Single-core hosts are excluded: with everything (including the harness
// itself) timesliced onto one CPU, the interleaved measurement cannot
// resolve the few-percent margins these gates assert. CI runners and any
// real perf box have >= 2 cores and still gate.
#define DPKRON_REQUIRE_PERF_ENV()                                         \
  do {                                                                    \
    if (!ReleaseBuild()) GTEST_SKIP() << "perf gate needs a Release build"; \
    if (DetectedSimdLevel() < SimdLevel::kAvx2)                           \
      GTEST_SKIP() << "CPU/toolchain has no AVX2 path to gate";           \
    if (SimdLevelCap() < SimdLevel::kAvx2)                                \
      GTEST_SKIP() << "cap below AVX2 (DPKRON_FORCE_SCALAR run)";         \
    if (std::thread::hardware_concurrency() < 2)                          \
      GTEST_SKIP() << "single-core host: timing too noisy to gate";       \
  } while (false)

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Alternates scalar-capped and uncapped reps, returning
// min(scalar) / min(avx2). Both callables must do identical work (the
// bit-identity contract guarantees the kernels themselves do).
template <typename ScalarFn, typename SimdFn>
double InterleavedSpeedup(int reps, ScalarFn&& scalar_fn, SimdFn&& simd_fn) {
  double scalar_min = std::numeric_limits<double>::infinity();
  double simd_min = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    {
      ScopedSimdLevelCap cap(SimdLevel::kScalar);
      scalar_min = std::min(scalar_min, TimeSeconds(scalar_fn));
    }
    simd_min = std::min(simd_min, TimeSeconds(simd_fn));
  }
  return scalar_min / simd_min;
}

Graph PerfGraph(uint32_t k) {
  Rng rng(12);
  return SampleSkg({0.99, 0.55, 0.35}, k, rng);
}

TEST(SimdPerfGate, TriangleCountingAtLeast2x) {
  DPKRON_REQUIRE_PERF_ENV();
  const Graph g = PerfGraph(12);
  uint64_t scalar_count = 0, simd_count = 0;
  const double speedup = InterleavedSpeedup(
      5, [&] { scalar_count += CountTriangles(g); },
      [&] { simd_count += CountTriangles(g); });
  EXPECT_EQ(scalar_count, simd_count);
  EXPECT_GE(speedup, 2.0) << "triangle kernel under-performing: "
                          << speedup << "x vs forced scalar";
}

}  // namespace
}  // namespace dpkron
