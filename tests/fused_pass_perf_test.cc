// Release-mode gate for the fused node-stats pass (the tentpole of the
// out-of-core statistics engine): ComputeNodeStats must deliver the
// degree vector AND the per-node triangle counts in no more time than
// the unfused pair of kernels — the fusion halves the passes over the
// backing store (the out-of-core win, pinned structurally by the
// PassCounter tests) and must never pay for it in in-RAM wall time.
//
// Measurement discipline matches simd_perf_test.cc: interleaved
// min-of-reps in one process (cross-run wall-clock on shared CI
// machines swings ±10–20%; interleaved ratios stay stable), Release
// builds only, single-core hosts skipped. The gate is a no-regression
// bound (≥ 0.9×, the Metropolis-gate convention for wins below the
// noise floor) — the unfused side's extra degree pass reads only the
// offsets array, so its in-RAM cost is small; the structural claim
// "one traversal, not two" is asserted exactly via PassCounter, not
// timed.
//
// Stated workload: both sides run on ONE pool thread, on a k = 12 SKG
// sample (4096 nodes), best of 5 interleaved reps. At the ambient
// thread count the ratio also measured pool scheduling, which a
// concurrent `ctest -j` load perturbs.

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/graph/degree.h"
#include "src/graph/graph_view.h"
#include "src/graph/node_stats.h"
#include "src/graph/triangles.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

bool ReleaseBuild() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

#define DPKRON_REQUIRE_PERF_ENV()                                           \
  do {                                                                      \
    if (!ReleaseBuild()) GTEST_SKIP() << "perf gate needs a Release build"; \
    if (std::thread::hardware_concurrency() < 2)                            \
      GTEST_SKIP() << "single-core host: timing too noisy to gate";         \
  } while (false)

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

template <typename UnfusedFn, typename FusedFn>
double InterleavedSpeedup(int reps, UnfusedFn&& unfused_fn,
                          FusedFn&& fused_fn) {
  double unfused_min = std::numeric_limits<double>::infinity();
  double fused_min = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    unfused_min = std::min(unfused_min, TimeSeconds(unfused_fn));
    fused_min = std::min(fused_min, TimeSeconds(fused_fn));
  }
  return unfused_min / fused_min;
}

TEST(FusedPassPerfGate, NodeStatsNoSlowerThanTheUnfusedKernels) {
  DPKRON_REQUIRE_PERF_ENV();
  testing::ScopedThreadCount one_thread(1);
  Rng rng(12);
  const Graph g = SampleSkg({0.99, 0.55, 0.35}, 12, rng);

  // Both sides produce the identical (degrees, triangles) pair — the
  // equivalence the correctness tests pin — so the ratio compares equal
  // work.
  uint64_t fused_sum = 0, unfused_sum = 0;
  const double speedup = InterleavedSpeedup(
      5,
      [&] {
        const auto degrees = DegreeVector(g);
        const auto triangles = PerNodeTriangles(g);
        unfused_sum += degrees.back() + triangles.back();
      },
      [&] {
        const NodeStats stats = ComputeNodeStats(g);
        fused_sum += stats.degrees.back() + stats.triangles.back();
      });
  EXPECT_EQ(fused_sum, unfused_sum);
  EXPECT_GE(speedup, 0.9) << "fused node-stats pass regressed: " << speedup
                          << "x vs the unfused kernel pair";

  // And the structural half of the claim, exactly: one backing-store
  // traversal where the unfused pair takes two.
  PassCounter fused_passes, unfused_passes;
  (void)ComputeNodeStats(GraphView(g).WithPassCounter(&fused_passes));
  (void)DegreeVector(GraphView(g).WithPassCounter(&unfused_passes));
  (void)PerNodeTriangles(GraphView(g).WithPassCounter(&unfused_passes));
  EXPECT_EQ(fused_passes.total(), 1u);
  EXPECT_EQ(unfused_passes.total(), 2u);
}

}  // namespace
}  // namespace dpkron
