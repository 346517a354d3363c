// Reference tests for the KronFit kernels: each fast entry point is held
// to the textbook computation written out here, exactly (EXPECT_EQ on
// doubles and on RNG state), never approximately.
//   - MetropolisChains::Advance against the textbook swap loop
//     (SwapDelta, then NextDouble() < std::exp(delta)): same σ and same
//     stream state after every call, at 1, 2 and 8 threads.
//   - SwapDelta against the neighbor walk over EdgeTerm.
//   - LogLikelihood / EdgeGradient against serial edge sums.
//   - The exp-free accept test against "uniform < std::exp(delta)".

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/graph/graph_builder.h"
#include "src/kronfit/kronfit.h"
#include "src/kronfit/likelihood.h"
#include "src/kronfit/permutation.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

// A hub joined to every other observed node plus an SKG sample among the
// rest, on 3/4 of the 2^k ids: padding to 2^k leaves the last quarter
// isolated, so swaps between two of them have delta exactly 0 and swaps
// that move the hub have very negative deltas.
Graph HubGraph(uint32_t k) {
  const uint32_t observed = (3u << k) / 4;
  Rng rng(300 + k);
  const Graph skg = SampleSkg({0.99, 0.55, 0.35}, k, rng);
  GraphBuilder builder(observed);
  for (uint32_t v = 1; v < observed; ++v) builder.AddEdge(0, v);
  for (uint32_t u = 1; u < observed; ++u) {
    for (const uint32_t v : skg.Neighbors(u)) {
      if (u < v && v < observed) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

// How often the textbook loop met each accept-test regime.
struct Regimes {
  uint64_t zero_delta = 0;     // u ≠ v, delta == 0: accepted, no draw
  uint64_t below_cut = 0;      // delta < −40: exp below 2⁻⁵³
  uint64_t close_accepts = 0;  // accepted with uniform ≥ 0.99·exp(delta)
};

// The textbook Metropolis loop the fused kernel must reproduce.
void TextbookSwaps(GraphView graph, const KronFitLikelihood& model,
                   PermutationState* sigma, Rng& rng, uint64_t count,
                   Regimes* regimes) {
  const uint32_t n = graph.NumNodes();
  for (uint64_t step = 0; step < count; ++step) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
    if (u == v) continue;
    const double delta = model.SwapDelta(graph, *sigma, u, v);
    bool accept = delta >= 0.0;
    if (!accept) {
      const double uniform = rng.NextDouble();
      accept = uniform < std::exp(delta);
      regimes->below_cut += delta < -40.0;
      regimes->close_accepts += accept && uniform >= 0.99 * std::exp(delta);
    }
    regimes->zero_delta += delta == 0.0;
    if (accept) sigma->SwapNodes(u, v);
  }
}

TEST(MetropolisReferenceTest, AdvanceMatchesTextbookLoop) {
  constexpr uint32_t kChains = 3;
  Regimes regimes;
  for (const uint32_t k : {4u, 8u, 10u}) {
    const Graph observed = HubGraph(k);
    std::vector<uint32_t> offsets;
    const GraphView g = PadWithIsolatedNodes(observed, 1u << k, &offsets);
    const uint32_t n = g.NumNodes();
    const uint64_t swaps = 2 * uint64_t{n};
    // Uniform Θ makes every delta 0; the skewed Θ drives hub moves far
    // below the −40 cut; the middle one mixes accepts and rejects.
    for (const Initiator2& theta :
         {Initiator2{0.5, 0.5, 0.5}, Initiator2{0.9, 0.6, 0.2},
          Initiator2{0.99, 0.3, 0.001}}) {
      const KronFitLikelihood model(theta, k);
      // The bank's construction, written out: split streams in chain
      // order, degree-guided start, jitter for every chain but the first.
      Rng seed_rng(17 + k);
      std::vector<Rng> streams = SplitRngStreams(seed_rng, kChains);
      std::vector<PermutationState> sigmas;
      for (uint32_t c = 0; c < kChains; ++c) {
        sigmas.push_back(DegreeGuidedInit(g, k));
        if (c > 0) PerturbUniform(&sigmas[c], n / 4, streams[c]);
      }
      // Two rounds, so the stream a round leaves behind is the one the
      // next round continues.
      std::vector<std::vector<uint32_t>> sigma_after[2];
      std::vector<uint64_t> fingerprint_after[2];
      for (int round = 0; round < 2; ++round) {
        for (uint32_t c = 0; c < kChains; ++c) {
          TextbookSwaps(g, model, &sigmas[c], streams[c], swaps, &regimes);
          sigma_after[round].push_back(sigmas[c].sigma());
          fingerprint_after[round].push_back(streams[c].StateFingerprint());
        }
      }
      for (const int threads : {1, 2, 8}) {
        testing::ScopedThreadCount scoped(threads);
        Rng rng(17 + k);
        MetropolisChains chains(g, k, kChains, rng);
        for (int round = 0; round < 2; ++round) {
          chains.Advance(model, swaps);
          for (uint32_t c = 0; c < kChains; ++c) {
            EXPECT_EQ(chains.chain(c).sigma(), sigma_after[round][c])
                << "k=" << k << " a=" << theta.a << " chain=" << c
                << " round=" << round << " threads=" << threads;
            EXPECT_EQ(chains.stream(c).StateFingerprint(),
                      fingerprint_after[round][c])
                << "k=" << k << " a=" << theta.a << " chain=" << c
                << " round=" << round << " threads=" << threads;
          }
        }
      }
    }
  }
  // The fixtures must actually reach every regime of the accept test.
  EXPECT_GT(regimes.zero_delta, 0u);
  EXPECT_GT(regimes.below_cut, 0u);
  EXPECT_GT(regimes.close_accepts, 0u);
}

TEST(MetropolisReferenceTest, SwapDeltaMatchesTextbookWalk) {
  for (const uint32_t k : {4u, 8u, 10u}) {
    const Graph observed = HubGraph(k);
    std::vector<uint32_t> offsets;
    const GraphView g = PadWithIsolatedNodes(observed, 1u << k, &offsets);
    for (const Initiator2& theta :
         {Initiator2{0.9, 0.6, 0.2}, Initiator2{0.99, 0.55, 0.35},
          Initiator2{0.99, 0.3, 0.001}}) {
      const KronFitLikelihood model(theta, k);
      PermutationState sigma = DegreeGuidedInit(g, k);
      Rng rng(7);
      PerturbUniform(&sigma, g.NumNodes() / 2, rng);
      for (int trial = 0; trial < 200; ++trial) {
        const auto u = static_cast<uint32_t>(rng.NextBounded(g.NumNodes()));
        const auto v = static_cast<uint32_t>(rng.NextBounded(g.NumNodes()));
        double expected = 0.0;
        if (u != v) {
          const uint32_t pu = sigma.Position(u), pv = sigma.Position(v);
          for (const uint32_t w : g.Neighbors(u)) {
            if (w == v) continue;
            const uint32_t pw = sigma.Position(w);
            expected += model.EdgeTerm(pv, pw) - model.EdgeTerm(pu, pw);
          }
          for (const uint32_t w : g.Neighbors(v)) {
            if (w == u) continue;
            const uint32_t pw = sigma.Position(w);
            expected += model.EdgeTerm(pu, pw) - model.EdgeTerm(pv, pw);
          }
        }
        EXPECT_EQ(model.SwapDelta(g, sigma, u, v), expected)
            << "k=" << k << " u=" << u << " v=" << v;
      }
    }
  }
}

// At most 512 nodes the chunked reductions run as one chunk, so their
// result is the plain serial edge-order sum.
TEST(MetropolisReferenceTest, LogLikelihoodAndGradientMatchEdgeSums) {
  for (const uint32_t k : {6u, 9u}) {
    const Graph observed = HubGraph(k);
    std::vector<uint32_t> offsets;
    const GraphView g = PadWithIsolatedNodes(observed, 1u << k, &offsets);
    const KronFitLikelihood model({0.9, 0.6, 0.2}, k);
    PermutationState sigma = DegreeGuidedInit(g, k);
    Rng rng(8);
    PerturbUniform(&sigma, g.NumNodes() / 2, rng);
    double edge_sum = 0.0;
    Gradient3 gradient{0.0, 0.0, 0.0};
    for (uint32_t u = 0; u < g.NumNodes(); ++u) {
      for (const uint32_t v : g.Neighbors(u)) {
        if (v <= u) continue;
        const uint32_t pu = sigma.Position(u), pv = sigma.Position(v);
        edge_sum += model.EdgeTerm(pu, pv);
        const Gradient3 term = model.EdgeGradientTerm(pu, pv);
        for (int i = 0; i < 3; ++i) gradient[i] += term[i];
      }
    }
    for (const int threads : {1, 2, 8}) {
      testing::ScopedThreadCount scoped(threads);
      EXPECT_EQ(model.LogLikelihood(g, sigma), edge_sum - model.NoEdgeTerm())
          << "k=" << k << " threads=" << threads;
      EXPECT_EQ(model.EdgeGradient(g, sigma), gradient)
          << "k=" << k << " threads=" << threads;
    }
  }
}

// Uniforms on NextDouble's 2⁻⁵³ grid at and around exp(delta), including
// the edges of the approximation's ±4e-11 bracket, across the whole
// downhill range and past the −40 cut.
TEST(MetropolisReferenceTest, AcceptsDownhillMatchesExpComparison) {
  using internal_likelihood::AcceptsDownhill;
  const auto on_grid = [](double x) {
    return std::min(std::floor(x * 0x1.0p53), 0x1.0p53 - 1) * 0x1.0p-53;
  };
  Rng rng(5);
  uint64_t checked = 0;
  for (double delta = -45.0; delta < 0.0; delta += 0.0137) {
    for (const double d : {delta, -std::ldexp(1.0, -30), -1e-300, -40.0,
                           std::nextafter(-40.0, 0.0),
                           std::nextafter(-40.0, -41.0)}) {
      const double ex = std::exp(d);
      std::vector<double> uniforms = {0.0, on_grid(ex), rng.NextDouble()};
      for (const double rel : {1e-11, 3e-11, 4e-11, 5e-11, 1e-10}) {
        uniforms.push_back(on_grid(ex * (1.0 - rel)));
        uniforms.push_back(on_grid(ex * (1.0 + rel)));
      }
      for (int ulps = 1; ulps <= 4; ++ulps) {
        uniforms.push_back(on_grid(ex) + ulps * 0x1.0p-53);
        uniforms.push_back(std::max(on_grid(ex) - ulps * 0x1.0p-53, 0.0));
      }
      for (const double uniform : uniforms) {
        if (uniform >= 1.0) continue;
        EXPECT_EQ(AcceptsDownhill(d, uniform), uniform < ex)
            << "delta=" << d << " uniform=" << uniform;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10000u);
}

// DegreeGuidedInit's counting passes must order exactly as the comparator
// definition: nodes by degree descending, positions by popcount
// ascending, ties by id on both sides.
TEST(DegreeGuidedInitTest, MatchesComparatorDefinition) {
  Rng rng(41);
  std::vector<std::pair<Graph, uint32_t>> cases;
  cases.emplace_back(testing::CycleGraph(100), 7);  // all degree 2
  cases.emplace_back(testing::StarGraph(60), 6);    // one hub, 59 leaves
  cases.emplace_back(HubGraph(8), 8);
  cases.emplace_back(SampleSkg({0.99, 0.55, 0.35}, 9, rng), 9);
  cases.emplace_back(testing::PathGraph(2), 1);
  for (const auto& [observed, k] : cases) {
    std::vector<uint32_t> offsets;
    const GraphView g = PadWithIsolatedNodes(observed, 1u << k, &offsets);
    const uint32_t n = g.NumNodes();
    std::vector<uint32_t> nodes(n), positions(n);
    std::iota(nodes.begin(), nodes.end(), 0u);
    std::iota(positions.begin(), positions.end(), 0u);
    std::sort(nodes.begin(), nodes.end(), [&g](uint32_t x, uint32_t y) {
      const uint32_t dx = g.Degree(x), dy = g.Degree(y);
      return dx != dy ? dx > dy : x < y;
    });
    std::sort(positions.begin(), positions.end(), [](uint32_t x, uint32_t y) {
      const int px = __builtin_popcount(x), py = __builtin_popcount(y);
      return px != py ? px < py : x < y;
    });
    std::vector<uint32_t> expected(n);
    for (uint32_t rank = 0; rank < n; ++rank) {
      expected[nodes[rank]] = positions[rank];
    }
    EXPECT_EQ(DegreeGuidedInit(g, k).sigma(), expected) << "k=" << k;
  }
}

}  // namespace
}  // namespace dpkron
