#include "src/kronfit/kronfit.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/common/stat_cache.h"
#include "src/estimation/kronmom.h"

namespace dpkron {

GraphView PadWithIsolatedNodes(GraphView graph, uint32_t num_nodes,
                               std::vector<uint32_t>* offsets) {
  DPKRON_CHECK_GE(num_nodes, graph.NumNodes());
  if (num_nodes == graph.NumNodes()) return graph;
  const std::span<const uint32_t> original = graph.Offsets();
  offsets->assign(original.begin(), original.end());
  offsets->resize(size_t{num_nodes} + 1, original.back());
  return GraphView(*offsets, graph.Adjacency(), /*fingerprint_memo=*/nullptr);
}

MetropolisChains::MetropolisChains(GraphView graph, uint32_t k,
                                   uint32_t num_chains, Rng& rng)
    : graph_(graph) {
  DPKRON_CHECK_GE(num_chains, 1u);
  DPKRON_CHECK_EQ(graph.NumNodes(), uint64_t{1} << k);
  std::vector<Rng> streams = SplitRngStreams(rng, num_chains);
  const PermutationState init = DegreeGuidedInit(graph, k);
  chains_.reserve(num_chains);
  for (Rng& stream : streams) chains_.push_back({init, std::move(stream)});
  // Jitter every chain but the first with its own stream (n/4 random
  // transpositions): overdispersed starts decorrelate the bank without
  // costing chain 0 the degree-guided head start.
  ParallelFor(num_chains, 1, [&](size_t c) {
    if (c == 0) return;
    PerturbUniform(&chains_[c].sigma, graph.NumNodes() / 4, chains_[c].rng);
  });
}

void MetropolisChains::Advance(const KronFitLikelihood& model,
                               uint64_t swaps_per_chain) {
  ParallelFor(chains_.size(), 1, [&](size_t c) {
    model.MetropolisSwaps(graph_, &chains_[c].sigma, chains_[c].rng,
                          swaps_per_chain);
  });
}

Gradient3 MetropolisChains::SampleGradient(const KronFitLikelihood& model,
                                           uint64_t swaps_per_chain) {
  // Advance and evaluate inside one parallel section: the nested
  // EdgeGradient degrades to serial chunk order inside a worker, which
  // matches its 1-thread evaluation bit for bit.
  std::vector<Gradient3> grads(chains_.size());
  ParallelFor(chains_.size(), 1, [&](size_t c) {
    model.MetropolisSwaps(graph_, &chains_[c].sigma, chains_[c].rng,
                          swaps_per_chain);
    grads[c] = model.EdgeGradient(graph_, chains_[c].sigma);
  });
  Gradient3 mean{0.0, 0.0, 0.0};
  for (const Gradient3& grad : grads) {
    for (int i = 0; i < 3; ++i) mean[i] += grad[i];
  }
  for (int i = 0; i < 3; ++i) mean[i] /= static_cast<double>(chains_.size());
  return mean;
}

double MetropolisChains::BestLogLikelihood(
    const KronFitLikelihood& model) const {
  std::vector<double> lls(chains_.size());
  ParallelFor(chains_.size(), 1, [&](size_t c) {
    lls[c] = model.LogLikelihood(graph_, chains_[c].sigma);
  });
  double best = lls[0];
  for (double ll : lls) best = std::max(best, ll);
  return best;
}

namespace {

KronFitResult RunKronFit(GraphView graph, Rng& rng,
                         const KronFitOptions& options) {
  DPKRON_CHECK_GE(graph.NumNodes(), 2u);
  const uint32_t k = ChooseKroneckerOrder(graph.NumNodes());
  const uint32_t n = uint32_t{1} << k;
  // Views don't own: the padded offsets live here so the chain bank's
  // view stays valid for the whole fit.
  std::vector<uint32_t> padded_offsets;
  const GraphView padded = PadWithIsolatedNodes(graph, n, &padded_offsets);

  Initiator2 theta = options.init.Clamped(0.005, 0.995);
  const uint32_t num_chains = std::max(options.samples_per_iteration, 1u);
  MetropolisChains chains(padded, k, num_chains, rng);

  // Initial burn-in under the starting parameters.
  {
    const KronFitLikelihood model(theta, k);
    chains.Advance(model,
                   static_cast<uint64_t>(options.warmup_factor * n));
  }

  double tail_a = 0.0, tail_b = 0.0, tail_c = 0.0;
  uint32_t tail_count = 0;
  const uint32_t tail_start =
      options.iterations > options.tail_average
          ? options.iterations - options.tail_average
          : 0;

  for (uint32_t it = 0; it < options.iterations; ++it) {
    const KronFitLikelihood model(theta, k);
    // Chain-averaged edge gradient, one decorrelated sample per chain.
    Gradient3 gradient = chains.SampleGradient(
        model, static_cast<uint64_t>(options.decorrelation_factor * n));
    const Gradient3 no_edge = model.NoEdgeGradient();
    for (int i = 0; i < 3; ++i) gradient[i] -= no_edge[i];

    // Ascent step, rescaled to the trust region.
    const double limit = options.max_step / (1.0 + options.step_decay * it);
    const double magnitude = std::max(
        {std::fabs(gradient[0]), std::fabs(gradient[1]),
         std::fabs(gradient[2]), 1e-30});
    const double scale = std::min(limit / magnitude, 1e-4);
    theta = Initiator2{theta.a + scale * gradient[0],
                       theta.b + scale * gradient[1],
                       theta.c + scale * gradient[2]}
                .Clamped(0.005, 0.995);

    if (it >= tail_start) {
      tail_a += theta.a;
      tail_b += theta.b;
      tail_c += theta.c;
      ++tail_count;
    }
  }

  if (tail_count > 0) {
    theta = Initiator2{tail_a / tail_count, tail_b / tail_count,
                       tail_c / tail_count};
  }

  KronFitResult result;
  result.k = k;
  result.theta = theta.Canonical();
  const KronFitLikelihood final_model(result.theta, k);
  result.log_likelihood = chains.BestLogLikelihood(final_model);
  return result;
}

}  // namespace

KronFitResult FitKronFit(GraphView graph, Rng& rng,
                         const KronFitOptions& options) {
  const uint64_t key =
      CacheKey()
          .Mix(graph.ContentFingerprint())
          .Mix(rng.StateFingerprint())
          .Mix(options.iterations)
          .MixDouble(options.warmup_factor)
          .Mix(options.samples_per_iteration)
          .MixDouble(options.decorrelation_factor)
          .MixDouble(options.max_step)
          .MixDouble(options.step_decay)
          .Mix(options.tail_average)
          .MixDouble(options.init.a)
          .MixDouble(options.init.b)
          .MixDouble(options.init.c)
          .digest();
  return GetOrComputeRandomized<KronFitResult>(
      "kronfit", key, rng, [&] { return RunKronFit(graph, rng, options); });
}

}  // namespace dpkron
