// KronFit: approximate maximum-likelihood estimation of the SKG initiator
// (Leskovec & Faloutsos, ICML'07) — the paper's "KronFit" baseline.
//
// Stochastic gradient ascent on the Taylor-approximated log-likelihood,
// with the node-to-position alignment σ marginalized by Metropolis swap
// chains (permutation sampling). The observed graph is padded with
// isolated nodes to 2^k, as in the original implementation.
//
// Parallel architecture: instead of one chain sampled
// `samples_per_iteration` times back-to-back, the sampler keeps that
// many *independent* chains — each with its own PermutationState and
// Rng::Split stream — and fans them across the thread pool, averaging
// their edge gradients in chain-index order. Total swap work per
// iteration is unchanged; wall-clock divides by min(chains, threads),
// and the chain-indexed RNG streams plus chunk-ordered reductions make
// FitKronFit bit-identical for any thread count
// (tests/parallel_test.cc enforces 1 vs 2 vs 8).

#ifndef DPKRON_KRONFIT_KRONFIT_H_
#define DPKRON_KRONFIT_KRONFIT_H_

#include <cstdint>
#include <vector>

#include "src/common/cache_codec.h"
#include "src/common/rng.h"
#include "src/graph/graph_view.h"
#include "src/kronfit/likelihood.h"
#include "src/kronfit/permutation.h"
#include "src/skg/initiator.h"

namespace dpkron {

struct KronFitOptions {
  // Gradient-ascent iterations.
  uint32_t iterations = 60;
  // Metropolis warm-up swaps before the first sample, as a multiple of N.
  double warmup_factor = 10.0;
  // Number of independent permutation chains averaged per gradient
  // estimate (one Metropolis sample each per iteration).
  uint32_t samples_per_iteration = 4;
  // Swaps between consecutive samples, as a multiple of N.
  double decorrelation_factor = 2.0;
  // Largest per-iteration movement of any parameter; the raw gradient is
  // rescaled to respect it (the likelihood gradients are O(E/θ), so a raw
  // step would leave the box immediately).
  double max_step = 0.02;
  // Linear decay: step limit at iteration t is max_step/(1 + t·decay).
  double step_decay = 0.05;
  // Average the iterates of the last `tail_average` iterations (Polyak
  // tail averaging smooths the permutation-sampling noise).
  uint32_t tail_average = 10;
  Initiator2 init{0.9, 0.6, 0.2};
};

struct KronFitResult {
  Initiator2 theta;              // canonical (a ≥ c)
  double log_likelihood = 0.0;   // approx. ll of the final theta
  uint32_t k = 0;

  bool operator==(const KronFitResult&) const = default;
};

// A durable StatCache value (common/cache_codec.h).
template <>
struct CacheCodec<KronFitResult>
    : FieldCodec<KronFitResult, &KronFitResult::theta,
                 &KronFitResult::log_likelihood, &KronFitResult::k> {};

// Bank of independent Metropolis permutation chains over one padded
// graph. Chain c starts from the degree-guided init perturbed by its own
// Split stream (chain 0 starts unperturbed) and is advanced only by that
// stream, so the trajectory of every chain — and therefore every result
// below — is a function of (graph, seed, num_chains) alone, never of the
// thread count. Exposed publicly so benchmarks can time one gradient
// iteration in isolation.
class MetropolisChains {
 public:
  // `graph` must already be padded to 2^k nodes.
  MetropolisChains(GraphView graph, uint32_t k, uint32_t num_chains,
                   Rng& rng);

  uint32_t num_chains() const {
    return static_cast<uint32_t>(chains_.size());
  }
  const PermutationState& chain(uint32_t c) const { return chains_[c].sigma; }
  const Rng& stream(uint32_t c) const { return chains_[c].rng; }

  // Advances every chain by `swaps_per_chain` Metropolis steps under
  // `model` (chains fan across the pool; each chain is serial).
  void Advance(const KronFitLikelihood& model, uint64_t swaps_per_chain);

  // One gradient iteration: advances every chain by `swaps_per_chain`
  // steps, then returns the mean of the per-chain edge gradients
  // (summed in chain-index order).
  Gradient3 SampleGradient(const KronFitLikelihood& model,
                           uint64_t swaps_per_chain);

  // Highest LogLikelihood across chains under `model` (ties resolve to
  // the lowest chain index).
  double BestLogLikelihood(const KronFitLikelihood& model) const;

 private:
  // One chain's state on its own cache line: chains on different
  // workers write their streams on every draw, and packed 48-byte Rngs
  // would share lines between them.
  struct alignas(64) Chain {
    PermutationState sigma;
    Rng rng;  // stream c drives chain c, whatever the worker
  };

  GraphView graph_;  // non-owning; the padded graph outlives the bank
  std::vector<Chain> chains_;
};

// Fits Θ to `graph`. The graph is padded to 2^k nodes internally with
// k = ChooseKroneckerOrder(NumNodes()).
//
// Served through the process-wide StatCache when it is enabled, keyed
// by (graph fingerprint, rng state fingerprint, options) — the inputs
// the fit is a pure function of. On a hit `rng` is restored to the
// state the original fit left it in, so downstream draws are identical
// whether the fit ran or was served; a sweep that varies only ε
// therefore pays for each (graph, seed) fit exactly once.
KronFitResult FitKronFit(GraphView graph, Rng& rng,
                         const KronFitOptions& options = {});

// `graph` with isolated nodes appended until NumNodes() == num_nodes,
// without copying an edge: appended nodes have no edges, so the result
// views graph's adjacency through `*offsets`, which receives graph's
// offsets extended to num_nodes + 1 entries. The view is valid while
// both `graph`'s storage and `*offsets` are. Returns `graph` itself, and
// leaves `*offsets` alone, when no padding is needed. Requires
// num_nodes >= graph.NumNodes().
GraphView PadWithIsolatedNodes(GraphView graph, uint32_t num_nodes,
                               std::vector<uint32_t>* offsets);

}  // namespace dpkron

#endif  // DPKRON_KRONFIT_KRONFIT_H_
