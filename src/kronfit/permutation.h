// Node-to-Kronecker-position permutations for KronFit (§3.3).
//
// The SKG likelihood P(G | Θ) marginalizes over the unknown alignment σ
// between observed nodes and Kronecker node ids. KronFit samples σ with a
// Metropolis swap chain; this header provides the permutation state and
// the degree-guided initialization heuristic.

#ifndef DPKRON_KRONFIT_PERMUTATION_H_
#define DPKRON_KRONFIT_PERMUTATION_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/graph_view.h"

namespace dpkron {

// σ (node -> Kronecker position) with O(1) swap application. Nothing
// on the sampling path maps positions back to nodes, so σ⁻¹ is not kept.
class PermutationState {
 public:
  // Identity permutation on n elements.
  explicit PermutationState(uint32_t n);
  // Takes an explicit mapping node -> position (must be a permutation).
  explicit PermutationState(std::vector<uint32_t> sigma);

  uint32_t size() const { return static_cast<uint32_t>(sigma_.size()); }

  // Position of node u in the Kronecker id space.
  uint32_t Position(uint32_t u) const { return sigma_[u]; }

  // Exchanges the positions of nodes u and v.
  void SwapNodes(uint32_t u, uint32_t v);

  const std::vector<uint32_t>& sigma() const { return sigma_; }

 private:
  std::vector<uint32_t> sigma_;  // node -> position
};

// Degree-guided initial alignment: the SKG expected degree of Kronecker
// id p is decreasing in popcount(p) (given a + b ≥ b + c), so the highest-
// degree observed nodes are mapped to the lowest-popcount ids. A good
// initial σ shortens the Metropolis burn-in considerably.
PermutationState DegreeGuidedInit(GraphView graph, uint32_t k);

// Applies `swaps` uniformly random transpositions to sigma. The
// multi-chain Metropolis sampler uses this to overdisperse chain starts:
// every chain begins at the degree-guided init jittered by its own RNG
// stream, so chains decorrelate faster than identical starts would.
void PerturbUniform(PermutationState* sigma, uint64_t swaps, Rng& rng);

}  // namespace dpkron

#endif  // DPKRON_KRONFIT_PERMUTATION_H_
