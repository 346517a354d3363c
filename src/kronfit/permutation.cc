#include "src/kronfit/permutation.h"

#include <algorithm>
#include <numeric>

#include "src/common/macros.h"

namespace dpkron {

PermutationState::PermutationState(uint32_t n) : sigma_(n) {
  std::iota(sigma_.begin(), sigma_.end(), 0u);
}

PermutationState::PermutationState(std::vector<uint32_t> sigma)
    : sigma_(std::move(sigma)) {
  std::vector<bool> taken(sigma_.size(), false);
  for (uint32_t position : sigma_) {
    DPKRON_CHECK_LT(position, sigma_.size());
    DPKRON_CHECK_MSG(!taken[position], "sigma is not a permutation");
    taken[position] = true;
  }
}

void PermutationState::SwapNodes(uint32_t u, uint32_t v) {
  DPKRON_CHECK_LT(u, sigma_.size());
  DPKRON_CHECK_LT(v, sigma_.size());
  std::swap(sigma_[u], sigma_[v]);
}

PermutationState DegreeGuidedInit(GraphView graph, uint32_t k) {
  const uint32_t n = graph.NumNodes();
  DPKRON_CHECK_LE(n, uint64_t{1} << k);
  DPKRON_CHECK_EQ(n, uint64_t{1} << k);  // callers pad the graph to 2^k

  // Nodes by degree, descending.
  std::vector<uint32_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0u);
  std::sort(nodes.begin(), nodes.end(), [&graph](uint32_t x, uint32_t y) {
    const uint32_t dx = graph.Degree(x), dy = graph.Degree(y);
    return dx != dy ? dx > dy : x < y;
  });

  // Kronecker positions by popcount, ascending (ties by id).
  std::vector<uint32_t> positions(n);
  std::iota(positions.begin(), positions.end(), 0u);
  std::sort(positions.begin(), positions.end(), [](uint32_t x, uint32_t y) {
    const int px = __builtin_popcount(x), py = __builtin_popcount(y);
    return px != py ? px < py : x < y;
  });

  std::vector<uint32_t> sigma(n);
  for (uint32_t rank = 0; rank < n; ++rank) {
    sigma[nodes[rank]] = positions[rank];
  }
  return PermutationState(std::move(sigma));
}

void PerturbUniform(PermutationState* sigma, uint64_t swaps, Rng& rng) {
  const uint32_t n = sigma->size();
  if (n < 2) return;
  for (uint64_t i = 0; i < swaps; ++i) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
    sigma->SwapNodes(u, v);
  }
}

}  // namespace dpkron
