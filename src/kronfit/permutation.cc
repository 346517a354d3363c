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

namespace {

// Ids 0..n−1 ordered by key(id) ascending, ties by id: one stable
// counting pass over keys in [0, num_keys).
template <typename Key>
std::vector<uint32_t> CountingOrder(uint32_t n, uint32_t num_keys, Key key) {
  std::vector<uint32_t> next(size_t{num_keys} + 1, 0);
  for (uint32_t id = 0; id < n; ++id) ++next[key(id) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<uint32_t> order(n);
  for (uint32_t id = 0; id < n; ++id) order[next[key(id)]++] = id;
  return order;
}

}  // namespace

PermutationState DegreeGuidedInit(GraphView graph, uint32_t k) {
  const uint32_t n = graph.NumNodes();
  DPKRON_CHECK_LE(n, uint64_t{1} << k);
  DPKRON_CHECK_EQ(n, uint64_t{1} << k);  // callers pad the graph to 2^k

  // Nodes by degree, descending (ties by id).
  uint32_t max_degree = 0;
  for (uint32_t u = 0; u < n; ++u) {
    max_degree = std::max(max_degree, graph.Degree(u));
  }
  const std::vector<uint32_t> nodes =
      CountingOrder(n, max_degree + 1, [&graph, max_degree](uint32_t u) {
        return max_degree - graph.Degree(u);
      });

  // Kronecker positions by popcount, ascending (ties by id).
  const std::vector<uint32_t> positions =
      CountingOrder(n, k + 1, [](uint32_t p) {
        return static_cast<uint32_t>(__builtin_popcount(p));
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
