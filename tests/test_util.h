// Shared helpers for the dpkron test suite.

#ifndef DPKRON_TESTS_TEST_UTIL_H_
#define DPKRON_TESTS_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/graph/graph.h"
#include "src/graph/graph_builder.h"

namespace dpkron::testing {

// Sets the pool's thread count for one scope and restores the previous
// count on exit.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(int threads) : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ScopedThreadCount() { SetParallelThreadCount(saved_); }

  ScopedThreadCount(const ScopedThreadCount&) = delete;
  ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

 private:
  int saved_;
};

using EdgeList = std::vector<std::pair<Graph::NodeId, Graph::NodeId>>;

inline Graph MakeGraph(uint32_t n, const EdgeList& edges) {
  return GraphBuilder::FromEdges(n, edges);
}

// Path 0-1-2-...-(n-1).
inline Graph PathGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  return MakeGraph(n, edges);
}

// Cycle on n nodes.
inline Graph CycleGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  return MakeGraph(n, edges);
}

// Complete graph K_n.
inline Graph CompleteGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return MakeGraph(n, edges);
}

// Star: center 0, leaves 1..n-1.
inline Graph StarGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t v = 1; v < n; ++v) edges.emplace_back(0u, v);
  return MakeGraph(n, edges);
}

// The Petersen graph (3-regular, 10 nodes, 15 edges, girth 5 → no
// triangles, 30 wedges).
inline Graph PetersenGraph() {
  return MakeGraph(10, {{0, 1},
                        {1, 2},
                        {2, 3},
                        {3, 4},
                        {4, 0},
                        {0, 5},
                        {1, 6},
                        {2, 7},
                        {3, 8},
                        {4, 9},
                        {5, 7},
                        {7, 9},
                        {9, 6},
                        {6, 8},
                        {8, 5}});
}

// Repacks the bytes of a .dpkb v3 file of `g` into the retired
// version-2 layout: the same 56-byte header with version field 2 and the
// two CSR arrays packed right after it. Readers must refuse it.
inline std::string DpkbV2FromV3(const std::string& v3, const Graph& g) {
  std::string v2 = v3.substr(0, 56);
  v2[8] = 2;  // version
  v2.append(v3.substr(64, sizeof(uint32_t) * (g.NumNodes() + 1)));
  v2.append(v3.substr(v3.size() - sizeof(uint32_t) * g.Adjacency().size()));
  return v2;
}

}  // namespace dpkron::testing

#endif  // DPKRON_TESTS_TEST_UTIL_H_
