#include "src/graph/triangles.h"

#include <algorithm>
#include <memory>

#include "src/common/parallel.h"
#include "src/common/simd.h"
#include "src/graph/intersect_kernels.h"

namespace dpkron {
namespace {

using internal::ForwardCsr;

// Chunk size for the enumeration loops: small, because hub nodes make
// per-node work heavily skewed and the pool's dynamic chunk claiming is
// the load balancer.
constexpr size_t kNodeGrain = 64;

// Chunk size for the forward build and the per-node merge: per-node
// work there is one adjacency row (or one column of worker counts), so
// this only needs to be coarse enough to amortize chunk claiming while
// still splitting a few-thousand-node graph across every worker.
constexpr size_t kBuildGrain = 512;

// Scalar sorted-merge enumeration of the triangles whose lowest-rank
// apex lies in [begin, end): forward[u] ∩ forward[v] for v ∈ forward[u].
template <typename OnTriangle>
void ForEachForwardTriangle(const ForwardCsr& fwd, size_t begin, size_t end,
                            OnTriangle&& on_triangle) {
  const Graph::NodeId* targets = fwd.targets.get();
  for (size_t u = begin; u < end; ++u) {
    const uint32_t fu_begin = fwd.starts[u], fu_end = fwd.ends[u];
    for (uint32_t vi = fu_begin; vi < fu_end; ++vi) {
      const Graph::NodeId v = targets[vi];
      uint32_t i = fu_begin, j = fwd.starts[v];
      const uint32_t j_end = fwd.ends[v];
      while (i < fu_end && j < j_end) {
        if (targets[i] < targets[j]) {
          ++i;
        } else if (targets[i] > targets[j]) {
          ++j;
        } else {
          on_triangle(static_cast<Graph::NodeId>(u), v, targets[i]);
          ++i;
          ++j;
        }
      }
    }
  }
}

}  // namespace

namespace internal {

ForwardCsr BuildForward(GraphView graph, std::vector<uint32_t>* degrees) {
  const uint32_t n = graph.NumNodes();
  const uint32_t* offsets = graph.Offsets().data();
  const Graph::NodeId* adjacency = graph.Adjacency().data();
  ForwardCsr fwd{
      std::make_unique_for_overwrite<uint32_t[]>(n),
      std::make_unique_for_overwrite<uint32_t[]>(n),
      std::make_unique_for_overwrite<Graph::NodeId[]>(
          graph.Adjacency().size())};
  if (degrees != nullptr) degrees->resize(n);
  // Rank nodes by (degree, id); orienting every edge from lower to
  // higher rank makes each triangle counted exactly once and bounds the
  // forward out-degree by O(sqrt(m)). The forward neighbours of u are a
  // subset of its adjacency row, so they are written (branch-free, in
  // id order) into the front of u's own slot: rows are independent and
  // the sweep parallelizes with no count pass or prefix sum.
  ParallelFor(n, kBuildGrain, [&](size_t u) {
    const uint32_t row_begin = offsets[u], row_end = offsets[u + 1];
    const uint32_t du = row_end - row_begin;
    if (degrees != nullptr) (*degrees)[u] = du;
    Graph::NodeId* out = fwd.targets.get();
    uint32_t cursor = row_begin;
    for (uint32_t i = row_begin; i < row_end; ++i) {
      const Graph::NodeId v = adjacency[i];
      const uint32_t dv = offsets[v + 1] - offsets[v];
      out[cursor] = v;
      cursor += (du < dv) | ((du == dv) & (u < v));
    }
    fwd.starts[u] = row_begin;
    fwd.ends[u] = cursor;
  });
  return fwd;
}

std::vector<uint64_t> PerNodeTrianglesFromForward(const ForwardCsr& fwd,
                                                  uint32_t num_nodes) {
  const size_t n = num_nodes;
  // A triangle increments all three of its corners, which live in
  // arbitrary chunks — so accumulate into per-worker arrays. Integer
  // addition commutes, so the merged totals are thread-count-invariant
  // even though worker→chunk assignment is not.
  std::vector<std::vector<uint64_t>> locals(
      static_cast<size_t>(ParallelThreadCount()));
  if (Avx2Active()) {
    // Per-worker scratch for intersection outputs, sized to the longest
    // forward list (allocated lazily per worker, like `locals`).
    std::vector<std::vector<Graph::NodeId>> scratch(locals.size());
    uint32_t max_forward = 0;
    for (size_t u = 0; u < n; ++u) {
      max_forward = std::max(max_forward, fwd.ends[u] - fwd.starts[u]);
    }
    ParallelForChunks(n, kNodeGrain, [&](const ParallelChunk& chunk) {
      auto& local = locals[chunk.worker];
      if (local.empty()) local.assign(n, 0);
      auto& buffer = scratch[chunk.worker];
      if (buffer.size() < max_forward) buffer.resize(max_forward);
      PerNodeTrianglesChunkAvx2(fwd.starts.get(), fwd.ends.get(),
                                fwd.targets.get(), chunk.begin, chunk.end,
                                local.data(), buffer.data());
    });
  } else {
    ParallelForChunks(n, kNodeGrain, [&](const ParallelChunk& chunk) {
      auto& local = locals[chunk.worker];
      if (local.empty()) local.assign(n, 0);
      ForEachForwardTriangle(
          fwd, chunk.begin, chunk.end,
          [&local](Graph::NodeId u, Graph::NodeId v, Graph::NodeId w) {
            ++local[u];
            ++local[v];
            ++local[w];
          });
    });
  }
  std::vector<uint64_t> per_node(n, 0);
  ParallelFor(n, kBuildGrain, [&](size_t u) {
    uint64_t total = 0;
    for (const auto& local : locals) {
      if (!local.empty()) total += local[u];
    }
    per_node[u] = total;
  });
  return per_node;
}

}  // namespace internal

uint64_t CountTriangles(GraphView graph) {
  graph.CountPass("triangles");
  const ForwardCsr fwd = internal::BuildForward(graph, nullptr);
  const size_t n = graph.NumNodes();
  const bool avx2 = Avx2Active();
  // Per-chunk integer partials, combined in chunk order: exact and
  // thread-count-invariant.
  std::vector<uint64_t> partials(ParallelChunkCount(n, kNodeGrain), 0);
  ParallelForChunks(n, kNodeGrain, [&](const ParallelChunk& chunk) {
    if (avx2) {
      partials[chunk.index] =
          CountTrianglesChunkAvx2(fwd.starts.get(), fwd.ends.get(),
                                  fwd.targets.get(), chunk.begin, chunk.end);
      return;
    }
    uint64_t local = 0;
    ForEachForwardTriangle(
        fwd, chunk.begin, chunk.end,
        [&local](Graph::NodeId, Graph::NodeId, Graph::NodeId) { ++local; });
    partials[chunk.index] = local;
  });
  uint64_t triangles = 0;
  for (uint64_t partial : partials) triangles += partial;
  return triangles;
}

std::vector<uint64_t> PerNodeTriangles(GraphView graph) {
  graph.CountPass("triangles_per_node");
  return internal::PerNodeTrianglesFromForward(
      internal::BuildForward(graph, nullptr), graph.NumNodes());
}

uint32_t CommonNeighbors(GraphView graph, Graph::NodeId u,
                         Graph::NodeId v) {
  const auto nu = graph.Neighbors(u);
  const auto nv = graph.Neighbors(v);
  if (Avx2Active()) {
    return static_cast<uint32_t>(
        IntersectCountAvx2(nu.data(), nu.size(), nv.data(), nv.size()));
  }
  uint32_t common = 0;
  size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

}  // namespace dpkron
