// The fused per-node statistics pass behind ReleasePipeline::Compute.
//
// The degree / triangle / clustering panel family needs exactly two
// per-node quantities: d_u and t_u (the local clustering coefficient is
// t_u over the wedge count d_u(d_u-1)/2 — t_u IS the clustering
// numerator). Computed separately, each kernel walks the CSR once;
// fused, a single traversal derives the degrees from the offsets array
// and builds the rank-oriented forward lists whose intersections yield
// t_u — the intersections then run over the in-RAM forward CSR, not
// the view, so the whole family costs ONE pass over the backing store.
// That is the difference between touching an out-of-core graph's pages
// once and touching them three times.
//
// Pass accounting: ComputeNodeStats records exactly one "node_stats"
// pass on the view and nothing else (the constituent kernels' labels
// stay silent); tests pin this so a regression that un-fuses the family
// fails loudly.
//
// Determinism: degrees are exact integers read off the offsets;
// triangle counts are exact integers identical to PerNodeTriangles'
// output on every dispatch path (scalar and AVX2 agree bit-for-bit on
// integer counts). NodeStats is therefore byte-identical across
// backings (in-RAM vs mmap) and thread counts.

#ifndef DPKRON_GRAPH_NODE_STATS_H_
#define DPKRON_GRAPH_NODE_STATS_H_

#include <cstdint>
#include <vector>

#include "src/common/cache_codec.h"
#include "src/graph/graph_view.h"

namespace dpkron {

struct NodeStats {
  std::vector<uint32_t> degrees;    // d_u
  std::vector<uint64_t> triangles;  // t_u (clustering numerators)

  bool operator==(const NodeStats&) const = default;
};

// StatCache byte-budget accounting (common/stat_cache.h).
inline size_t ApproxCacheBytes(const NodeStats& stats) {
  return sizeof(stats) + stats.degrees.capacity() * sizeof(uint32_t) +
         stats.triangles.capacity() * sizeof(uint64_t);
}

// A durable StatCache value (common/cache_codec.h).
template <>
struct CacheCodec<NodeStats>
    : FieldCodec<NodeStats, &NodeStats::degrees, &NodeStats::triangles> {};

// One fused CSR traversal: degrees + per-node triangle counts.
// Equivalent to {DegreeVector(graph), PerNodeTriangles(graph)} but
// records a single "node_stats" pass.
NodeStats ComputeNodeStats(GraphView graph);

}  // namespace dpkron

#endif  // DPKRON_GRAPH_NODE_STATS_H_
