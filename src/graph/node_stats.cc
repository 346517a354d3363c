#include "src/graph/node_stats.h"

#include "src/graph/triangles.h"

namespace dpkron {

NodeStats ComputeNodeStats(GraphView graph) {
  graph.CountPass("node_stats");
  NodeStats stats;
  // One sweep of the view's adjacency builds the forward orientation
  // AND the degree vector; the triangle intersections then run over the
  // in-RAM forward CSR, never re-reading the backing store.
  const internal::ForwardCsr fwd =
      internal::BuildForward(graph, &stats.degrees);
  stats.triangles =
      internal::PerNodeTrianglesFromForward(fwd, graph.NumNodes());
  return stats;
}

}  // namespace dpkron
