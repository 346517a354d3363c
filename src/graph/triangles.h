// Exact triangle counting.
//
// Node-iterator over sorted adjacency lists restricted to higher-rank
// "forward" neighbors (Latapy's compact-forward algorithm, TCS 2008):
// O(m^{3/2}) worst case, exact, no hashing. One forward-orientation
// builder (internal::BuildForward) serves every path; only the sorted
// intersections are SIMD-dispatched. Also provides per-node and per-edge
// triangle counts — the latter feed the smooth-sensitivity computation
// (number of common neighbors a_ij, NRS'07).

#ifndef DPKRON_GRAPH_TRIANGLES_H_
#define DPKRON_GRAPH_TRIANGLES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/graph_view.h"

namespace dpkron {

// Total number of triangles ∆(G).
uint64_t CountTriangles(GraphView graph);

// t_u = number of triangles through node u (Σ_u t_u = 3∆).
std::vector<uint64_t> PerNodeTriangles(GraphView graph);

// Number of common neighbors of u and v (= triangles through edge {u,v}
// when the edge exists, but defined for any pair). O(deg u + deg v).
uint32_t CommonNeighbors(GraphView graph, Graph::NodeId u,
                         Graph::NodeId v);

namespace internal {

// The (degree, id)-rank forward orientation: the shared substrate of
// every triangle path (CountTriangles, PerNodeTriangles and the fused
// ComputeNodeStats). Slot-based layout: node u's forward list — its
// higher-rank neighbours, ascending by id — occupies the front of u's
// own adjacency slot, targets[starts[u], ends[u]), with `starts` a copy
// of the view's offsets. `targets` thus spans all 2m adjacency slots
// (the lists themselves hold each edge once, m entries) and is not
// zero-filled: only the forward prefixes are ever written or read. The
// extra m slots buy a build with no count pass and no prefix sum. Once
// built, the intersections read only these arrays — never the view
// again — which is what lets the fused node-stats kernel charge the
// whole triangle family to a single pass over the backing store.
struct ForwardCsr {
  std::unique_ptr<uint32_t[]> starts;        // n
  std::unique_ptr<uint32_t[]> ends;          // n
  std::unique_ptr<Graph::NodeId[]> targets;  // 2m slots
};

// The one forward builder: a single parallel sweep of the view's
// adjacency, emitting the degree vector from the same traversal when
// `degrees` is non-null. Records no pass; callers account for it.
ForwardCsr BuildForward(GraphView graph, std::vector<uint32_t>* degrees);

// t_u from a prebuilt forward orientation (only the intersection is
// dispatched; scalar and AVX2 agree exactly — integer counts of the
// same triangle set).
std::vector<uint64_t> PerNodeTrianglesFromForward(const ForwardCsr& fwd,
                                                  uint32_t num_nodes);

}  // namespace internal

}  // namespace dpkron

#endif  // DPKRON_GRAPH_TRIANGLES_H_
