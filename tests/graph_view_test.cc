// GraphView — the zero-copy CSR seam: view/Graph equivalence, raw-span
// backings, the shared fingerprint memo, PassCounter accounting, the
// fused node-stats kernel, and the pass-plan pin on
// ReleasePipeline::Compute (the regression alarm for anyone un-fusing
// the degree/triangle/clustering family back into separate traversals).

#include "src/graph/graph_view.h"

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/core/release.h"
#include "src/graph/degree.h"
#include "src/graph/node_stats.h"
#include "src/graph/triangles.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::MakeGraph;
using testing::PathGraph;
using testing::PetersenGraph;
using testing::StarGraph;

TEST(GraphViewTest, DefaultViewIsTheEmptyGraph) {
  const GraphView view;
  EXPECT_EQ(view.NumNodes(), 0u);
  EXPECT_EQ(view.NumEdges(), 0u);
  EXPECT_TRUE(view.Edges().empty());
  ASSERT_EQ(view.Offsets().size(), 1u);  // CSR shape invariant: n + 1
  EXPECT_EQ(view.Offsets()[0], 0u);
}

TEST(GraphViewTest, ViewMatchesItsGraph) {
  const Graph g = PetersenGraph();
  const GraphView view = g;  // the implicit conversion every kernel uses
  EXPECT_EQ(view.NumNodes(), g.NumNodes());
  EXPECT_EQ(view.NumEdges(), g.NumEdges());
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(view.Degree(u), g.Degree(u));
    const auto expected = g.Neighbors(u);
    const auto actual = view.Neighbors(u);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]);
    }
  }
  EXPECT_TRUE(view.HasEdge(0, 1));
  EXPECT_FALSE(view.HasEdge(0, 2));
  EXPECT_EQ(view.Edges(), g.Edges());
}

TEST(GraphViewTest, RawSpanBackingIsEquivalentToTheGraph) {
  const Graph g = CompleteGraph(5);
  // The MmapGraph shape: bare arrays, no Graph in sight.
  std::vector<uint32_t> offsets(g.Offsets().begin(), g.Offsets().end());
  std::vector<Graph::NodeId> adjacency(g.Adjacency().begin(),
                                       g.Adjacency().end());
  const GraphView view({offsets.data(), offsets.size()},
                       {adjacency.data(), adjacency.size()},
                       /*fingerprint_memo=*/nullptr);
  EXPECT_EQ(view.NumNodes(), g.NumNodes());
  EXPECT_EQ(view.NumEdges(), g.NumEdges());
  EXPECT_EQ(view.Edges(), g.Edges());
  // No memo: the digest is recomputed per call, and must still equal the
  // Graph's — same bytes, same fingerprint (the StatCache key contract).
  EXPECT_EQ(view.ContentFingerprint(), g.ContentFingerprint());
}

TEST(GraphViewTest, FingerprintMemoIsSharedAndTrusted) {
  const Graph g = PetersenGraph();
  // Whichever side computes first serves both: the view's digest lands
  // in the Graph's memo cell.
  const GraphView view = g;
  const uint64_t digest = view.ContentFingerprint();
  EXPECT_EQ(digest, g.ContentFingerprint());
  EXPECT_NE(digest, 0u);

  // A pre-seeded memo is trusted verbatim — the MmapGraph contract,
  // where the cell holds the .dpkb header checksum and the payload is
  // never re-hashed on the fast path. Seed a sentinel and observe it
  // served as-is.
  std::vector<uint32_t> offsets(g.Offsets().begin(), g.Offsets().end());
  std::vector<Graph::NodeId> adjacency(g.Adjacency().begin(),
                                       g.Adjacency().end());
  std::atomic<uint64_t> memo{0xfeedfacecafebeefull};
  const GraphView seeded({offsets.data(), offsets.size()},
                         {adjacency.data(), adjacency.size()}, &memo);
  EXPECT_EQ(seeded.ContentFingerprint(), 0xfeedfacecafebeefull);

  // An unseeded (0) memo computes once and memoizes.
  std::atomic<uint64_t> cold{0};
  const GraphView lazy({offsets.data(), offsets.size()},
                       {adjacency.data(), adjacency.size()}, &cold);
  EXPECT_EQ(lazy.ContentFingerprint(), digest);
  EXPECT_EQ(cold.load(), digest);
}

TEST(GraphViewTest, PassCounterRecordsOnePassPerTraversal) {
  const Graph g = PetersenGraph();
  PassCounter passes;
  const GraphView view = GraphView(g).WithPassCounter(&passes);

  (void)DegreeVector(view);
  (void)DegreeVector(view);
  (void)MaxDegree(view);
  (void)CountTriangles(view);

  EXPECT_EQ(passes.count("degree_vector"), 2u);
  EXPECT_EQ(passes.count("max_degree"), 1u);
  EXPECT_EQ(passes.count("triangles"), 1u);
  EXPECT_EQ(passes.count("never_ran"), 0u);
  EXPECT_EQ(passes.total(), 4u);

  const auto snapshot = passes.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);  // label-ordered
  EXPECT_EQ(snapshot[0].first, "degree_vector");
  EXPECT_EQ(snapshot[0].second, 2u);

  // A plain copy of the view drops nothing; a counter-free view records
  // nothing (CountPass on null is the common production path).
  const GraphView unattached = g;
  (void)DegreeVector(unattached);
  EXPECT_EQ(passes.count("degree_vector"), 2u);
}

TEST(NodeStatsTest, FusedPassMatchesTheUnfusedKernels) {
  const Graph graphs[] = {PetersenGraph(), CompleteGraph(7), StarGraph(9),
                          PathGraph(6), MakeGraph(1, {}), Graph()};
  for (const Graph& g : graphs) {
    const NodeStats fused = ComputeNodeStats(g);
    EXPECT_EQ(fused.degrees, DegreeVector(g));
    EXPECT_EQ(fused.triangles, PerNodeTriangles(g));
  }
}

TEST(NodeStatsTest, FusedPassCostsExactlyOneTraversal) {
  const Graph g = CompleteGraph(8);
  PassCounter passes;
  const NodeStats stats =
      ComputeNodeStats(GraphView(g).WithPassCounter(&passes));
  ASSERT_EQ(stats.degrees.size(), 8u);
  EXPECT_EQ(passes.count("node_stats"), 1u);
  // The constituent kernels stay silent — their labels appearing here
  // would mean the "fused" pass re-walked the backing store.
  EXPECT_EQ(passes.count("degree_vector"), 0u);
  EXPECT_EQ(passes.count("triangles_per_node"), 0u);
  EXPECT_EQ(passes.total(), 1u);
}

// The pass-plan pin: Compute's degree/triangle/clustering family costs
// ONE traversal of the backing store ("node_stats"), the hop plot is
// exact BFS below the limit, and the un-fused leaf kernels never run.
// This is the test that fails loudly if someone re-introduces separate
// DegreeVector / PerNodeTriangles walks into the pipeline.
TEST(ReleasePassPlanTest, ComputeFusesTheNodeStatsFamily) {
  Rng rng(2026);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 8, rng);

  PassCounter passes;
  StatisticsOptions options;
  options.exact_hop_plot_limit = 4096;  // 2^8 nodes → exact BFS route
  const ReleasePipeline pipeline(options);
  Rng compute_rng(7);
  const GraphStatistics stats =
      pipeline.Compute(GraphView(g).WithPassCounter(&passes), compute_rng,
                       CachePolicy::kOneOff);
  ASSERT_FALSE(stats.degree_histogram.empty());
  ASSERT_FALSE(stats.clustering_by_degree.empty());

  EXPECT_EQ(passes.count("node_stats"), 1u);
  EXPECT_EQ(passes.count("degree_vector"), 0u);
  EXPECT_EQ(passes.count("triangles_per_node"), 0u);
  EXPECT_EQ(passes.count("triangles"), 0u);
  EXPECT_EQ(passes.count("degree_histogram"), 0u);
  EXPECT_EQ(passes.count("exact_hop_plot"), 1u);
  EXPECT_EQ(passes.count("anf_round"), 0u);

  // Identical statistics with no counter attached — instrumentation is
  // observation only.
  Rng plain_rng(7);
  EXPECT_EQ(pipeline.Compute(g, plain_rng, CachePolicy::kOneOff), stats);
}

// Above the exact-BFS limit the hop plot switches to ANF: one
// "anf_round" pass per expansion round, still exactly one "node_stats".
TEST(ReleasePassPlanTest, LargeGraphRouteUsesAnfRounds) {
  Rng rng(2027);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 8, rng);

  PassCounter passes;
  StatisticsOptions options;
  options.exact_hop_plot_limit = 8;  // force the ANF route
  options.anf_trials = 4;
  const ReleasePipeline pipeline(options);
  Rng compute_rng(7);
  (void)pipeline.Compute(GraphView(g).WithPassCounter(&passes), compute_rng,
                         CachePolicy::kOneOff);
  EXPECT_EQ(passes.count("node_stats"), 1u);
  EXPECT_EQ(passes.count("exact_hop_plot"), 0u);
  EXPECT_GE(passes.count("anf_round"), 1u);
}

}  // namespace
}  // namespace dpkron
