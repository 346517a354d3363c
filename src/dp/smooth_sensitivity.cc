#include "src/dp/smooth_sensitivity.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <tuple>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/common/stat_cache.h"
#include "src/graph/triangles.h"

namespace dpkron {
namespace {

// True iff i and j are within hop distance 2 (adjacent or sharing a
// neighbor).
bool WithinTwoHops(GraphView graph, Graph::NodeId i, Graph::NodeId j) {
  if (graph.HasEdge(i, j)) return true;
  return CommonNeighbors(graph, i, j) > 0;
}

struct FarPair {
  bool found = false;
  uint64_t degree_sum = 0;
};

// Exact max of d_i + d_j over pairs at distance > 2 (found=false if no
// such pair exists). Best-first walk over pairs of the degree-sorted node
// list; the first far pair found has the maximum sum. Sets *exact to
// false (and returns the conservative top-two sum) if `budget`
// pair-inspections are not enough.
FarPair MaxFarPairDegreeSum(GraphView graph, uint64_t budget,
                            bool* exact) {
  const uint32_t n = graph.NumNodes();
  if (n < 2) return {};
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&graph](uint32_t x, uint32_t y) {
    const uint32_t dx = graph.Degree(x), dy = graph.Degree(y);
    return dx != dy ? dx > dy : x < y;
  });
  auto degree_at = [&](uint32_t rank) {
    return uint64_t{graph.Degree(order[rank])};
  };

  // Max-heap over (sum, rank_i, rank_j) with rank_i < rank_j; the frontier
  // invariant (push (i, j+1) always, (i+1, i+2) when j == i+1) visits each
  // pair at most once in non-increasing sum order.
  using Entry = std::tuple<uint64_t, uint32_t, uint32_t>;
  std::priority_queue<Entry> heap;
  heap.emplace(degree_at(0) + degree_at(1), 0u, 1u);
  uint64_t inspected = 0;
  while (!heap.empty()) {
    const auto [sum, i, j] = heap.top();
    heap.pop();
    if (++inspected > budget) {
      *exact = false;
      return {true, degree_at(0) + degree_at(1)};  // conservative bound
    }
    if (!WithinTwoHops(graph, order[i], order[j])) return {true, sum};
    if (j + 1 < n) heap.emplace(degree_at(i) + degree_at(j + 1), i, j + 1);
    if (j == i + 1 && i + 2 < n) {
      heap.emplace(degree_at(i + 1) + degree_at(i + 2), i + 1, i + 2);
    }
  }
  return {};  // diameter ≤ 2: no far pairs at all
}

// The Pareto frontier of a stream of (a, b) candidates, accumulated
// without storing or sorting them: a is a common-neighbour count (at most
// the maximum degree), so a dense array keeps the largest b seen per a.
// The frontier is a pure function of the candidate set — max is
// order-independent — so per-worker accumulators merge to the same
// frontier at any thread count.
class FrontierAccumulator {
 public:
  void Add(uint64_t a, uint64_t b) {
    if (a >= best_.size()) best_.resize(a + 1, 0);
    best_[a] = std::max(best_[a], b + 1);
  }

  void Merge(const FrontierAccumulator& other) {
    if (other.best_.size() > best_.size()) best_.resize(other.best_.size(), 0);
    for (size_t a = 0; a < other.best_.size(); ++a) {
      best_[a] = std::max(best_[a], other.best_[a]);
    }
  }

  // The Pareto-maximal candidates: a descending, b strictly rising.
  std::vector<std::pair<uint64_t, uint64_t>> Frontier() const {
    std::vector<std::pair<uint64_t, uint64_t>> frontier;
    for (size_t a = best_.size(); a-- > 0;) {
      if (best_[a] == 0) continue;
      const uint64_t b = best_[a] - 1;
      if (frontier.empty() || b > frontier.back().second) {
        frontier.emplace_back(a, b);
      }
    }
    return frontier;
  }

 private:
  std::vector<uint64_t> best_;  // 1 + largest b per a; 0 = no candidate
};

}  // namespace

TriangleSensitivityProfile::TriangleSensitivityProfile(GraphView graph)
    : num_nodes_(graph.NumNodes()) {
  const uint32_t n = num_nodes_;
  FrontierAccumulator frontier;

  if (n >= 2) {
    // Classes 1 and 2, enumerated per source node i with stamped
    // counters (no pair map). Source nodes are chunked across the pool;
    // each worker owns one set of buffers (candidate values depend only
    // on the graph, so reuse across chunks is harmless) and one frontier
    // accumulator, merged below.
    constexpr size_t kGrain = 256;
    // One cache line apart: `current` is written once per source node.
    struct alignas(64) WorkerScratch {
      std::vector<uint32_t> common;    // common neighbours of (i, j)
      std::vector<uint32_t> stamp;     // common[j] is live for source i
      std::vector<uint32_t> neighbor;  // == current iff j ∈ N(i)
      std::vector<Graph::NodeId> touched;
      uint32_t current = 0;
      FrontierAccumulator frontier;
    };
    std::vector<WorkerScratch> workers(ParallelThreadCount());
    ParallelForChunks(n, kGrain, [&](const ParallelChunk& chunk) {
      WorkerScratch& w = workers[chunk.worker];
      if (w.stamp.size() != n) {
        // First chunk this worker runs: initialize its buffers here, in
        // the parallel section, and only for workers actually scheduled
        // (pre-zeroing every slot would cost O(threads·N) serially).
        w.common.assign(n, 0);
        w.stamp.assign(n, 0);
        w.neighbor.assign(n, 0);
      }
      for (size_t node = chunk.begin; node < chunk.end; ++node) {
        const Graph::NodeId i = static_cast<Graph::NodeId>(node);
        const uint64_t deg_i = graph.Degree(i);
        ++w.current;
        w.touched.clear();
        // Class 2 — every edge {i, v}, v > i: (0, d_i + d_v − 2). For
        // adjacent pairs with common neighbours the profile is dominated
        // by their exact class-1 entry (a shifts it up by at least as
        // much as the larger b would); for adjacent pairs without common
        // neighbours it IS the exact value. Only the largest b can be on
        // the frontier, so the accumulator keeps just that.
        for (Graph::NodeId v : graph.Neighbors(i)) {
          if (v <= i) continue;
          w.neighbor[v] = w.current;
          w.frontier.Add(0, deg_i + graph.Degree(v) - 2);
        }
        // Class 1 — exact (a, b) for every pair j > i with a common
        // neighbour.
        for (Graph::NodeId mid : graph.Neighbors(i)) {
          for (Graph::NodeId j : graph.Neighbors(mid)) {
            if (j <= i) continue;  // each unordered pair once
            if (w.stamp[j] != w.current) {
              w.stamp[j] = w.current;
              w.common[j] = 0;
              w.touched.push_back(j);
            }
            ++w.common[j];
          }
        }
        for (Graph::NodeId j : w.touched) {
          const uint64_t a = w.common[j];
          const uint64_t adjacent = w.neighbor[j] == w.current ? 1 : 0;
          // deg_i + deg_j double-counts the a common neighbors and counts
          // j∈N(i), i∈N(j) when adjacent.
          w.frontier.Add(a, deg_i + graph.Degree(j) - 2 * a - 2 * adjacent);
        }
      }
    });
    for (const WorkerScratch& w : workers) frontier.Merge(w.frontier);

    // Class 3 — pairs at distance > 2 have a = 0, b = d_i + d_j exactly.
    // A far pair with degree sum 0 still matters: s flips can build
    // ⌊s/2⌋ common neighbors for it (this is the whole profile of an
    // empty graph).
    const FarPair far = MaxFarPairDegreeSum(graph, /*budget=*/50000, &exact_);
    if (far.found) frontier.Add(0, far.degree_sum);
  }

  frontier_ = frontier.Frontier();
}

uint64_t TriangleSensitivityProfile::LocalSensitivityAtDistance(
    uint64_t s) const {
  if (num_nodes_ < 3) return 0;
  const uint64_t cap = num_nodes_ - 2;
  uint64_t best = 0;
  for (const auto& [a, b] : frontier_) {
    const uint64_t raised = a + (s + std::min(s, b)) / 2;
    best = std::max(best, std::min(raised, cap));
    if (best == cap) break;
  }
  return best;
}

double TriangleSensitivityProfile::SmoothSensitivity(double beta) const {
  DPKRON_CHECK_GT(beta, 0.0);
  if (num_nodes_ < 3) return 0.0;
  const uint64_t cap = num_nodes_ - 2;
  double best = 0.0;
  // e^{-βs}·LS^(s) can only decrease once LS^(s) saturates at the cap;
  // LS^(s) grows by at most 1 per step, so the scan is bounded.
  for (uint64_t s = 0;; ++s) {
    const uint64_t ls = LocalSensitivityAtDistance(s);
    best = std::max(best, std::exp(-beta * double(s)) * double(ls));
    if (ls >= cap) break;
    // Even the cap can no longer beat the current best: stop early.
    if (std::exp(-beta * double(s + 1)) * double(cap) <= best) break;
  }
  return best;
}

std::shared_ptr<const TriangleSensitivityProfile>
CachedTriangleSensitivityProfile(GraphView graph) {
  return StatCache::Instance().GetOrCompute<TriangleSensitivityProfile>(
      "triangle_profile", CacheKey().Mix(graph.ContentFingerprint()).digest(),
      [&graph] { return TriangleSensitivityProfile(graph); });
}

double SmoothSensitivityTriangles(GraphView graph, double beta) {
  return CachedTriangleSensitivityProfile(graph)->SmoothSensitivity(beta);
}

PrivateTriangleResult PrivateTriangleCount(GraphView graph, double epsilon,
                                           double delta, Rng& rng) {
  DPKRON_CHECK_GT(epsilon, 0.0);
  DPKRON_CHECK_GT(delta, 0.0);
  DPKRON_CHECK_LT(delta, 1.0);
  PrivateTriangleResult result;
  result.beta = epsilon / (2.0 * std::log(2.0 / delta));
  // The profile is the expensive, ε-independent half of the mechanism;
  // evaluating SS_β at this run's β is a cheap scan over its frontier.
  const auto profile = CachedTriangleSensitivityProfile(graph);
  result.smooth_sensitivity = profile->SmoothSensitivity(result.beta);
  result.exact_sensitivity = profile->exact();
  result.exact =
      static_cast<double>(*StatCache::Instance().GetOrCompute<uint64_t>(
          "triangle_count", CacheKey().Mix(graph.ContentFingerprint()).digest(),
          [&graph] { return CountTriangles(graph); }));
  result.value = result.exact +
                 2.0 * result.smooth_sensitivity / epsilon * rng.NextLaplace(1.0);
  return result;
}

}  // namespace dpkron
