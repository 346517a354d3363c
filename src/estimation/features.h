// The four matching statistics F(G) = (E, H, ∆, T) of §3.4, as a value
// type shared by the non-private and private estimation paths.
//
// Fields are doubles because the differentially private pipeline produces
// fractional (and occasionally negative) approximations of the counts; the
// exact path fills them with integers.

#ifndef DPKRON_ESTIMATION_FEATURES_H_
#define DPKRON_ESTIMATION_FEATURES_H_

#include <cstdint>
#include <string>

#include "src/common/cache_codec.h"
#include "src/graph/graph_view.h"
#include "src/skg/moments.h"

namespace dpkron {

struct GraphFeatures {
  double edges = 0.0;      // E
  double hairpins = 0.0;   // H (wedges / 2-stars)
  double triangles = 0.0;  // ∆
  double tripins = 0.0;    // T (3-stars)

  std::string ToString() const;

  bool operator==(const GraphFeatures&) const = default;
};

// A durable StatCache value (common/cache_codec.h).
template <>
struct CacheCodec<GraphFeatures>
    : FieldCodec<GraphFeatures, &GraphFeatures::edges,
                 &GraphFeatures::hairpins, &GraphFeatures::triangles,
                 &GraphFeatures::tripins> {};

// Exact feature extraction (triangles via the forward algorithm, stars
// from the degree sequence).
GraphFeatures ComputeFeatures(GraphView graph);

// ComputeFeatures served through the process-wide StatCache when it is
// enabled (keyed by the graph's content fingerprint; the features are a
// deterministic pure function of the graph). The KronMom and private
// estimation routes call this, so a sweep extracts each graph's exact
// features once instead of once per run.
GraphFeatures ComputeFeaturesCached(GraphView graph);

// E, H, T from a (possibly noisy, fractional) degree vector using the
// Algorithm 1 step-3 formulas; `triangles` must be supplied separately.
GraphFeatures FeaturesFromDegrees(const std::vector<double>& degrees,
                                  double triangles);

// Pointwise max(value, floor) on every field — the post-processing clamp
// applied to privatized features before fitting (noise can push counts
// negative; a count below `floor` carries no usable signal for moment
// matching). Post-processing preserves differential privacy.
GraphFeatures ClampFeatures(const GraphFeatures& features, double floor = 1.0);

// Conversion from model-expected moments (for tests and objectives).
GraphFeatures FromMoments(const SkgMoments& moments);

}  // namespace dpkron

#endif  // DPKRON_ESTIMATION_FEATURES_H_
