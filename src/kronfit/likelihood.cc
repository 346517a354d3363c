#include "src/kronfit/likelihood.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "src/common/macros.h"
#include "src/common/parallel.h"

namespace dpkron {
namespace {

// Node-range grain for the per-edge reductions: coarse enough that a
// chunk amortizes the dispatch, fine enough to load-balance the skewed
// SKG degree distribution.
constexpr size_t kNodeGrain = 512;

// exp(delta) for delta ∈ [−40, 0) with relative error < 2e-11 against
// the true exp: Cody–Waite reduction — |n| ≤ 58, so n·ln2_hi is exact —
// plus a degree-9 Taylor polynomial on |r| ≤ ln2/2 (truncation ≤ 1e-11),
// Estrin-combined to shorten the dependency chain.
inline double ApproxExp(double delta) {
  constexpr double kInvLn2 = 1.4426950408889634074;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 20 low bits 0
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kRoundShift = 6755399441055744.0;  // 1.5 · 2^52
  const double nd = (delta * kInvLn2 + kRoundShift) - kRoundShift;
  const double r = (delta - nd * kLn2Hi) - nd * kLn2Lo;
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double p01 = 1.0 + r;
  const double p23 = (1.0 / 2.0) + r * (1.0 / 6.0);
  const double p45 = (1.0 / 24.0) + r * (1.0 / 120.0);
  const double p67 = (1.0 / 720.0) + r * (1.0 / 5040.0);
  const double p89 = (1.0 / 40320.0) + r * (1.0 / 362880.0);
  const double poly =
      p01 + r2 * (p23 + r2 * p45) + (r4 * r2) * (p67 + r2 * p89);
  // 2^n by exponent construction: n ∈ [−58, 0] keeps it normal.
  return poly * std::bit_cast<double>(
                    (uint64_t{1023} + static_cast<int64_t>(nd)) << 52);
}

}  // namespace

namespace internal_likelihood {

bool AcceptsDownhill(double delta, double uniform) {
  // Below −40, exp(delta) < 2⁻⁵³ = NextDouble's granularity, so only
  // uniform == 0 can be accepted — and then only if exp(delta) has not
  // underflowed to zero, which std::exp itself decides.
  constexpr double kExpUnderflow = -40.0;
  if (delta < kExpUnderflow) {
    return uniform == 0.0 && uniform < std::exp(delta);
  }
  // ApproxExp brackets libm's exp (itself within a few ulp of the true
  // value) inside ex·(1 ± 4e-11). A uniform outside the bracket is
  // already decided against libm's value; only one inside consults it.
  const double ex = ApproxExp(delta);
  const double margin = 4e-11 * ex;
  if (uniform < ex - margin) return true;
  if (uniform >= ex + margin) return false;
  return uniform < std::exp(delta);
}

}  // namespace internal_likelihood

KronFitLikelihood::KronFitLikelihood(const Initiator2& theta, uint32_t k)
    : theta_(Initiator2{std::max(theta.a, kThetaFloor),
                        std::max(theta.b, kThetaFloor),
                        std::max(theta.c, kThetaFloor)}
                 .Clamped()),
      k_(k),
      mask_((k >= 32) ? 0xFFFFFFFFu : ((1u << k) - 1)),
      shift_(static_cast<uint32_t>(std::bit_width(k))),
      prob_(theta_, k) {
  DPKRON_CHECK_GE(k, 1u);
  // Tabulate the edge term and gradient factors over the digit-count
  // lattice. Powers are accumulated by the same repeated multiplication
  // EdgeProbability2 uses and the cell expressions match the *Direct
  // methods token for token, so every table value is bit-identical to
  // the direct computation.
  const double a = theta_.a, b = theta_.b, c = theta_.c;
  std::vector<double> pow_a(k + 1), pow_b(k + 1), pow_c(k + 1);
  pow_a[0] = pow_b[0] = pow_c[0] = 1.0;
  for (uint32_t i = 1; i <= k; ++i) {
    pow_a[i] = pow_a[i - 1] * a;
    pow_b[i] = pow_b[i - 1] * b;
    pow_c[i] = pow_c[i - 1] * c;
  }
  // Row stride 2^shift_ > k ≥ nb (see TableIndex); unreachable cells
  // (n11 + nb > k) stay zero.
  const size_t cells = (size_t{k} + 1) << shift_;
  edge_term_.assign(cells, 0.0);
  gradient_.assign(cells, Gradient3{0.0, 0.0, 0.0});
  for (uint32_t n11 = 0; n11 <= k; ++n11) {
    for (uint32_t nb = 0; nb + n11 <= k; ++nb) {
      const uint32_t n00 = k - n11 - nb;
      const double P = pow_a[n00] * pow_b[nb] * pow_c[n11];
      const size_t idx = (size_t{n11} << shift_) | nb;
      edge_term_[idx] = std::log(P) + P + 0.5 * P * P;
      const double factor = 1.0 + P + P * P;
      gradient_[idx] = {n00 / a * factor, nb / b * factor, n11 / c * factor};
    }
  }
}

std::array<uint32_t, 3> KronFitLikelihood::DigitCounts(uint32_t p,
                                                       uint32_t q) const {
  const uint32_t both = (p & q) & mask_;
  const uint32_t only = (p ^ q) & mask_;
  const uint32_t n11 = static_cast<uint32_t>(__builtin_popcount(both));
  const uint32_t nb = static_cast<uint32_t>(__builtin_popcount(only));
  return {k_ - n11 - nb, nb, n11};
}

double KronFitLikelihood::EdgeTermDirect(uint32_t p, uint32_t q) const {
  const double P = prob_(p, q);
  return std::log(P) + P + 0.5 * P * P;
}

Gradient3 KronFitLikelihood::EdgeGradientTermDirect(uint32_t p,
                                                    uint32_t q) const {
  const auto [n00, nb, n11] = DigitCounts(p, q);
  const double P = prob_(p, q);
  // d/dθ [log P + P + P²/2] = (n_θ/θ)(1 + P + P²).
  const double factor = 1.0 + P + P * P;
  return {n00 / theta_.a * factor, nb / theta_.b * factor,
          n11 / theta_.c * factor};
}

double KronFitLikelihood::NoEdgeTerm() const {
  const double a = theta_.a, b = theta_.b, c = theta_.c;
  const double first =
      0.5 * (PowInt(a + 2 * b + c, k_) - PowInt(a + c, k_));
  const double second = 0.25 * (PowInt(a * a + 2 * b * b + c * c, k_) -
                                PowInt(a * a + c * c, k_));
  return first + second;
}

Gradient3 KronFitLikelihood::NoEdgeGradient() const {
  const double a = theta_.a, b = theta_.b, c = theta_.c;
  const double s1 = PowInt(a + 2 * b + c, k_ - 1);
  const double t1 = PowInt(a + c, k_ - 1);
  const double s2 = PowInt(a * a + 2 * b * b + c * c, k_ - 1);
  const double t2 = PowInt(a * a + c * c, k_ - 1);
  const double kk = static_cast<double>(k_);
  Gradient3 grad;
  grad[0] = 0.5 * kk * (s1 - t1) + 0.5 * kk * a * (s2 - t2);
  grad[1] = kk * s1 + kk * b * s2;
  grad[2] = 0.5 * kk * (s1 - t1) + 0.5 * kk * c * (s2 - t2);
  return grad;
}

double KronFitLikelihood::LogLikelihood(GraphView graph,
                                        const PermutationState& sigma) const {
  const double edge_sum = ParallelSum(
      graph.NumNodes(), kNodeGrain, [&](size_t begin, size_t end) {
        double sum = 0.0;
        for (size_t u = begin; u < end; ++u) {
          const uint32_t pu = sigma.Position(static_cast<uint32_t>(u));
          for (Graph::NodeId v : graph.Neighbors(static_cast<uint32_t>(u))) {
            if (v > u) sum += EdgeTerm(pu, sigma.Position(v));
          }
        }
        return sum;
      });
  return edge_sum - NoEdgeTerm();
}

// One accumulator in neighbor-list order: u's list (skipping v) adds
// et(pv, pw) − et(pu, pw), then v's list (skipping u) adds
// et(pu, pw) − et(pv, pw). The edge {u, v} itself keeps its unordered
// position pair, and P is symmetric, so its term does not move.
inline double KronFitLikelihood::SwapDeltaWalk(
    const uint32_t* offsets, const uint32_t* adjacency,
    const uint32_t* positions, uint32_t u, uint32_t v, uint32_t pu,
    uint32_t pv, const double* et, uint32_t mask, uint32_t shift) {
  double delta = 0.0;
  for (uint32_t i = offsets[u]; i < offsets[u + 1]; ++i) {
    const uint32_t w = adjacency[i];
    if (w == v) continue;
    const uint32_t pw = positions[w];
    delta += et[TableIndex(pv, pw, mask, shift)] -
             et[TableIndex(pu, pw, mask, shift)];
  }
  for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
    const uint32_t w = adjacency[i];
    if (w == u) continue;
    const uint32_t pw = positions[w];
    delta += et[TableIndex(pu, pw, mask, shift)] -
             et[TableIndex(pv, pw, mask, shift)];
  }
  return delta;
}

double KronFitLikelihood::SwapDelta(GraphView graph,
                                    const PermutationState& sigma, uint32_t u,
                                    uint32_t v) const {
  if (u == v) return 0.0;
  const uint32_t* positions = sigma.sigma().data();
  return SwapDeltaWalk(graph.Offsets().data(), graph.Adjacency().data(),
                       positions, u, v, positions[u], positions[v],
                       edge_term_.data(), mask_, shift_);
}

void KronFitLikelihood::MetropolisSwaps(GraphView graph,
                                        PermutationState* sigma, Rng& rng,
                                        uint64_t count) const {
  const uint32_t n = graph.NumNodes();
  DPKRON_CHECK_EQ(sigma->size(), n);
  const uint32_t* offsets = graph.Offsets().data();
  const uint32_t* adjacency = graph.Adjacency().data();
  // SwapNodes permutes entries in place, so the pointer stays valid.
  const uint32_t* positions = sigma->sigma().data();
  const double* et = edge_term_.data();
  // Locals, so neither the table geometry nor the stream is reloaded
  // through memory after every accepted swap: the chain's xoshiro state
  // lives in registers for the whole loop and is handed back at the end.
  const uint32_t mask = mask_, shift = shift_;
  Rng chain = std::move(rng);
  for (uint64_t step = 0; step < count; ++step) {
    const uint32_t u = static_cast<uint32_t>(chain.NextBounded(n));
    const uint32_t v = static_cast<uint32_t>(chain.NextBounded(n));
    if (u == v) continue;
    const double delta =
        SwapDeltaWalk(offsets, adjacency, positions, u, v, positions[u],
                      positions[v], et, mask, shift);
    if (delta >= 0.0 ||
        internal_likelihood::AcceptsDownhill(delta, chain.NextDouble())) {
      sigma->SwapNodes(u, v);
    }
  }
  rng = std::move(chain);
}

Gradient3 KronFitLikelihood::EdgeGradient(GraphView graph,
                                          const PermutationState& sigma) const {
  return ParallelSumArray<3>(
      graph.NumNodes(), kNodeGrain, [&](size_t begin, size_t end) {
        Gradient3 grad{0.0, 0.0, 0.0};
        for (size_t u = begin; u < end; ++u) {
          const uint32_t pu = sigma.Position(static_cast<uint32_t>(u));
          for (Graph::NodeId v : graph.Neighbors(static_cast<uint32_t>(u))) {
            if (v <= u) continue;
            const Gradient3& term = gradient_[TableIndex(pu, sigma.Position(v))];
            grad[0] += term[0];
            grad[1] += term[1];
            grad[2] += term[2];
          }
        }
        return grad;
      });
}

}  // namespace dpkron
