// Initiator matrices for the (stochastic) Kronecker graph model (§3.1–3.2).
//
// The paper — following Gleich & Owen — works with the symmetric 2×2
// initiator
//       Θ = [ a b ]
//           [ b c ],   a, b, c ∈ [0,1], a ≥ c,
// whose k-th Kronecker power defines a probability on every node pair of a
// 2^k-node graph. A general N1×N1 initiator type is provided for the model
// definition and the sampler; the estimators are 2×2-specific like the
// paper's.

#ifndef DPKRON_SKG_INITIATOR_H_
#define DPKRON_SKG_INITIATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/cache_codec.h"
#include "src/common/status.h"

namespace dpkron {

// Symmetric 2×2 initiator (a, b, c).
struct Initiator2 {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;

  // All entries in [0,1]?
  bool IsValid() const;

  // Enforces the paper's canonical form a ≥ c by swapping if needed
  // (relabeling 0↔1 on every digit yields an isomorphic distribution).
  Initiator2 Canonical() const;

  // Clamps entries into [lo, hi] ⊆ [0,1]; the optimizers use this to
  // project iterates back into the box.
  Initiator2 Clamped(double lo = 0.0, double hi = 1.0) const;

  // Sum of all four entries: a + 2b + c.
  double EntrySum() const { return a + 2.0 * b + c; }

  std::string ToString() const;  // "[a b; b c]" with 4 decimals

  bool operator==(const Initiator2&) const = default;
};

// A durable StatCache value (common/cache_codec.h).
template <>
struct CacheCodec<Initiator2>
    : FieldCodec<Initiator2, &Initiator2::a, &Initiator2::b, &Initiator2::c> {};

// L∞ distance between two initiators (used in tests/benches).
double MaxAbsDifference(const Initiator2& x, const Initiator2& y);

// General N1×N1 initiator, row-major. Used by the model/sampler layer.
class InitiatorN {
 public:
  // Validates entries ∈ [0,1]; size must be dim*dim.
  static Result<InitiatorN> Create(uint32_t dim, std::vector<double> entries);

  // Conversion from the symmetric 2×2 parameterization.
  static InitiatorN From2x2(const Initiator2& theta);

  uint32_t dim() const { return dim_; }
  double At(uint32_t i, uint32_t j) const { return entries_[i * dim_ + j]; }
  double EntrySum() const;
  double TraceSum() const;  // Σ_i θ_ii
  bool IsSymmetric(double tol = 1e-12) const;

 private:
  InitiatorN(uint32_t dim, std::vector<double> entries)
      : dim_(dim), entries_(std::move(entries)) {}
  uint32_t dim_;
  std::vector<double> entries_;
};

}  // namespace dpkron

#endif  // DPKRON_SKG_INITIATOR_H_
