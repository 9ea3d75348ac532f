#include "lattice/hnf.hpp"

#include <cstddef>
#include <utility>

#include "exact/bigint.hpp"
#include "exact/contracts.hpp"
#include "exact/fastpath.hpp"
#include "lattice/hnf_impl.hpp"
#include "linalg/ops.hpp"

namespace sysmap::lattice {

using exact::BigInt;
using exact::CheckedInt;

namespace {

#if SYSMAP_CONTRACTS_ACTIVE
/// Theorem 4.1 postconditions: T·U = H = [L,0] with L lower-triangular and
/// a nonsingular diagonal, U unimodular, and V really is U^{-1}.
void check_hnf_postconditions(const MatZ& t, const HnfResult& r) {
  const std::size_t k = t.rows();
  const std::size_t n = t.cols();
  SYSMAP_CONTRACT(t * r.u == r.h, "T*U differs from the returned H");
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      SYSMAP_CONTRACT(r.h(i, j).is_zero(),
                      "H not [L,0]: nonzero above diagonal at (" << i << ","
                                                                 << j << ")");
    }
    SYSMAP_CONTRACT(!r.h(i, i).is_zero(),
                    "L singular: zero diagonal at " << i);
  }
  SYSMAP_CONTRACT(is_unimodular(r.u), "|det U| != 1");
  SYSMAP_CONTRACT(r.u * r.v == MatZ::identity(n), "U*V != I");
}
#endif

HnfResult checked_result(const MatZ& t, HnfResult r) {
#if SYSMAP_CONTRACTS_ACTIVE
  check_hnf_postconditions(t, r);
#else
  (void)t;
#endif
  return r;
}

}  // namespace

HnfResult hermite_normal_form(const MatZ& t, const HnfOptions& options) {
  return checked_result(t, detail::hermite_normal_form_t<BigInt>(t, options));
}

HnfResult hermite_normal_form(const MatI& t, const HnfOptions& options) {
  HnfResult r = exact::with_fallback(
      [&]() -> HnfResult {
        BasicHnfResult<CheckedInt> fast =
            detail::hermite_normal_form_t<CheckedInt>(to_checked(t), options);
        return {to_bigint(fast.h), to_bigint(fast.u), to_bigint(fast.v)};
      },
      [&] {
        return detail::hermite_normal_form_t<BigInt>(to_bigint(t), options);
      });
  return checked_result(to_bigint(t), std::move(r));
}

bool is_unimodular(const MatZ& m) {
  if (!m.is_square() || m.rows() == 0) return false;
  BigInt det = linalg::determinant(m);
  return det.is_one() || (-det).is_one();
}

}  // namespace sysmap::lattice
