// Thin dispatch layer over the templated checkers in verdicts_impl.hpp.
//
// HnfResult overloads run on the BigInt substrate the caller already built.
// MappingMatrix overloads start from machine integers, so they try the
// CheckedInt instantiation first and restart over BigInt when the checked
// arithmetic overflows (exact::with_fallback).
#include "mapping/theorems.hpp"

#include <cstddef>

#include "exact/contracts.hpp"
#include "exact/fastpath.hpp"
#include "mapping/conflict.hpp"
#include "mapping/verdicts_impl.hpp"

namespace sysmap::mapping {

using exact::BigInt;
using exact::CheckedInt;

// ---------------------------------------------------------------------------
// Theorem 3.1
// ---------------------------------------------------------------------------

ConflictVerdict theorem_3_1(const MappingMatrix& t,
                            const model::IndexSet& set) {
  ConflictVerdict v = exact::with_fallback(
      [&] { return detail::theorem_3_1_t<CheckedInt>(t, set); },
      [&] { return detail::theorem_3_1_t<BigInt>(t, set); });
#if SYSMAP_CONTRACTS_ACTIVE
  // The k = n-1 witness is the unique conflict vector: it must lie in
  // null(T) and inside the index-set difference box (non-feasible).
  if (v.status == ConflictVerdict::Status::kHasConflict &&
      v.witness.has_value()) {
    VecZ image = to_bigint(t.matrix()) * (*v.witness);
    for (std::size_t r = 0; r < image.size(); ++r) {
      SYSMAP_CONTRACT(image[r].is_zero(),
                      "Theorem 3.1 witness not in null(T), row " << r);
    }
    SYSMAP_CONTRACT(!is_feasible_conflict_vector(*v.witness, set),
                    "Theorem 3.1 witness escapes the index-set box");
  }
#endif
  return v;
}

MatZ conflict_cofactor_matrix(const MatI& space) {
  return exact::with_fallback(
      [&] {
        return to_bigint(detail::conflict_cofactor_matrix_t(
            detail::lift<CheckedInt>(space)));
      },
      [&] {
        return detail::conflict_cofactor_matrix_t(
            detail::lift<BigInt>(space));
      });
}

// ---------------------------------------------------------------------------
// Theorem 4.3 (necessary)
// ---------------------------------------------------------------------------

ConflictVerdict theorem_4_3(const lattice::HnfResult& hnf, std::size_t k,
                            const model::IndexSet& set) {
  return detail::theorem_4_3_t(hnf, k, set);
}

ConflictVerdict theorem_4_3(const MappingMatrix& t,
                            const model::IndexSet& set) {
  return exact::with_fallback(
      [&] {
        return detail::theorem_4_3_t(detail::decompose<CheckedInt>(t), t.k(),
                                     set);
      },
      [&] {
        return detail::theorem_4_3_t(detail::decompose<BigInt>(t), t.k(),
                                     set);
      });
}

// ---------------------------------------------------------------------------
// Theorem 4.4 (necessary)
// ---------------------------------------------------------------------------

ConflictVerdict theorem_4_4(const lattice::HnfResult& hnf, std::size_t k,
                            const model::IndexSet& set) {
  return detail::theorem_4_4_t(hnf, k, set);
}

ConflictVerdict theorem_4_4(const MappingMatrix& t,
                            const model::IndexSet& set) {
  return exact::with_fallback(
      [&] {
        return detail::theorem_4_4_t(detail::decompose<CheckedInt>(t), t.k(),
                                     set);
      },
      [&] {
        return detail::theorem_4_4_t(detail::decompose<BigInt>(t), t.k(),
                                     set);
      });
}

// ---------------------------------------------------------------------------
// Theorem 4.5 (sufficient)
// ---------------------------------------------------------------------------

ConflictVerdict theorem_4_5(const lattice::HnfResult& hnf, std::size_t k,
                            const model::IndexSet& set) {
  return detail::theorem_4_5_t(hnf, k, set);
}

ConflictVerdict theorem_4_5(const MappingMatrix& t,
                            const model::IndexSet& set) {
  return exact::with_fallback(
      [&] {
        return detail::theorem_4_5_t(detail::decompose<CheckedInt>(t), t.k(),
                                     set);
      },
      [&] {
        return detail::theorem_4_5_t(detail::decompose<BigInt>(t), t.k(),
                                     set);
      });
}

// ---------------------------------------------------------------------------
// Theorem 4.6 (sufficient, k = n-2)
// ---------------------------------------------------------------------------

ConflictVerdict theorem_4_6(const lattice::HnfResult& hnf, std::size_t k,
                            const model::IndexSet& set) {
  return detail::theorem_4_6_t(hnf, k, set);
}

ConflictVerdict theorem_4_6(const MappingMatrix& t,
                            const model::IndexSet& set) {
  return exact::with_fallback(
      [&] {
        return detail::theorem_4_6_t(detail::decompose<CheckedInt>(t), t.k(),
                                     set);
      },
      [&] {
        return detail::theorem_4_6_t(detail::decompose<BigInt>(t), t.k(),
                                     set);
      });
}

// ---------------------------------------------------------------------------
// Theorem 4.7 (published exact, k = n-2)
// ---------------------------------------------------------------------------

ConflictVerdict theorem_4_7(const lattice::HnfResult& hnf, std::size_t k,
                            const model::IndexSet& set) {
  return detail::theorem_4_7_t(hnf, k, set);
}

ConflictVerdict theorem_4_7(const MappingMatrix& t,
                            const model::IndexSet& set) {
  return exact::with_fallback(
      [&] {
        return detail::theorem_4_7_t(detail::decompose<CheckedInt>(t), t.k(),
                                     set);
      },
      [&] {
        return detail::theorem_4_7_t(detail::decompose<BigInt>(t), t.k(),
                                     set);
      });
}

// ---------------------------------------------------------------------------
// Theorem 4.8 (published exact, k = n-3)
// ---------------------------------------------------------------------------

ConflictVerdict theorem_4_8(const lattice::HnfResult& hnf, std::size_t k,
                            const model::IndexSet& set) {
  return detail::theorem_4_8_t(hnf, k, set);
}

ConflictVerdict theorem_4_8(const MappingMatrix& t,
                            const model::IndexSet& set) {
  return exact::with_fallback(
      [&] {
        return detail::theorem_4_8_t(detail::decompose<CheckedInt>(t), t.k(),
                                     set);
      },
      [&] {
        return detail::theorem_4_8_t(detail::decompose<BigInt>(t), t.k(),
                                     set);
      });
}

// ---------------------------------------------------------------------------
// Generalized sign-pattern check (library extension)
// ---------------------------------------------------------------------------

ConflictVerdict sign_pattern_check_basis(const MatZ& kernel,
                                         const model::IndexSet& set) {
  return exact::with_fallback(
      [&] {
        // to_checked throws OverflowError on entries outside int64, which
        // lands in the BigInt restart below.
        return detail::sign_pattern_check_basis_t(to_checked(kernel), set);
      },
      [&] { return detail::sign_pattern_check_basis_t(kernel, set); });
}

ConflictVerdict sign_pattern_check(const lattice::HnfResult& hnf,
                                   std::size_t k,
                                   const model::IndexSet& set) {
  return sign_pattern_check_basis(detail::kernel_block(hnf, k), set);
}

ConflictVerdict sign_pattern_check(const MappingMatrix& t,
                                   const model::IndexSet& set) {
  return exact::with_fallback(
      [&] {
        return detail::sign_pattern_check_basis_t(
            detail::kernel_block(detail::decompose<CheckedInt>(t), t.k()),
            set);
      },
      [&] {
        return detail::sign_pattern_check_basis_t(
            detail::kernel_block(detail::decompose<BigInt>(t), t.k()), set);
      });
}

}  // namespace sysmap::mapping
