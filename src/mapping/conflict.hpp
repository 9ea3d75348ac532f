// Conflict vectors (Definition 2.3) and exact conflict-freedom decisions.
//
// gamma is a conflict vector of T iff T gamma = 0, gamma integral and
// primitive.  It is *feasible* for a box index set iff some |gamma_i| >
// mu_i (Theorem 2.2); T is conflict-free iff every conflict vector is
// feasible.  Besides the closed-form theorem checkers (theorems.hpp), this
// module provides:
//   - the unique conflict vector of a (n-1) x n mapping (Equation 3.2),
//   - an authoritative bounded-enumeration decision procedure that searches
//     the kernel lattice of T for a non-feasible conflict vector (exact for
//     any k; used to validate the theorem checkers and to handle k < n-3
//     when the sufficient condition of Theorem 4.5 is inconclusive).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "linalg/types.hpp"
#include "mapping/mapping_matrix.hpp"
#include "model/index_set.hpp"
#include "model/polyhedron.hpp"

namespace sysmap::mapping {

/// Theorem 2.2: gamma is feasible for the box iff some |gamma_i| > mu_i.
bool is_feasible_conflict_vector(const VecZ& gamma,
                                 const model::IndexSet& set);
bool is_feasible_conflict_vector(const VecI& gamma,
                                 const model::IndexSet& set);

/// Equation 3.2 / Theorem 3.1: for T in Z^{(n-1) x n} with rank n-1, the
/// unique conflict vector with positive first nonzero entry.  Entry i is
/// (-1)^i det(T with column i removed), normalized to a primitive vector.
/// Throws std::domain_error when rank(T) < n-1.
VecZ unique_conflict_vector(const MappingMatrix& t);

/// Tri-state decision result with evidence.
struct ConflictVerdict {
  enum class Status { kConflictFree, kHasConflict, kUnknown };
  Status status = Status::kUnknown;
  /// A non-feasible conflict vector when status == kHasConflict.
  std::optional<VecZ> witness;
  /// Which rule produced the verdict (for reports and EXPERIMENTS.md).
  std::string rule;

  bool conflict_free() const {
    return status == Status::kConflictFree;
  }

  friend bool operator==(const ConflictVerdict&,
                         const ConflictVerdict&) = default;
};

/// Exact decision by bounded enumeration of the kernel lattice of T
/// intersected with the box [-mu, mu]^n.  The coefficient bounds come from
/// beta = V gamma (Theorem 4.2): |beta_j| <= sum_c |v_jc| mu_c.  Returns
/// kUnknown only when the enumeration volume exceeds `budget` points.
ConflictVerdict decide_conflict_free_exact(const MappingMatrix& t,
                                           const model::IndexSet& set,
                                           std::uint64_t budget = 50'000'000);

/// Same exact decision over an explicit kernel basis (columns of `kernel`
/// spanning ker(T) as a lattice).  Coefficient bounds come from the exact
/// rational pseudo-inverse of the basis, so short (LLL-reduced) bases give
/// far smaller enumeration volumes -- see lattice/lll.hpp and the
/// bench/lll_ablation study.
ConflictVerdict decide_conflict_free_over_basis(
    const MatZ& kernel, const model::IndexSet& set,
    std::uint64_t budget = 50'000'000);

/// The dispatcher used by the optimizer: closed-form theorems where they
/// are exact (k = n, n-1, n-2, n-3), Theorem 4.5 then exact enumeration
/// otherwise.  Never returns kUnknown within budget.
ConflictVerdict decide_conflict_free(const MappingMatrix& t,
                                     const model::IndexSet& set);

/// Result of the diagnostic survey below.  `truncated` distinguishes a
/// genuinely clean mapping (vectors empty, truncated false) from a survey
/// that gave up: enumeration volume over budget, coefficient bounds outside
/// int64, or the max_results cap reached before the sweep finished.
struct ConflictVectorSurvey {
  std::vector<VecZ> vectors;
  bool truncated = false;

  bool complete() const { return !truncated; }
};

/// Diagnostic survey: ALL non-feasible (primitive, canonical-sign)
/// conflict vectors of T within the index-set box, up to `max_results`.
/// `vectors` is empty AND `truncated` is false iff T is conflict-free.
/// Useful for array designers deciding how to repair a rejected mapping
/// (which directions collide and how badly).
ConflictVectorSurvey enumerate_nonfeasible_conflict_vectors(
    const MappingMatrix& t, const model::IndexSet& set,
    std::size_t max_results = 64, std::uint64_t budget = 50'000'000);

/// Exact decision over a *polyhedral* index set (library extension lifting
/// Assumption 2.1): enumerates kernel candidates gamma inside the
/// difference box of J and tests each with the ILP feasibility criterion
/// of model::is_feasible_conflict_vector_polyhedral.  kUnknown only when
/// the candidate enumeration exceeds `budget`.
ConflictVerdict decide_conflict_free_polyhedral(
    const MappingMatrix& t, const model::PolyhedralIndexSet& set,
    std::uint64_t budget = 1'000'000);

}  // namespace sysmap::mapping
