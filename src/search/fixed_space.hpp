// Fixed-S incremental search engine (the Pi-sweep amortizer).
//
// Procedure 5.1 tests thousands of candidate schedules Pi against ONE fixed
// space part S.  Everything about S is loop-invariant, and the paper hands
// us the amortizations:
//   - rank test: rank([S; pi]) = k  iff  rank(S) = k-1 and pi is
//     independent of S's row space, so one fraction-free echelon of S
//     (computed once) turns the per-candidate Bareiss pass into a single
//     row replay (linalg::bareiss_echelon / bareiss_row_independent);
//   - k = n-1: Proposition 3.2 makes the unique conflict vector of
//     Theorem 3.1 a LINEAR function of pi -- one precomputed cofactor
//     matrix C with cross([S; pi]) = C pi (mapping::conflict_cofactor_matrix);
//   - k <= n-2: the column-HNF of [S; pi] shares all of S's reduction work
//     across candidates; the per-row operations depend only on the row
//     being eliminated, so an S-prefix warm start replays bit-identically
//     (lattice::detail::hermite_prefix_t / hermite_extend_row_t), and the
//     free columns U_free of the HNF-of-S multiplier give ker [S; pi] =
//     U_free ker(pi U_free), from which a raw screen draws the conflict
//     witnesses that reject almost every candidate.
// All per-candidate arithmetic runs on the CheckedInt machine-word fast
// path with the usual exact::with_fallback BigInt restart, so verdicts
// (status, rule string AND witness) are bit-identical to the per-candidate
// references MappingMatrix::has_full_rank + run_conflict_oracle --
// asserted by tests/fixed_space_test.cpp across the gallery and all
// oracles.  screen() is the only way procedure_5_1 decides Step 5(2)+(3),
// with one path per (k, oracle) and no memo of verdicts: each candidate is
// decided from its own [S; pi].
//
// The context is immutable after construction; all query methods are const
// and safe to call from several threads at once.
#pragma once

#include <memory>
#include <optional>

#include "linalg/types.hpp"
#include "mapping/conflict.hpp"
#include "model/index_set.hpp"
#include "search/procedure51.hpp"

namespace sysmap::search {

class FixedSpaceContext {
 public:
  /// Precomputes the per-S invariants.  Throws std::invalid_argument when
  /// S's width differs from the index-set dimension or k = rows(S)+1 > n.
  FixedSpaceContext(const model::IndexSet& set, const MatI& space);
  ~FixedSpaceContext();

  FixedSpaceContext(FixedSpaceContext&&) noexcept;
  FixedSpaceContext& operator=(FixedSpaceContext&&) noexcept;
  FixedSpaceContext(const FixedSpaceContext&) = delete;
  FixedSpaceContext& operator=(const FixedSpaceContext&) = delete;

  std::size_t k() const;  ///< rows(S) + 1
  std::size_t n() const;

  /// rank([S; pi]) == k -- same boolean as
  /// MappingMatrix(space, pi).has_full_rank(), via the single-row replay.
  bool has_full_rank(const VecI& pi) const;

  /// Fused Step 5(2)+(3): nullopt when pi fails the rank screen OR is not
  /// conflict-free under `oracle` (no rule string or witness is
  /// materialized -- rejected candidates dominate the sweep); otherwise
  /// the accepting verdict, with the same status and rule as verdict().
  /// For k = n-1 (kPaperTheorems, kExact) one cofactor product C pi
  /// decides both screens (the cross product of an (n-1) x n matrix is
  /// nonzero exactly when it has full rank), so the echelon replay is
  /// skipped on the sweep's hottest path.  For k <= n-2 under kExact, a
  /// raw kernel-witness screen (pi times the free HNF columns of S)
  /// rejects rank-deficient candidates and those with a kernel vector
  /// inside the difference box first; whatever it cannot reject, like
  /// every other case, runs the echelon replay and then the oracle.
  std::optional<mapping::ConflictVerdict> screen(ConflictOracle oracle,
                                                 const VecI& pi) const;

  /// The full verdict for pi under `oracle`, bit-identical (status, rule,
  /// witness) to run_conflict_oracle on T = [S; pi].  Throws exactly where
  /// it throws (e.g. rank(T) < n-1 under Theorem 3.1).
  mapping::ConflictVerdict verdict(ConflictOracle oracle,
                                   const VecI& pi) const;

 private:
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

}  // namespace sysmap::search
