// Integer-programming formulations of Problem 2.2 (Section 5).
//
// For T in Z^{(n-1) x n} the unique conflict vector is linear in Pi when S
// is fixed (Proposition 3.2): gamma(Pi) = F Pi with F an integer matrix
// computed from minors of S.  The disjunctive conflict-freedom constraint
// "exists i: |F_i Pi| >= mu_i + 1" splits the ILP (5.1)-(5.2) into 2n
// convex branches, each solved exactly.
//
// The appendix's caveat applies: the branch optimum's conflict vector can
// have a non-unit gcd (e.g. Pi = [1, mu, 1] for odd mu in Example 5.1), in
// which case the scaled-down conflict vector may be non-feasible.  Every
// branch candidate is therefore *verified* with the exact conflict oracle;
// solve_k_equals_n_minus_1 returns the best verified candidate plus the
// unverified LP lower bound so callers (core::Mapper) can certify global
// optimality with a bounded Procedure-5.1 sweep.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "model/algorithm.hpp"
#include "opt/ilp.hpp"

namespace sysmap::search {

/// gamma(Pi) = F Pi for T = [S; Pi] in Z^{(n-1) x n}: F(i, c) is the signed
/// minor of S with columns i and c removed (0 on the diagonal).
/// Requires S in Z^{(n-2) x n}.
MatZ conflict_coefficients(const MatI& space);

/// How Pi sign patterns are handled when linearizing |pi_i|.
enum class SignMode {
  kPositive,  ///< constrain pi_i >= 1 (valid when Pi D > 0 forces it)
  kOrthants,  ///< enumerate all 2^n sign orthants (general)
};

/// True when Pi D > 0 forces every pi_i >= 1, so SignMode::kPositive
/// searches the whole feasible set and its lower bound is valid.  Exact:
/// this holds iff every unit vector e_i lies in the cone of D's columns
/// (then pi_i = Pi D lambda >= sum lambda > 0 for integer Pi; otherwise a
/// Farkas ray moves a feasible Pi to pi_i <= 0).  A column equal to a
/// positive multiple of e_i decides coordinate i at once; only the
/// remaining coordinates cost one feasibility LP each.
bool positive_orthant_forced(const MatI& d);

struct IlpMappingResult {
  bool found = false;
  VecI pi;              ///< best verified schedule
  Int objective = 0;    ///< its f value
  /// Smallest branch_lower_bound over the branches (valid lower bound on
  /// Problem 2.2 for this S even when the candidate achieving it failed
  /// verification or a branch search was truncated).
  Int lower_bound = 0;
  /// Candidates that solved a branch but failed the gcd/conflict check.
  std::vector<VecI> rejected;
  std::uint64_t ilp_nodes = 0;

  friend bool operator==(const IlpMappingResult&,
                         const IlpMappingResult&) = default;
};

/// Solves formulation (5.1)-(5.2) for k = n-1 by branch splitting +
/// exact ILP + verification.
IlpMappingResult solve_k_equals_n_minus_1(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    SignMode sign_mode = SignMode::kPositive);

/// Calls `visit` on every branch program of (5.1)-(5.2) for
/// F = conflict_coefficients(S), one at a time and in the order
/// solve_k_equals_n_minus_1 solves them: rows ascending, side +1 before
/// -1; under kOrthants each branch expands into its 2^n sign orthants
/// (mask ascending, bit i set for pi_i >= 0).
void for_each_branch(
    const model::UniformDependenceAlgorithm& algo, const MatZ& f_coeffs,
    SignMode sign_mode,
    const std::function<void(const opt::LinearProgram&)>& visit);

/// The lower bound on f that one solved branch contributes to
/// IlpMappingResult::lower_bound: its optimum when kOptimal, the ceiling
/// of its root relaxation when the search hit the node limit (the
/// unexplored subtrees may hold a better point).  nullopt when the branch
/// cannot lower the minimum: it is infeasible, or the bound does not fit
/// int64 (f >= 0, so it exceeds every representable objective).
std::optional<Int> branch_lower_bound(const opt::IlpSolution& sol);

/// Builds one branch ILP: minimize sum mu_i |pi_i| subject to Pi D >= 1,
/// sign handling per mode, and the chosen disjunct
/// (side = +1: F_row Pi >= mu_row + 1; side = -1: -F_row Pi >= mu_row + 1).
/// Exposed for tests and the extreme-point reproduction of the appendix.
opt::LinearProgram build_branch(const model::UniformDependenceAlgorithm& algo,
                                const MatZ& f_coeffs, std::size_t row,
                                int side);

}  // namespace sysmap::search
