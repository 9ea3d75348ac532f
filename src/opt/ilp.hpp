// Exact integer linear programming by branch and bound.
//
// The formulations of Section 5 ((5.1)-(5.2) and (5.5)-(5.6)) are small
// ILPs; the paper notes that for fixed dimension they are polynomial and in
// the 0/+-1 cases reduce to LPs with integral vertices.  This solver runs
// depth-first branch and bound over the exact simplex: no tolerances,
// deterministic branching (first fractional variable), bound pruning
// against the incumbent.  The whole tree runs on one substrate:
// CheckedRational first, restarted from the root on Rational when an
// operation would overflow int64 (see opt/simplex.hpp).
#pragma once

#include <cstdint>
#include <optional>

#include "opt/simplex.hpp"

namespace sysmap::opt {

/// Minimize objective . x, x integral, subject to constraints.
struct IntegerProgram {
  LinearProgram relaxation;
};

enum class IlpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,     ///< LP relaxation unbounded at the root
  kNodeLimit,     ///< search truncated; solution (if any) is incumbent-best
};

struct IlpSolution {
  IlpStatus status = IlpStatus::kInfeasible;
  VecZ x;                    ///< integral optimum (kNodeLimit: incumbent)
  exact::Rational objective;
  /// Optimum of the root LP relaxation, a lower bound on every integral
  /// solution.  Set whenever the root relaxation solved to optimality, so
  /// a kNodeLimit result still bounds the unexplored tree.
  std::optional<exact::Rational> root_objective;
  std::uint64_t nodes = 0;   ///< branch-and-bound nodes explored

  friend bool operator==(const IlpSolution&, const IlpSolution&) = default;
};

/// Solves the ILP; `node_limit` bounds the search tree size.
IlpSolution solve_ilp(const IntegerProgram& ip,
                      std::uint64_t node_limit = 1'000'000);

}  // namespace sysmap::opt
