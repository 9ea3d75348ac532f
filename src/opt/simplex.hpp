// Exact rational linear programming (two-phase primal simplex).
//
// Section 5 of the paper converts the time-optimal conflict-free mapping
// problem into (integer) linear programs whose "extreme points ... are all
// integral"; the appendix solves them by inspecting vertices.  An exact
// simplex reproduces that reasoning with no tolerance artifacts: Bland's
// rule guarantees termination, and every reported vertex is an exact
// rational point.  Problem sizes here are tiny (n <= 6 original variables,
// tens of constraints), so a dense tableau is the right tool.
//
// The interface is Rational in and out.  Internally the simplex runs on
// CheckedRational (int64 numerator and denominator) and restarts on
// Rational when an operation would overflow (exact::with_fallback, see
// opt/simplex_impl.hpp).  Both substrates are exact and follow the same
// pivot sequence, so the answer does not depend on which one completes.
#pragma once

#include <string>
#include <vector>

#include "linalg/types.hpp"

namespace sysmap::opt {

enum class Relation { kLe, kGe, kEq };

/// coeffs . x  (rel)  rhs
struct Constraint {
  VecQ coeffs;
  Relation rel = Relation::kLe;
  exact::Rational rhs;
};

/// Minimize objective . x subject to the constraints; variables are FREE
/// (the conversion to standard form splits them internally).  Use
/// Relation::kGe rows to express lower bounds.
struct LinearProgram {
  std::size_t num_vars = 0;
  VecQ objective;
  std::vector<Constraint> constraints;

  /// Convenience: adds coeffs . x (rel) rhs.
  void add(VecQ coeffs, Relation rel, exact::Rational rhs);
  /// Convenience: adds the single-variable bound x_i (rel) value.
  void add_bound(std::size_t var, Relation rel, exact::Rational value);
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  VecQ x;                    ///< optimal point (original variables)
  exact::Rational objective; ///< objective . x at the optimum

  friend bool operator==(const LpSolution&, const LpSolution&) = default;
};

/// Exact two-phase simplex.  Deterministic (Bland's rule).
LpSolution solve_lp(const LinearProgram& lp);

}  // namespace sysmap::opt
