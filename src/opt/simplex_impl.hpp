// Template body of the exact two-phase simplex, shared by both substrates.
//
// solve_lp / solve_ilp run this body on CheckedRational first (int64
// numerators and denominators, trapping on overflow) and restart the whole
// computation on Rational when a CheckedInt operation traps, exactly as the
// lattice kernels do through exact::with_fallback.  Arithmetic is exact on
// both substrates and the pivot sequence (Bland's rule) depends only on
// exact comparisons, so every status, point, objective and pivot count is
// the same whichever substrate completes.
//
// The bodies are written against a program type P with the fields of
// opt::LinearProgram (num_vars, objective, constraints[i].{coeffs, rel,
// rhs}) and add_bound(): LinearProgram itself on the Rational substrate
// (no copy) and ProgramOf<CheckedRational> on the fast path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exact/checked_rational.hpp"
#include "opt/simplex.hpp"

namespace sysmap::opt::detail {

/// The scalar of a program type (Rational or CheckedRational).
template <typename P>
using ScalarOf = typename decltype(P::objective)::value_type;

/// coeffs . x (rel) rhs over the scalar Q.
template <typename Q>
struct ConstraintOf {
  std::vector<Q> coeffs;
  Relation rel = Relation::kLe;
  Q rhs;
};

/// LinearProgram over the scalar Q (the fast-path mirror of LinearProgram).
template <typename Q>
struct ProgramOf {
  std::size_t num_vars = 0;
  std::vector<Q> objective;
  std::vector<ConstraintOf<Q>> constraints;

  void add_bound(std::size_t var, Relation rel, Q value) {
    std::vector<Q> coeffs(num_vars, Q(0));
    coeffs.at(var) = Q(1);
    constraints.push_back({std::move(coeffs), rel, std::move(value)});
  }
};

/// Narrows a program to the fast path; throws OverflowError when an entry
/// does not fit int64, so such inputs take the Rational restart.
inline ProgramOf<exact::CheckedRational> to_checked(const LinearProgram& lp) {
  ProgramOf<exact::CheckedRational> out;
  out.num_vars = lp.num_vars;
  out.objective.reserve(lp.objective.size());
  for (const auto& c : lp.objective) out.objective.push_back(exact::to_checked(c));
  out.constraints.reserve(lp.constraints.size());
  for (const Constraint& c : lp.constraints) {
    ConstraintOf<exact::CheckedRational> row;
    row.coeffs.reserve(c.coeffs.size());
    for (const auto& a : c.coeffs) row.coeffs.push_back(exact::to_checked(a));
    row.rel = c.rel;
    row.rhs = exact::to_checked(c.rhs);
    out.constraints.push_back(std::move(row));
  }
  return out;
}

/// Widens a point of either substrate to VecQ.
template <typename Q>
VecQ to_vecq(const std::vector<Q>& x) {
  VecQ out;
  out.reserve(x.size());
  for (const Q& v : x) out.push_back(exact::to_rational(v));
  return out;
}

/// Result of the template simplex over Q.
template <typename Q>
struct LpResultOf {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<Q> x;
  Q objective;
  std::uint64_t pivots = 0;
};

template <typename Q>
LpSolution to_solution(const LpResultOf<Q>& r) {
  return {r.status, to_vecq(r.x), exact::to_rational(r.objective)};
}

// Dense simplex tableau in canonical form.
//   rows_ x (cols_ + 1); last column is the rhs.
//   cost row holds reduced costs and, in the rhs cell, -objective.
template <typename Q>
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        a_(rows, std::vector<Q>(cols + 1, Q(0))),
        cost_(cols + 1, Q(0)),
        basis_(rows, 0) {}

  Q& at(std::size_t i, std::size_t j) { return a_[i][j]; }
  Q& rhs(std::size_t i) { return a_[i][cols_]; }
  Q& cost(std::size_t j) { return cost_[j]; }
  Q& neg_objective() { return cost_[cols_]; }
  std::size_t basis(std::size_t i) const { return basis_[i]; }
  void set_basis(std::size_t i, std::size_t j) { basis_[i] = j; }
  std::uint64_t pivots() const { return pivots_; }

  // Zero entries of the pivot row are skipped: x - f * 0 == x exactly, so
  // the skip changes no value, only the work.
  void pivot(std::size_t pr, std::size_t pc) {
    std::vector<Q>& prow = a_[pr];
    const Q p = prow[pc];
    for (std::size_t j = 0; j <= cols_; ++j) {
      if (!prow[j].is_zero()) prow[j] /= p;
    }
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i != pr) eliminate(a_[i], prow, pc);
    }
    eliminate(cost_, prow, pc);
    basis_[pr] = pc;
    ++pivots_;
  }

  // Canonicalizes the cost row against the basic variable of row i.
  void eliminate_basic(std::size_t i) { eliminate(cost_, a_[i], basis_[i]); }

  // Bland's rule iteration.  Returns kOptimal or kUnbounded.
  LpStatus iterate(const std::vector<bool>& allowed) {
    for (;;) {
      // Entering: smallest-index column with negative reduced cost.
      std::size_t enter = cols_;
      for (std::size_t j = 0; j < cols_; ++j) {
        if (allowed[j] && cost_[j].signum() < 0) {
          enter = j;
          break;
        }
      }
      if (enter == cols_) return LpStatus::kOptimal;
      // Leaving: min ratio rhs_i / a_ie over a_ie > 0; ties by smallest
      // basis index (Bland).
      std::size_t leave = rows_;
      Q best;
      for (std::size_t i = 0; i < rows_; ++i) {
        if (a_[i][enter].signum() <= 0) continue;
        Q ratio = a_[i][cols_] / a_[i][enter];
        if (leave == rows_ || ratio < best ||
            (ratio == best && basis_[i] < basis_[leave])) {
          leave = i;
          best = std::move(ratio);
        }
      }
      if (leave == rows_) return LpStatus::kUnbounded;
      pivot(leave, enter);
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::vector<Q>> a_;
  std::vector<Q> cost_;
  std::vector<std::size_t> basis_;
  std::uint64_t pivots_ = 0;

  // row -= row[col] * src, where src[col] == 1; a no-op when row[col] == 0.
  void eliminate(std::vector<Q>& row, const std::vector<Q>& src,
                 std::size_t col) {
    if (row[col].is_zero()) return;
    const Q f = row[col];
    for (std::size_t j = 0; j <= cols_; ++j) {
      if (!src[j].is_zero()) row[j] -= f * src[j];
    }
  }
};

/// Exact two-phase simplex over the program's scalar.  Throws
/// std::invalid_argument on width mismatches.
template <typename P>
LpResultOf<ScalarOf<P>> solve_lp_t(const P& lp) {
  using Q = ScalarOf<P>;
  const std::size_t n = lp.num_vars;
  const std::size_t m = lp.constraints.size();
  if (lp.objective.size() != n) {
    throw std::invalid_argument("solve_lp: objective width mismatch");
  }

  // Standard-form layout: columns [x+ (n) | x- (n) | slack (s) | artificial
  // (m)].  Every row gets an artificial for a trivially feasible start.
  std::size_t num_slack = 0;
  for (const auto& c : lp.constraints) {
    if (c.rel != Relation::kEq) ++num_slack;
  }
  const std::size_t cols = 2 * n + num_slack + m;
  Tableau<Q> t(m, cols);

  std::size_t slack_at = 2 * n;
  for (std::size_t i = 0; i < m; ++i) {
    const auto& c = lp.constraints[i];
    if (c.coeffs.size() != n) {
      throw std::invalid_argument("solve_lp: constraint width mismatch");
    }
    // Orient the row so rhs >= 0.
    const bool flip = c.rhs.signum() < 0;
    for (std::size_t j = 0; j < n; ++j) {
      t.at(i, j) = flip ? -c.coeffs[j] : c.coeffs[j];
      t.at(i, n + j) = -t.at(i, j);
    }
    t.rhs(i) = flip ? -c.rhs : c.rhs;
    Relation rel = c.rel;
    if (flip) {
      if (rel == Relation::kLe) {
        rel = Relation::kGe;
      } else if (rel == Relation::kGe) {
        rel = Relation::kLe;
      }
    }
    if (rel == Relation::kLe) {
      t.at(i, slack_at++) = Q(1);
    } else if (rel == Relation::kGe) {
      t.at(i, slack_at++) = Q(-1);
    }
    // Artificial variable, basic in this row.
    const std::size_t art = 2 * n + num_slack + i;
    t.at(i, art) = Q(1);
    t.set_basis(i, art);
  }

  std::vector<bool> allowed(cols, true);

  // Phase 1: minimize the sum of artificials.  The canonical phase-1 cost
  // row is cost_j = -(sum over rows of a_ij) for non-artificial j
  // (artificial columns stay 0), and -objective = -(sum of rhs).
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < 2 * n + num_slack; ++j) {
      if (!t.at(i, j).is_zero()) t.cost(j) -= t.at(i, j);
    }
    t.neg_objective() -= t.rhs(i);
  }
  LpResultOf<Q> out;
  if (t.iterate(allowed) == LpStatus::kUnbounded) {
    // Phase-1 objective is bounded below by 0; cannot happen.
    throw std::logic_error("solve_lp: phase 1 unbounded");
  }
  // Feasible iff the phase-1 optimum is 0 (neg_objective holds -optimum).
  if (!t.neg_objective().is_zero()) {
    out.pivots = t.pivots();
    return out;
  }
  // Drive remaining artificials out of the basis; drop redundant rows by
  // leaving them basic at zero with their column disabled.
  for (std::size_t i = 0; i < m; ++i) {
    if (t.basis(i) < 2 * n + num_slack) continue;
    for (std::size_t j = 0; j < 2 * n + num_slack; ++j) {
      if (!t.at(i, j).is_zero()) {
        t.pivot(i, j);
        break;
      }
    }
  }
  for (std::size_t j = 2 * n + num_slack; j < cols; ++j) allowed[j] = false;

  // Phase 2: original objective c (x+ - x-), canonicalized against the
  // current basis.
  for (std::size_t j = 0; j <= cols; ++j) t.cost(j) = Q(0);
  for (std::size_t j = 0; j < n; ++j) {
    t.cost(j) = lp.objective[j];
    t.cost(n + j) = -lp.objective[j];
  }
  for (std::size_t i = 0; i < m; ++i) t.eliminate_basic(i);
  const LpStatus phase2 = t.iterate(allowed);
  out.pivots = t.pivots();
  if (phase2 == LpStatus::kUnbounded) {
    out.status = LpStatus::kUnbounded;
    return out;
  }

  // Extract x = x+ - x-.
  out.status = LpStatus::kOptimal;
  out.x.assign(n, Q(0));
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t b = t.basis(i);
    if (b < n) {
      out.x[b] += t.rhs(i);
    } else if (b < 2 * n) {
      out.x[b - n] -= t.rhs(i);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (!out.x[j].is_zero()) out.objective += lp.objective[j] * out.x[j];
  }
  return out;
}

}  // namespace sysmap::opt::detail
