#include "search/ilp_formulation.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "linalg/ops.hpp"
#include "mapping/conflict.hpp"
#include "opt/vertex_enum.hpp"
#include "schedule/linear_schedule.hpp"

namespace sysmap::search {

using exact::BigInt;
using exact::Rational;

MatZ conflict_coefficients(const MatI& space) {
  const std::size_t n = space.cols();
  if (space.rows() + 2 != n) {
    throw std::invalid_argument(
        "conflict_coefficients: S must be (n-2) x n");
  }
  MatZ s = to_bigint(space);
  MatZ f(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c == i) continue;
      // Minor of S with columns i and c removed.
      MatZ sub(n - 2, n - 2);
      std::size_t cc = 0;
      for (std::size_t col = 0; col < n; ++col) {
        if (col == i || col == c) continue;
        for (std::size_t row = 0; row < n - 2; ++row) {
          sub(row, cc) = s(row, col);
        }
        ++cc;
      }
      BigInt det = linalg::determinant(sub);
      std::size_t pos = c < i ? c : c - 1;
      // gamma_i(Pi) = (-1)^i * det(T_{-i}); expand T_{-i} along the Pi row.
      int sign = ((i % 2 == 0) ? 1 : -1) * (((n - 2 + pos) % 2 == 0) ? 1 : -1);
      f(i, c) = sign > 0 ? det : -det;
    }
  }
  return f;
}

opt::LinearProgram build_branch(const model::UniformDependenceAlgorithm& algo,
                                const MatZ& f_coeffs, std::size_t row,
                                int side) {
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  const std::size_t n = set.dimension();

  opt::LinearProgram lp;
  lp.num_vars = n;
  lp.objective.assign(n, Rational(0));
  for (std::size_t i = 0; i < n; ++i) {
    lp.objective[i] = Rational(BigInt(set.mu(i)));
  }
  // Positivity: pi_i >= 1 (the paper's Examples 5.1/5.2 regime).
  for (std::size_t i = 0; i < n; ++i) {
    lp.add_bound(i, opt::Relation::kGe, Rational(1));
  }
  // Pi D > 0, integrally: Pi d_j >= 1.
  for (std::size_t j = 0; j < d.cols(); ++j) {
    VecQ coeffs(n);
    for (std::size_t i = 0; i < n; ++i) coeffs[i] = Rational(d(i, j));
    lp.add(std::move(coeffs), opt::Relation::kGe, Rational(1));
  }
  // The chosen disjunct of constraint 3: side * F_row . Pi >= mu_row + 1.
  VecQ coeffs(n);
  for (std::size_t i = 0; i < n; ++i) {
    BigInt c = f_coeffs(row, i);
    coeffs[i] = Rational(side > 0 ? c : -c);
  }
  lp.add(std::move(coeffs), opt::Relation::kGe,
         Rational(BigInt(set.mu(row)) + BigInt(1)));
  return lp;
}

namespace {

// Adds orthant sign constraints and rewrites the objective for sign
// pattern sigma (entries +-1): |pi_i| = sigma_i pi_i.
void apply_orthant(opt::LinearProgram& lp, const model::IndexSet& set,
                   const std::vector<int>& sigma) {
  const std::size_t n = lp.num_vars;
  for (std::size_t i = 0; i < n; ++i) {
    lp.objective[i] =
        Rational(BigInt(sigma[i] > 0 ? set.mu(i) : -set.mu(i)));
    lp.add_bound(i, sigma[i] > 0 ? opt::Relation::kGe : opt::Relation::kLe,
                 Rational(0));
  }
}

}  // namespace

void for_each_branch(
    const model::UniformDependenceAlgorithm& algo, const MatZ& f_coeffs,
    SignMode sign_mode,
    const std::function<void(const opt::LinearProgram&)>& visit) {
  const model::IndexSet& set = algo.index_set();
  const std::size_t n = set.dimension();
  for (std::size_t row = 0; row < n; ++row) {
    for (int side : {+1, -1}) {
      if (sign_mode == SignMode::kPositive) {
        visit(build_branch(algo, f_coeffs, row, side));
        continue;
      }
      // Enumerate all 2^n sign orthants.
      std::vector<int> sigma(n, -1);
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
        for (std::size_t i = 0; i < n; ++i) {
          sigma[i] = (mask >> i) & 1 ? 1 : -1;
        }
        opt::LinearProgram lp = build_branch(algo, f_coeffs, row, side);
        // Drop the pi_i >= 1 bounds added by build_branch: orthant mode
        // re-derives signs.  They are the first n constraints.
        lp.constraints.erase(lp.constraints.begin(),
                             lp.constraints.begin() +
                                 static_cast<std::ptrdiff_t>(n));
        apply_orthant(lp, set, sigma);
        visit(lp);
      }
    }
  }
}

bool positive_orthant_forced(const MatI& d) {
  const std::size_t n = d.rows();
  const std::size_t m = d.cols();
  for (std::size_t i = 0; i < n; ++i) {
    bool unit = false;
    for (std::size_t c = 0; c < m && !unit; ++c) {
      unit = d(i, c) > 0;
      for (std::size_t r = 0; r < n && unit; ++r) {
        unit = r == i || d(r, c) == 0;
      }
    }
    if (unit) continue;
    // Is there lambda >= 0 with D lambda = e_i?
    opt::LinearProgram lp;
    lp.num_vars = m;
    lp.objective.assign(m, Rational(0));
    for (std::size_t r = 0; r < n; ++r) {
      VecQ row(m);
      for (std::size_t c = 0; c < m; ++c) row[c] = Rational(d(r, c));
      lp.add(std::move(row), opt::Relation::kEq, Rational(r == i ? 1 : 0));
    }
    for (std::size_t c = 0; c < m; ++c) {
      lp.add_bound(c, opt::Relation::kGe, Rational(0));
    }
    if (opt::solve_lp(lp).status != opt::LpStatus::kOptimal) return false;
  }
  return true;
}

std::optional<Int> branch_lower_bound(const opt::IlpSolution& sol) {
  BigInt bound;
  switch (sol.status) {
    case opt::IlpStatus::kOptimal:
      bound = sol.objective.to_integer();
      break;
    case opt::IlpStatus::kNodeLimit:
      // The unexplored subtrees are bounded by the root relaxation; f has
      // integer coefficients, so its ceiling is still a bound.  Without a
      // root solve (node_limit 0) only f >= 0 is known.
      bound = sol.root_objective ? sol.root_objective->ceil() : BigInt(0);
      break;
    case opt::IlpStatus::kInfeasible:
    case opt::IlpStatus::kUnbounded:  // cannot occur: f >= 0 on every branch
      return std::nullopt;
  }
  // f >= 0, so a bound beyond int64 exceeds every representable objective.
  if (!bound.fits_int64()) return std::nullopt;
  return bound.to_int64();
}

namespace {

// The integral point x as machine integers; nullopt when x is fractional or
// a coordinate does not fit int64 (such a point is not a candidate).
std::optional<VecI> machine_point(const VecZ& x) {
  VecI out;
  out.reserve(x.size());
  for (const BigInt& v : x) {
    if (!v.fits_int64()) return std::nullopt;
    out.push_back(v.to_int64());
  }
  return out;
}

std::optional<VecI> machine_point(const VecQ& x) {
  VecI out;
  out.reserve(x.size());
  for (const Rational& v : x) {
    if (!v.is_integer() || !v.num().fits_int64()) return std::nullopt;
    out.push_back(v.num().to_int64());
  }
  return out;
}

}  // namespace

IlpMappingResult solve_k_equals_n_minus_1(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    SignMode sign_mode) {
  const model::IndexSet& set = algo.index_set();
  const std::size_t n = set.dimension();
  if (space.rows() + 2 != n) {
    throw std::invalid_argument(
        "solve_k_equals_n_minus_1: S must be (n-2) x n");
  }
  MatZ f_coeffs = conflict_coefficients(space);

  IlpMappingResult result;
  bool have_lower = false;

  auto verify = [&](const VecI& pi) {
    mapping::MappingMatrix t(space, pi);
    schedule::LinearSchedule sched(pi);
    return sched.respects_dependences(algo.dependence_matrix()) &&
           t.has_full_rank() &&
           mapping::decide_conflict_free(t, set).conflict_free();
  };
  auto accept = [&](VecI pi, Int objective) {
    if (!result.found || objective < result.objective) {
      result.found = true;
      result.pi = std::move(pi);
      result.objective = objective;
    }
  };

  auto consider = [&](const opt::LinearProgram& lp) {
    opt::IntegerProgram ip{lp};
    opt::IlpSolution sol = opt::solve_ilp(ip);
    result.ilp_nodes += sol.nodes;
    // A branch without a bound is infeasible or cannot reach below any
    // representable objective: it cannot lower the minimum.
    const std::optional<Int> bound = branch_lower_bound(sol);
    if (!bound) return;
    if (!have_lower || *bound < result.lower_bound) {
      result.lower_bound = *bound;
      have_lower = true;
    }
    // The optimum (or a truncated search's incumbent) is a candidate when
    // it exists and fits int64.
    if (sol.x.empty()) return;
    const BigInt big_objective = sol.objective.to_integer();
    std::optional<VecI> pi = machine_point(sol.x);
    if (!pi || !big_objective.fits_int64()) return;
    const Int objective = big_objective.to_int64();
    // Verify: the branch constraint used the unscaled gamma(Pi); the true
    // conflict vector is its primitive form (appendix gcd caveat).
    if (verify(*pi)) {
      accept(std::move(*pi), objective);
      return;
    }
    if (std::find(result.rejected.begin(), result.rejected.end(), *pi) ==
        result.rejected.end()) {
      result.rejected.push_back(std::move(*pi));
    }
    // Appendix fallback: alternative optima of the branch usually sit at
    // other extreme points ("Pi_1 is not feasible ... Pi_2 is"); enumerate
    // the branch's integral vertices in objective order and verify.
    struct Candidate {
      VecI pi;
      Int objective;
    };
    std::vector<Candidate> candidates;
    for (const VecQ& vertex : opt::enumerate_vertices(lp)) {
      std::optional<VecI> vpi = machine_point(vertex);
      if (!vpi) continue;
      Int vobj = 0;
      try {
        vobj = schedule::LinearSchedule(*vpi).objective(set);
      } catch (const exact::OverflowError&) {
        continue;  // f beyond int64: not a candidate
      }
      candidates.push_back({std::move(*vpi), vobj});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.objective < b.objective ||
                       (a.objective == b.objective && a.pi < b.pi);
              });
    for (auto& c : candidates) {
      if (result.found && c.objective >= result.objective) break;
      if (verify(c.pi)) {
        accept(std::move(c.pi), c.objective);
        break;
      }
    }
  };

  for_each_branch(algo, f_coeffs, sign_mode, consider);
  return result;
}

}  // namespace sysmap::search
