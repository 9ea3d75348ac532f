#include "opt/simplex.hpp"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "exact/contracts.hpp"
#include "exact/fastpath.hpp"
#include "obs/obs.hpp"
#include "opt/simplex_impl.hpp"

namespace sysmap::opt {

using exact::CheckedRational;
using exact::Rational;

void LinearProgram::add(VecQ coeffs, Relation rel, Rational rhs) {
  if (coeffs.size() != num_vars) {
    throw std::invalid_argument("LinearProgram::add: coefficient width");
  }
  constraints.push_back({std::move(coeffs), rel, std::move(rhs)});
}

void LinearProgram::add_bound(std::size_t var, Relation rel, Rational value) {
  VecQ coeffs(num_vars, Rational(0));
  coeffs.at(var) = Rational(1);
  add(std::move(coeffs), rel, std::move(value));
}

LpSolution solve_lp(const LinearProgram& lp) {
  std::uint64_t pivots = 0;
  LpSolution out = exact::with_fallback(
      [&] {
        const auto fast = detail::solve_lp_t(detail::to_checked(lp));
        pivots = fast.pivots;
        LpSolution published = detail::to_solution(fast);
#if SYSMAP_CONTRACTS_ACTIVE
        // Same pivot sequence on both substrates: the Rational re-solve
        // must agree field for field, pivot count included.
        const auto exact_run = detail::solve_lp_t(lp);
        SYSMAP_CONTRACT(published == detail::to_solution(exact_run) &&
                            fast.pivots == exact_run.pivots,
                        "CheckedRational simplex diverges from the Rational "
                        "re-solve");
#endif
        return published;
      },
      [&] {
        const auto exact_run = detail::solve_lp_t(lp);
        pivots = exact_run.pivots;
        return detail::to_solution(exact_run);
      });
  SYSMAP_COUNT("opt.lp.solves", 1);
  SYSMAP_COUNT("opt.lp.pivots", pivots);
  return out;
}

}  // namespace sysmap::opt
