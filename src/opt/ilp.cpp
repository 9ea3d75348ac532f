#include "opt/ilp.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "exact/contracts.hpp"
#include "exact/fastpath.hpp"
#include "obs/obs.hpp"
#include "opt/simplex_impl.hpp"

namespace sysmap::opt {

using exact::Rational;

namespace {

// Returns the first non-integral coordinate, or nullopt if x is integral.
template <typename Q>
std::optional<std::size_t> first_fractional(const std::vector<Q>& x) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!x[i].is_integer()) return i;
  }
  return std::nullopt;
}

// Result of the template branch and bound over Q.
template <typename Q>
struct IlpResultOf {
  IlpStatus status = IlpStatus::kInfeasible;
  std::vector<Q> x;  // integral entries
  Q objective;
  std::optional<Q> root_objective;
  std::uint64_t nodes = 0;
  std::uint64_t pivots = 0;  // summed over every node's simplex
};

// Depth-first branch and bound; every node's LP runs on the program's own
// substrate, so one dispatch covers the whole tree.
template <typename P>
IlpResultOf<detail::ScalarOf<P>> solve_ilp_t(const P& root,
                                             std::uint64_t node_limit) {
  using Q = detail::ScalarOf<P>;
  IlpResultOf<Q> best;
  std::vector<P> stack{root};
  bool truncated = false;

  while (!stack.empty()) {
    if (best.nodes >= node_limit) {
      truncated = true;
      break;
    }
    ++best.nodes;
    P node = std::move(stack.back());
    stack.pop_back();

    detail::LpResultOf<Q> relax = detail::solve_lp_t(node);
    best.pivots += relax.pivots;
    if (relax.status == LpStatus::kUnbounded) {
      if (best.nodes == 1) {  // root relaxation
        best.status = IlpStatus::kUnbounded;
        return best;
      }
      // A bounded-objective parent cannot spawn an unbounded child with
      // added constraints; defensive fallthrough treats it as infeasible.
      continue;
    }
    if (relax.status == LpStatus::kInfeasible) continue;
    if (best.nodes == 1) best.root_objective = relax.objective;
    // Bound pruning: relaxation is a lower bound for this subtree.
    if (best.status == IlpStatus::kOptimal &&
        !(relax.objective < best.objective)) {
      continue;
    }
    std::optional<std::size_t> frac = first_fractional(relax.x);
    if (!frac) {
      // Integral: candidate incumbent.
      if (best.status != IlpStatus::kOptimal ||
          relax.objective < best.objective) {
        best.status = IlpStatus::kOptimal;
        best.objective = std::move(relax.objective);
        best.x = std::move(relax.x);
      }
      continue;
    }
    // Branch: x_i <= floor(v)  |  x_i >= ceil(v).
    const std::size_t var = *frac;
    const Q fl(relax.x[var].floor());
    P down = node;
    down.add_bound(var, Relation::kLe, fl);
    P up = std::move(node);
    up.add_bound(var, Relation::kGe, fl + Q(1));
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }

  // Truncated: keep the incumbent, if any, but flag the truncation.
  if (truncated) best.status = IlpStatus::kNodeLimit;
  return best;
}

template <typename Q>
IlpSolution publish(const IlpResultOf<Q>& r) {
  IlpSolution out;
  out.status = r.status;
  out.x.reserve(r.x.size());
  for (const Q& v : r.x) out.x.push_back(exact::to_rational(v).to_integer());
  out.objective = exact::to_rational(r.objective);
  if (r.root_objective) out.root_objective = exact::to_rational(*r.root_objective);
  out.nodes = r.nodes;
  return out;
}

}  // namespace

IlpSolution solve_ilp(const IntegerProgram& ip, std::uint64_t node_limit) {
  std::uint64_t pivots = 0;
  IlpSolution out = exact::with_fallback(
      [&] {
        const auto fast =
            solve_ilp_t(detail::to_checked(ip.relaxation), node_limit);
        pivots = fast.pivots;
        IlpSolution published = publish(fast);
#if SYSMAP_CONTRACTS_ACTIVE
        // Every node LP of the tree is re-solved on Rational: same tree,
        // same nodes, same pivots, same answer.
        const auto exact_run = solve_ilp_t(ip.relaxation, node_limit);
        SYSMAP_CONTRACT(published == publish(exact_run) &&
                            fast.pivots == exact_run.pivots,
                        "CheckedRational branch and bound diverges from the "
                        "Rational re-solve");
#endif
        return published;
      },
      [&] {
        const auto exact_run = solve_ilp_t(ip.relaxation, node_limit);
        pivots = exact_run.pivots;
        return publish(exact_run);
      });
  SYSMAP_COUNT("opt.ilp.nodes", out.nodes);
  SYSMAP_COUNT("opt.lp.solves", out.nodes);
  SYSMAP_COUNT("opt.lp.pivots", pivots);
  return out;
}

}  // namespace sysmap::opt
