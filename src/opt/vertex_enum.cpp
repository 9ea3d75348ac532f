#include "opt/vertex_enum.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "exact/contracts.hpp"
#include "exact/fastpath.hpp"
#include "obs/obs.hpp"
#include "opt/simplex_impl.hpp"

namespace sysmap::opt {

using exact::Rational;

namespace {

template <typename P, typename Q>
bool satisfies(const P& lp, const std::vector<Q>& x) {
  for (const auto& c : lp.constraints) {
    Q lhs(0);
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      if (!c.coeffs[j].is_zero() && !x[j].is_zero()) lhs += c.coeffs[j] * x[j];
    }
    switch (c.rel) {
      case Relation::kLe:
        if (lhs > c.rhs) return false;
        break;
      case Relation::kGe:
        if (lhs < c.rhs) return false;
        break;
      case Relation::kEq:
        if (!(lhs == c.rhs)) return false;
        break;
    }
  }
  return true;
}

// Solves the n x n system held in the augmented rows [A | b] of `m` by one
// Gauss-Jordan pass (first nonzero pivot per column); nullopt when A is
// singular.  The solution of a nonsingular system is unique, so this is
// the same point rank(A) == n followed by inverse(A) * b would give.
template <typename Q>
std::optional<std::vector<Q>> solve_square(std::vector<std::vector<Q>>& m) {
  const std::size_t n = m.size();
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t pivot = c;
    while (pivot < n && m[pivot][c].is_zero()) ++pivot;
    if (pivot == n) return std::nullopt;
    if (pivot != c) std::swap(m[pivot], m[c]);
    std::vector<Q>& prow = m[c];
    const Q p = prow[c];
    for (std::size_t j = c; j <= n; ++j) {
      if (!prow[j].is_zero()) prow[j] /= p;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i == c || m[i][c].is_zero()) continue;
      const Q f = m[i][c];
      for (std::size_t j = c; j <= n; ++j) {
        if (!prow[j].is_zero()) m[i][j] -= f * prow[j];
      }
    }
  }
  std::vector<Q> x;
  x.reserve(n);
  for (std::size_t i = 0; i < n; ++i) x.push_back(std::move(m[i][n]));
  return x;
}

template <typename Q>
struct VerticesOf {
  std::vector<std::vector<Q>> vertices;
  std::uint64_t active_sets = 0;  // n-subsets decided
};

template <typename P>
VerticesOf<detail::ScalarOf<P>> enumerate_vertices_t(const P& lp) {
  using Q = detail::ScalarOf<P>;
  const std::size_t n = lp.num_vars;
  const std::size_t m = lp.constraints.size();
  VerticesOf<Q> out;
  if (m < n) return out;

  // Equality rows are always part of the active set.
  std::vector<std::size_t> eq_rows;
  std::vector<std::size_t> ineq_rows;
  for (std::size_t i = 0; i < m; ++i) {
    if (lp.constraints[i].rel == Relation::kEq) {
      eq_rows.push_back(i);
    } else {
      ineq_rows.push_back(i);
    }
  }
  if (eq_rows.size() > n) return out;
  const std::size_t need = n - eq_rows.size();
  if (ineq_rows.size() < need) return out;

  std::vector<std::size_t> idx(need);
  for (std::size_t i = 0; i < need; ++i) idx[i] = i;
  std::vector<std::vector<Q>> system(n, std::vector<Q>(n + 1));
  for (;;) {
    // Build and solve the active equality system [A | b].
    std::size_t row = 0;
    auto load = [&](std::size_t e) {
      const auto& c = lp.constraints[e];
      for (std::size_t j = 0; j < n; ++j) system[row][j] = c.coeffs[j];
      system[row][n] = c.rhs;
      ++row;
    };
    for (std::size_t e : eq_rows) load(e);
    for (std::size_t t = 0; t < need; ++t) load(ineq_rows[idx[t]]);
    ++out.active_sets;
    std::optional<std::vector<Q>> x = solve_square(system);
    if (x && satisfies(lp, *x) &&
        std::find(out.vertices.begin(), out.vertices.end(), *x) ==
            out.vertices.end()) {
      out.vertices.push_back(std::move(*x));
    }
    // Next combination of inequality rows.
    if (need == 0) break;
    std::size_t i = need;
    bool done = false;
    while (i-- > 0) {
      if (idx[i] + (need - i) < ineq_rows.size()) {
        ++idx[i];
        for (std::size_t j = i + 1; j < need; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) done = true;
    }
    if (done) break;
  }
  return out;
}

template <typename Q>
std::vector<VecQ> publish(const VerticesOf<Q>& r) {
  std::vector<VecQ> out;
  out.reserve(r.vertices.size());
  for (const auto& v : r.vertices) out.push_back(detail::to_vecq(v));
  return out;
}

}  // namespace

std::vector<VecQ> enumerate_vertices(const LinearProgram& lp) {
  std::uint64_t active_sets = 0;
  std::vector<VecQ> out = exact::with_fallback(
      [&] {
        const auto fast = enumerate_vertices_t(detail::to_checked(lp));
        active_sets = fast.active_sets;
        std::vector<VecQ> published = publish(fast);
#if SYSMAP_CONTRACTS_ACTIVE
        // Same subsets in the same order on both substrates: the Rational
        // re-run must list the same vertices in the same order.
        SYSMAP_CONTRACT(published == publish(enumerate_vertices_t(lp)),
                        "CheckedRational vertex enumeration diverges from "
                        "the Rational re-run");
#endif
        return published;
      },
      [&] {
        const auto exact_run = enumerate_vertices_t(lp);
        active_sets = exact_run.active_sets;
        return publish(exact_run);
      });
  SYSMAP_COUNT("opt.vertex_enum.active_sets", active_sets);
  return out;
}

std::optional<VecQ> best_vertex(const LinearProgram& lp,
                                bool require_integral) {
  std::vector<VecQ> vertices = enumerate_vertices(lp);
  std::optional<VecQ> best;
  Rational best_obj(0);
  for (auto& v : vertices) {
    if (require_integral) {
      bool integral = true;
      for (const auto& x : v) {
        if (!x.is_integer()) {
          integral = false;
          break;
        }
      }
      if (!integral) continue;
    }
    Rational obj(0);
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      obj += lp.objective[j] * v[j];
    }
    if (!best || obj < best_obj) {
      best = std::move(v);
      best_obj = std::move(obj);
    }
  }
  return best;
}

}  // namespace sysmap::opt
