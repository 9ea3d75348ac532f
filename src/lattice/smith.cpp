#include "lattice/smith.hpp"

#include <cstddef>
#include <utility>

#include "exact/bigint.hpp"
#include "exact/contracts.hpp"

namespace sysmap::lattice {

using exact::BigInt;

namespace {

struct Work {
  MatZ s, u, v;

  void row_add(std::size_t dst, const BigInt& q, std::size_t src) {
    if (q.is_zero()) return;
    for (std::size_t c = 0; c < s.cols(); ++c) s(dst, c) += q * s(src, c);
    for (std::size_t c = 0; c < u.cols(); ++c) u(dst, c) += q * u(src, c);
  }
  void col_add(std::size_t dst, const BigInt& q, std::size_t src) {
    if (q.is_zero()) return;
    for (std::size_t r = 0; r < s.rows(); ++r) s(r, dst) += q * s(r, src);
    for (std::size_t r = 0; r < v.rows(); ++r) v(r, dst) += q * v(r, src);
  }
  void row_swap(std::size_t a, std::size_t b) {
    if (a == b) return;
    s.swap_rows(a, b);
    u.swap_rows(a, b);
  }
  void col_swap(std::size_t a, std::size_t b) {
    if (a == b) return;
    s.swap_columns(a, b);
    v.swap_columns(a, b);
  }
  void row_negate(std::size_t a) {
    for (std::size_t c = 0; c < s.cols(); ++c) s(a, c) = -s(a, c);
    for (std::size_t c = 0; c < u.cols(); ++c) u(a, c) = -u(a, c);
  }
};

// Returns the position of the nonzero entry with smallest magnitude in the
// trailing block starting at (t, t), or {rows, cols} if the block is zero.
std::pair<std::size_t, std::size_t> smallest_pivot(const MatZ& s,
                                                   std::size_t t) {
  std::pair<std::size_t, std::size_t> best{s.rows(), s.cols()};
  for (std::size_t i = t; i < s.rows(); ++i) {
    for (std::size_t j = t; j < s.cols(); ++j) {
      if (s(i, j).is_zero()) continue;
      if (best.first == s.rows() ||
          s(i, j).abs() < s(best.first, best.second).abs()) {
        best = {i, j};
      }
    }
  }
  return best;
}

}  // namespace

SmithResult smith_normal_form(const MatZ& a) {
  Work w{a, MatZ::identity(a.rows()), MatZ::identity(a.cols())};
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  const std::size_t rmax = rows < cols ? rows : cols;

  for (std::size_t t = 0; t < rmax; ++t) {
    for (;;) {
      auto [pi, pj] = smallest_pivot(w.s, t);
      if (pi == rows) goto done;  // trailing block is zero
      w.row_swap(pi, t);
      w.col_swap(pj, t);
      // Reduce the pivot row and column by the pivot.
      bool dirty = false;
      for (std::size_t i = t + 1; i < rows; ++i) {
        if (w.s(i, t).is_zero()) continue;
        BigInt q = BigInt::floor_div(w.s(i, t), w.s(t, t));
        w.row_add(i, -q, t);
        if (!w.s(i, t).is_zero()) dirty = true;
      }
      for (std::size_t j = t + 1; j < cols; ++j) {
        if (w.s(t, j).is_zero()) continue;
        BigInt q = BigInt::floor_div(w.s(t, j), w.s(t, t));
        w.col_add(j, -q, t);
        if (!w.s(t, j).is_zero()) dirty = true;
      }
      if (dirty) continue;  // smaller remainders appeared; pick new pivot
      // Pivot divides its row and column; enforce divisibility of the rest
      // of the block (d_t | every trailing entry).
      std::size_t bad_i = rows, bad_j = cols;
      for (std::size_t i = t + 1; i < rows && bad_i == rows; ++i) {
        for (std::size_t j = t + 1; j < cols; ++j) {
          BigInt r = w.s(i, j) % w.s(t, t);
          if (!r.is_zero()) {
            bad_i = i;
            bad_j = j;
            break;
          }
        }
      }
      if (bad_i == rows) break;  // block entry divisibility holds
      // Classic trick: add the offending row to row t, creating a smaller
      // remainder to pivot on.
      w.row_add(t, BigInt(1), bad_i);
      (void)bad_j;
    }
    if (w.s(t, t).is_negative()) w.row_negate(t);
  }
done:
#if SYSMAP_CONTRACTS_ACTIVE
  // Smith postconditions: U·A·V = S, S diagonal with d_i | d_{i+1}.
  SYSMAP_CONTRACT(w.u * a * w.v == w.s, "U*A*V differs from the returned S");
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      SYSMAP_CONTRACT(i == j || w.s(i, j).is_zero(),
                      "S not diagonal at (" << i << "," << j << ")");
    }
  }
  for (std::size_t i = 0; i + 1 < rmax; ++i) {
    SYSMAP_CONTRACT(w.s(i + 1, i + 1).is_zero() ||
                        (!w.s(i, i).is_zero() &&
                         (w.s(i + 1, i + 1) % w.s(i, i)).is_zero()),
                    "invariant factor d_" << i << " does not divide d_"
                                          << (i + 1));
  }
#endif
  return {std::move(w.s), std::move(w.u), std::move(w.v)};
}

SmithResult smith_normal_form(const MatI& a) {
  return smith_normal_form(to_bigint(a));
}

VecZ invariant_factors(const MatZ& a) {
  SmithResult r = smith_normal_form(a);
  VecZ out;
  const std::size_t rmax = a.rows() < a.cols() ? a.rows() : a.cols();
  for (std::size_t i = 0; i < rmax; ++i) {
    if (!r.s(i, i).is_zero()) out.push_back(r.s(i, i));
  }
  return out;
}

}  // namespace sysmap::lattice
