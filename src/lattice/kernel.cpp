#include "lattice/kernel.hpp"

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "exact/checked.hpp"
#include "exact/contracts.hpp"
#include "lattice/hnf.hpp"
#include "linalg/ops.hpp"

namespace sysmap::lattice {

using exact::BigInt;

BigInt gcd_of(const VecZ& v) { return gcd_of_t(v); }

Int gcd_of(const VecI& v) {
  Int g = 0;
  for (Int x : v) g = exact::gcd_i64(g, x);
  return g;
}

bool is_primitive(const VecZ& v) { return gcd_of(v).is_one(); }
bool is_primitive(const VecI& v) { return gcd_of(v) == 1; }

VecZ make_primitive(VecZ v) {
  VecZ out = make_primitive_t(std::move(v));
  SYSMAP_CONTRACT(gcd_of(out).is_zero() || gcd_of(out).is_one(),
                  "make_primitive returned a non-primitive vector");
  return out;
}

VecI make_primitive(VecI v) {
  Int g = gcd_of(v);
  if (g == 0) return v;
  if (g != 1) {
    for (auto& x : v) x /= g;
  }
  for (Int x : v) {
    if (x == 0) continue;
    if (x < 0) {
      for (auto& y : v) y = exact::neg_checked(y);
    }
    break;
  }
  SYSMAP_CONTRACT(gcd_of(v) == 1,
                  "make_primitive returned gcd " << gcd_of(v));
  return v;
}

MatZ kernel_basis(const MatZ& t) {
  const std::size_t k = t.rows();
  const std::size_t n = t.cols();
  HnfResult hnf = hermite_normal_form(t);  // throws if rank < k
  return hnf.u.block(0, n, k, n);
}

MatZ kernel_basis(const MatI& t) {
  // The MatI HNF overload carries the machine-word fast path.
  const std::size_t k = t.rows();
  const std::size_t n = t.cols();
  HnfResult hnf = hermite_normal_form(t);  // throws if rank < k
  return hnf.u.block(0, n, k, n);
}

bool lattice_contains(const MatZ& basis, const VecZ& x) {
  const std::size_t n = basis.rows();
  const std::size_t r = basis.cols();
  if (x.size() != n) {
    throw std::invalid_argument("lattice_contains: dimension mismatch");
  }
  if (r == 0) return linalg::is_zero_vector(x);
  // Solve basis * c = x exactly over the rationals, then check integrality
  // and residual.  basis^T * basis is nonsingular when columns are
  // independent; fall back to an HNF-based triangular solve instead to stay
  // purely integral: decompose basis^T (r x n) as [L, 0] * V-ops... The
  // rational least-squares route is simpler and exact:
  MatQ bq = basis.cast<exact::Rational>();
  MatQ bt = bq.transpose();
  MatQ gram = bt * bq;
  VecQ xq;
  xq.reserve(n);
  for (const auto& e : x) xq.emplace_back(e);
  VecQ rhs = bt * xq;
  VecQ c;
  try {
    c = linalg::solve(gram, rhs);
  } catch (const std::domain_error&) {
    return false;  // dependent columns; treat as non-member conservatively
  }
  for (const auto& ci : c) {
    if (!ci.is_integer()) return false;
  }
  // Verify the residual (least-squares solution may not satisfy basis*c=x
  // when x is outside the column span).
  VecQ back = bq * c;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(back[i] == xq[i])) return false;
  }
  return true;
}

}  // namespace sysmap::lattice
