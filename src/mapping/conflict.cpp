#include "mapping/conflict.hpp"

#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>

#include "exact/bigint.hpp"
#include "exact/contracts.hpp"
#include "exact/fastpath.hpp"
#include "lattice/hnf.hpp"
#include "lattice/kernel.hpp"
#include "lattice/lll.hpp"
#include "linalg/ops.hpp"
#include "mapping/theorems.hpp"
#include "mapping/verdicts_impl.hpp"

namespace sysmap::mapping {

using exact::BigInt;
using exact::CheckedInt;

bool is_feasible_conflict_vector(const VecZ& gamma,
                                 const model::IndexSet& set) {
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    if (gamma[i].abs() > BigInt(set.mu(i))) return true;
  }
  return false;
}

bool is_feasible_conflict_vector(const VecI& gamma,
                                 const model::IndexSet& set) {
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    // Two-sided compare instead of |gamma_i|: negating gamma_i would
    // overflow on INT64_MIN, while -mu_i is always representable (mu_i >= 1).
    if (gamma[i] > set.mu(i) || gamma[i] < -set.mu(i)) return true;
  }
  return false;
}

VecZ unique_conflict_vector(const MappingMatrix& t) {
  VecZ gamma = exact::with_fallback(
      [&] {
        return to_bigint(detail::unique_conflict_vector_t<CheckedInt>(t));
      },
      [&] { return detail::unique_conflict_vector_t<BigInt>(t); });
#if SYSMAP_CONTRACTS_ACTIVE
  // Theorem 3.1 postconditions: gamma spans null(T) and is primitive.
  VecZ image = to_bigint(t.matrix()) * gamma;
  for (std::size_t r = 0; r < image.size(); ++r) {
    SYSMAP_CONTRACT(image[r].is_zero(),
                    "T*gamma nonzero in row " << r << " for the returned "
                                                 "conflict vector");
  }
  SYSMAP_CONTRACT(lattice::gcd_of(gamma).is_one(),
                  "returned conflict vector is not primitive");
#endif
  return gamma;
}

ConflictVerdict decide_conflict_free_exact(const MappingMatrix& t,
                                           const model::IndexSet& set,
                                           std::uint64_t budget) {
  ConflictVerdict verdict = exact::with_fallback(
      [&] {
        return detail::decide_conflict_free_exact_t<CheckedInt>(t, set,
                                                                budget);
      },
      [&] {
        return detail::decide_conflict_free_exact_t<BigInt>(t, set, budget);
      });
#if SYSMAP_CONTRACTS_ACTIVE
  // A conflict witness must be a genuine non-feasible conflict vector:
  // in null(T), nonzero, and confined to the index-set difference box.
  if (verdict.status == ConflictVerdict::Status::kHasConflict &&
      verdict.witness.has_value()) {
    VecZ image = to_bigint(t.matrix()) * (*verdict.witness);
    for (std::size_t r = 0; r < image.size(); ++r) {
      SYSMAP_CONTRACT(image[r].is_zero(),
                      "conflict witness not in null(T), row " << r);
    }
    bool nonzero = false;
    for (const auto& g : *verdict.witness) nonzero = nonzero || !g.is_zero();
    SYSMAP_CONTRACT(nonzero, "conflict witness is the zero vector");
    SYSMAP_CONTRACT(!is_feasible_conflict_vector(*verdict.witness, set),
                    "conflict witness escapes the index-set box");
  }
#endif
  return verdict;
}

ConflictVerdict decide_conflict_free_over_basis(const MatZ& kernel,
                                                const model::IndexSet& set,
                                                std::uint64_t budget) {
  return exact::with_fallback(
      [&] {
        // to_checked throws OverflowError on entries outside int64, which
        // lands in the BigInt restart below.
        return detail::decide_conflict_free_over_basis_t(to_checked(kernel),
                                                         set, budget);
      },
      [&] {
        return detail::decide_conflict_free_over_basis_t(kernel, set,
                                                         budget);
      });
}

ConflictVectorSurvey enumerate_nonfeasible_conflict_vectors(
    const MappingMatrix& t, const model::IndexSet& set,
    std::size_t max_results, std::uint64_t budget) {
  const std::size_t n = t.n();
  const std::size_t k = t.k();
  ConflictVectorSurvey out;
  if (k >= n) return out;  // square full-rank T has no conflict vectors

  lattice::HnfResult hnf = lattice::hermite_normal_form(t.matrix());
  const std::size_t free_dims = n - k;
  VecZ bound(free_dims);
  std::uint64_t volume = 1;
  for (std::size_t j = 0; j < free_dims; ++j) {
    BigInt b(0);
    for (std::size_t c = 0; c < n; ++c) {
      b += hnf.v(k + j, c).abs() * BigInt(set.mu(c));
    }
    bound[j] = b;
    BigInt width = BigInt(2) * b + BigInt(1);
    if (!width.fits_int64()) {
      out.truncated = true;  // coefficient box beyond int64: nothing swept
      return out;
    }
    std::uint64_t w = static_cast<std::uint64_t>(width.to_int64());
    if (volume > budget / w) {
      out.truncated = true;  // enumeration volume over budget
      return out;
    }
    volume *= w;
  }

  std::set<VecZ> seen;
  VecZ beta(free_dims);
  for (std::size_t j = 0; j < free_dims; ++j) beta[j] = -bound[j];
  VecZ gamma(n);
  for (;;) {
    bool nonzero = false;
    for (const auto& b : beta) {
      if (!b.is_zero()) {
        nonzero = true;
        break;
      }
    }
    if (nonzero) {
      bool inside = true;
      for (std::size_t r = 0; r < n && inside; ++r) {
        BigInt g(0);
        for (std::size_t j = 0; j < free_dims; ++j) {
          g += hnf.u(r, k + j) * beta[j];
        }
        gamma[r] = g;
        if (g.abs() > BigInt(set.mu(r))) inside = false;
      }
      if (inside) {
        VecZ canonical = lattice::make_primitive(gamma);
        // make_primitive can scale the vector back outside the box only
        // downward; it stays non-feasible.
        if (seen.insert(canonical).second) {
          out.vectors.push_back(std::move(canonical));
          if (out.vectors.size() >= max_results) {
            out.truncated = true;  // cap hit before the sweep finished
            return out;
          }
        }
      }
    }
    std::size_t j = 0;
    for (; j < free_dims; ++j) {
      if (beta[j] < bound[j]) {
        beta[j] += BigInt(1);
        break;
      }
      beta[j] = -bound[j];
    }
    if (j == free_dims) break;
  }
  return out;
}

ConflictVerdict decide_conflict_free_polyhedral(
    const MappingMatrix& t, const model::PolyhedralIndexSet& set,
    std::uint64_t budget) {
  using exact::Rational;
  const std::size_t n = t.n();
  const std::size_t k = t.k();
  if (set.dimension() != n) {
    throw std::invalid_argument(
        "decide_conflict_free_polyhedral: dimension mismatch");
  }
  ConflictVerdict out;
  if (k == n) {
    out.status = t.has_full_rank() ? ConflictVerdict::Status::kConflictFree
                                   : ConflictVerdict::Status::kHasConflict;
    out.rule = "square T: rank test";
    return out;
  }
  std::optional<std::pair<VecI, VecI>> box = set.bounding_box();
  if (!box) {
    out.status = ConflictVerdict::Status::kConflictFree;
    out.rule = "polyhedral: empty index set";
    return out;
  }
  // Any non-feasible gamma is a difference of two points of J, so
  // |gamma_c| <= hi_c - lo_c; bound beta via the reduced-basis
  // pseudo-inverse as in decide_conflict_free_over_basis.
  const auto& [lo, hi] = *box;
  VecI width(n);
  for (std::size_t c = 0; c < n; ++c) width[c] = hi[c] - lo[c];

  lattice::HnfResult hnf = lattice::hermite_normal_form(t.matrix());
  MatZ kernel = hnf.u.block(0, n, k, n);
  try {
    kernel = lattice::lll_reduce(kernel).basis;
  } catch (const std::invalid_argument&) {
    // keep unreduced basis
  }
  const std::size_t r = kernel.cols();
  MatQ bq = kernel.cast<Rational>();
  MatQ bt = bq.transpose();
  MatQ pinv = linalg::inverse(bt * bq) * bt;
  VecZ bound(r);
  std::uint64_t volume = 1;
  bool overflow = false;
  for (std::size_t j = 0; j < r; ++j) {
    Rational b(0);
    for (std::size_t c = 0; c < n; ++c) {
      b += pinv(j, c).abs() * Rational(BigInt(width[c]));
    }
    bound[j] = b.floor();
    BigInt w = BigInt(2) * bound[j] + BigInt(1);
    if (!w.fits_int64() || overflow) {
      overflow = true;
      continue;
    }
    std::uint64_t wv = static_cast<std::uint64_t>(w.to_int64());
    if (volume > budget / wv) {
      overflow = true;
    } else {
      volume *= wv;
    }
  }
  if (overflow || volume > budget) {
    out.status = ConflictVerdict::Status::kUnknown;
    out.rule = "polyhedral: candidate budget exceeded";
    return out;
  }

  // Odometer over beta; screen by the difference box, then the ILP test.
  VecZ beta(r);
  for (std::size_t j = 0; j < r; ++j) beta[j] = -bound[j];
  VecZ gamma(n);
  for (;;) {
    bool nonzero = false;
    for (const auto& b : beta) {
      if (!b.is_zero()) {
        nonzero = true;
        break;
      }
    }
    if (nonzero) {
      bool inside = true;
      for (std::size_t c = 0; c < n && inside; ++c) {
        BigInt g(0);
        for (std::size_t j = 0; j < r; ++j) g += kernel(c, j) * beta[j];
        gamma[c] = g;
        if (g.abs() > BigInt(width[c])) inside = false;
      }
      if (inside &&
          !model::is_feasible_conflict_vector_polyhedral(gamma, set)) {
        out.status = ConflictVerdict::Status::kHasConflict;
        out.witness = lattice::make_primitive(gamma);
        out.rule = "polyhedral: ILP-confirmed non-feasible kernel vector";
        return out;
      }
    }
    std::size_t j = 0;
    for (; j < r; ++j) {
      if (beta[j] < bound[j]) {
        beta[j] += BigInt(1);
        break;
      }
      beta[j] = -bound[j];
    }
    if (j == r) break;
  }
  out.status = ConflictVerdict::Status::kConflictFree;
  out.rule = "polyhedral: all kernel candidates ILP-feasible";
  return out;
}

ConflictVerdict decide_conflict_free(const MappingMatrix& t,
                                     const model::IndexSet& set) {
  return exact::with_fallback(
      [&] { return detail::decide_conflict_free_t<CheckedInt>(t, set); },
      [&] { return detail::decide_conflict_free_t<BigInt>(t, set); });
}

}  // namespace sysmap::mapping
