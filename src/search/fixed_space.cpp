#include "search/fixed_space.hpp"

#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exact/contracts.hpp"
#include "mapping/enum_oracle.hpp"
#include "exact/bigint.hpp"
#include "exact/checked_int.hpp"
#include "exact/fastpath.hpp"
#include "lattice/hnf_impl.hpp"
#include "lattice/kernel.hpp"
#include "linalg/ops.hpp"
#include "mapping/mapping_matrix.hpp"
#include "mapping/verdicts_impl.hpp"
#include "obs/obs.hpp"

namespace sysmap::search {

using exact::BigInt;
using exact::CheckedInt;
using mapping::ConflictVerdict;

namespace {

template <typename T>
linalg::Vector<T> lift_vec(const VecI& v) {
  linalg::Vector<T> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = T(v[i]);
  return out;
}

/// The raw Theorem 3.1 cross product via the Proposition 3.2 closed form:
/// cross([S; pi]) = C pi, entry-identical to the seed's minor expansion by
/// multilinearity of the determinant in the schedule row.
template <typename T>
linalg::Vector<T> cross_from_cofactor(const linalg::Matrix<T>& cof,
                                      const VecI& pi) {
  const std::size_t n = cof.rows();
  linalg::Vector<T> gamma(n, T(0));
  for (std::size_t r = 0; r < n; ++r) {
    T acc(0);
    for (std::size_t c = 0; c < n; ++c) {
      if (pi[c] == 0) continue;
      acc += cof(r, c) * T(pi[c]);
    }
    gamma[r] = std::move(acc);
  }
  bool all_zero = true;
  for (const T& g : gamma) {
    if (!g.is_zero()) {
      all_zero = false;
      break;
    }
  }
  if (all_zero) {
    // Same throw as the seed's unique_conflict_vector_t on rank(T) < n-1.
    throw std::domain_error("unique_conflict_vector: rank(T) < n-1");
  }
  return lattice::make_primitive_t(std::move(gamma));
}

enum class Thm31Screen {
  kRankDeficient,  ///< gamma = C pi = 0, i.e. rank([S; pi]) < n-1
  kConflict,       ///< unique conflict vector is feasible-free... rejected
  kFeasible,       ///< conflict vector escapes the index-set box: accept
};

/// Allocation-frugal Theorem 3.1 screen on the RAW cross product
/// gamma = C pi: with g = gcd_i |gamma_i| > 0 the seed's primitive-vector
/// test  (exists i: |gamma_i / g| > mu_i)  is equivalent to
/// (exists i: |gamma_i| > mu_i * g), so the division, sign
/// canonicalization and vector copy of make_primitive are skipped.
/// `gamma` is caller-provided scratch (thread_local on the CheckedInt
/// path); entries are fully overwritten.
template <typename T>
Thm31Screen theorem_3_1_screen(const linalg::Matrix<T>& cof, const VecI& pi,
                               const model::IndexSet& set,
                               linalg::Vector<T>& gamma) {
  const std::size_t n = cof.rows();
  gamma.resize(n);
  bool all_zero = true;
  for (std::size_t r = 0; r < n; ++r) {
    T acc(0);
    for (std::size_t c = 0; c < n; ++c) {
      if (pi[c] == 0) continue;
      acc += cof(r, c) * T(pi[c]);
    }
    if (!acc.is_zero()) all_zero = false;
    gamma[r] = std::move(acc);
  }
  if (all_zero) return Thm31Screen::kRankDeficient;
  T g{};
  for (const T& x : gamma) g = T::gcd(g, x);
  for (std::size_t i = 0; i < n; ++i) {
    if (gamma[i].abs() > T(set.mu(i)) * g) return Thm31Screen::kFeasible;
  }
  return Thm31Screen::kConflict;
}

/// Width bound for the stack-buffer raw screen; gallery dimensions are
/// n <= 5, anything wider takes the CheckedInt/BigInt template path.
constexpr std::size_t kRawScreenMaxN = 16;

/// theorem_3_1_screen on raw machine words: no scalar-wrapper call
/// overhead, stack buffers instead of thread_local vectors, and the gcd
/// chain is skipped whenever the trivial bounds 1 <= g <= min_i |gamma_i|
/// already decide the Theorem 2.2 test.  Returns nullopt when int64
/// overflows anywhere the CheckedInt path would trap, so the caller
/// restarts in BigInt exactly as `exact::with_fallback` would.  Overflow
/// of a COMPARISON product mu_i * g is the one place the two paths
/// diverge in mechanism but not in answer: the product exceeding int64
/// means the right-hand side exceeds |gamma_i|, so the strict test is
/// false -- the exact BigInt evaluation would say the same.
///
/// SYSMAP_RAW_FASTPATH(fallback: theorem_3_1_screen)
std::optional<Thm31Screen> theorem_3_1_screen_raw(const MatI& cof,
                                                  const VecI& pi,
                                                  const model::IndexSet& set) {
  const std::size_t n = cof.rows();
  Int mag[kRawScreenMaxN];
  Int min_nz = 0;
  for (std::size_t r = 0; r < n; ++r) {
    Int acc = 0;
    for (std::size_t c = 0; c < n; ++c) {
      Int p = 0;
      if (__builtin_mul_overflow(cof(r, c), pi[c], &p) ||
          __builtin_add_overflow(acc, p, &acc)) {
        return std::nullopt;
      }
    }
    if (acc == INT64_MIN) return std::nullopt;  // |.| would trap
    mag[r] = acc < 0 ? -acc : acc;
    if (mag[r] != 0 && (min_nz == 0 || mag[r] < min_nz)) min_nz = mag[r];
  }
  if (min_nz == 0) return Thm31Screen::kRankDeficient;
  // g = gcd_i |gamma_i| satisfies 1 <= g <= min_nz; the exact test is
  // exists i: |gamma_i| > mu_i * g.
  bool beyond_mu = false;  // necessary: exists |gamma_i| > mu_i * 1
  for (std::size_t i = 0; i < n; ++i) {
    if (mag[i] <= set.mu(i)) continue;
    beyond_mu = true;
    Int rhs = 0;
    if (!__builtin_mul_overflow(set.mu(i), min_nz, &rhs) && mag[i] > rhs) {
      return Thm31Screen::kFeasible;  // sufficient: beats mu_i * min_nz
    }
  }
  if (!beyond_mu) return Thm31Screen::kConflict;
  Int g = 0;
  for (std::size_t i = 0; i < n; ++i) g = exact::gcd_i64(g, mag[i]);
  for (std::size_t i = 0; i < n; ++i) {
    Int rhs = 0;
    if (__builtin_mul_overflow(set.mu(i), g, &rhs)) continue;  // rhs > mag[i]
    if (mag[i] > rhs) return Thm31Screen::kFeasible;
  }
  return Thm31Screen::kConflict;
}

/// Kernel-width bound of the k <= n-2 raw witness screen: ker [S; pi] has
/// n - k <= 4 dimensions in every k <= n-2 sweep of the gallery; wider
/// kernels go straight to the exact ladder.
constexpr std::size_t kRawWitnessMaxKernel = 4;

enum class KernelScreen {
  kRankDeficient,  ///< w = pi U_free = 0, i.e. rank([S; pi]) < k
  kConflict,       ///< a nonzero kernel vector of [S; pi] lies in the box
  kUndecided,      ///< no witness found, or int64 overflow: run the ladder
};

/// The k <= n-2 counterpart of theorem_3_1_screen_raw.  By Section 4 the
/// conflict vectors of T = [S; pi] are the nonzero vectors of ker T inside
/// the difference box, and ker T = U_free ker(w) with U_free the free
/// columns of the HNF-of-S multiplier and w = pi U_free; w = 0 exactly
/// when rank([S; pi]) < k.  The kernel basis of w comes from the xgcd
/// column eliminations hnf_process_row applies to the last row of
/// [S; pi], so B = U_free V is the very block u_{k+1..n} the exact ladder
/// reads.  A basis column (Theorem 4.4), a +-1/0 sign combination of
/// columns, or for 2-D kernels the same on a Lagrange-reduced basis, whose
/// primitive part lies in the box is a genuine conflict, which the exact
/// ladder rejects too: a reject needs a witness, not a certificate.
/// kUndecided (no witness, or int64 overflow anywhere) sends the caller
/// down the unchanged exact path, so accepted candidates keep their
/// verdict, rule and witness.  `free` is n x (n-k+1) with
/// n <= kRawScreenMaxN and n-k <= kRawWitnessMaxKernel.
///
/// SYSMAP_RAW_FASTPATH(fallback: hnf_tail_verdict)
KernelScreen kernel_witness_screen_raw(const MatI& free, const VecI& pi,
                                       const model::IndexSet& set) {
  constexpr std::size_t kCols = kRawWitnessMaxKernel + 1;
  const std::size_t n = free.rows();
  const std::size_t m = free.cols();
  bool overflow = false;
  auto mul = [&overflow](Int a, Int b) {
    Int r = 0;
    overflow |= __builtin_mul_overflow(a, b, &r);
    return r;
  };
  auto add = [&overflow](Int a, Int b) {
    Int r = 0;
    overflow |= __builtin_add_overflow(a, b, &r);
    return r;
  };
  auto sub = [&overflow](Int a, Int b) {
    Int r = 0;
    overflow |= __builtin_sub_overflow(a, b, &r);
    return r;
  };

  Int w[kCols];
  bool full_rank = false;
  for (std::size_t j = 0; j < m; ++j) {
    Int acc = 0;
    for (std::size_t r = 0; r < n; ++r) acc = add(acc, mul(pi[r], free(r, j)));
    w[j] = acc;
    if (acc != 0) full_rank = true;
  }
  if (overflow) return KernelScreen::kUndecided;
  if (!full_rank) return KernelScreen::kRankDeficient;

  // eliminate_row_xgcd on the row w with pivot column 0, applied to the
  // columns of B = U_free; columns 1..m-1 then span ker T.
  Int b[kRawScreenMaxN][kCols];
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < m; ++j) b[r][j] = free(r, j);
  }
  for (std::size_t j = 1; j < m; ++j) {
    if (w[j] == 0) continue;
    if (w[0] == 0) {
      std::swap(w[0], w[j]);
      for (std::size_t r = 0; r < n; ++r) std::swap(b[r][0], b[r][j]);
      continue;
    }
    // xgcd with truncating division, as lattice::detail::xgcd; excluding
    // INT64_MIN keeps every quotient and negation in range.
    if (w[0] == INT64_MIN || w[j] == INT64_MIN) return KernelScreen::kUndecided;
    Int r0 = w[0], r1 = w[j], x0 = 1, x1 = 0, y0 = 0, y1 = 1;
    while (r1 != 0) {
      const Int q = r0 / r1;
      const Int r2 = r0 % r1;
      const Int x2 = sub(x0, mul(q, x1));
      const Int y2 = sub(y0, mul(q, y1));
      r0 = r1;
      r1 = r2;
      x0 = x1;
      x1 = x2;
      y0 = y1;
      y1 = y2;
    }
    if (r0 < 0) {
      r0 = sub(0, r0);
      x0 = sub(0, x0);
      y0 = sub(0, y0);
    }
    // [col_0, col_j] * [[x0, -w_j/g], [y0, w_0/g]], as ColumnOps::transform2.
    const Int p = sub(0, w[j] / r0);
    const Int q = w[0] / r0;
    for (std::size_t r = 0; r < n; ++r) {
      const Int a = b[r][0];
      const Int c = b[r][j];
      b[r][0] = add(mul(a, x0), mul(c, y0));
      b[r][j] = add(mul(a, p), mul(c, q));
    }
    if (overflow) return KernelScreen::kUndecided;
    w[0] = r0;
    w[j] = 0;
  }

  // True when the primitive part of the nonzero vector gamma lies in the
  // box: with g = gcd_i |gamma_i|, |gamma_i / g| <= mu_i iff
  // |gamma_i| <= mu_i * g (a product beyond int64 exceeds |gamma_i|).
  Int mag[kRawScreenMaxN];
  auto primitive_in_box = [&](const Int* gamma) {
    bool inside = true;
    bool zero = true;
    for (std::size_t r = 0; r < n; ++r) {
      mag[r] = gamma[r] < 0 ? sub(0, gamma[r]) : gamma[r];
      if (mag[r] != 0) zero = false;
      if (mag[r] > set.mu(r)) inside = false;
    }
    if (overflow || zero) return false;
    if (inside) return true;
    Int g = 0;
    for (std::size_t r = 0; r < n; ++r) g = exact::gcd_i64(g, mag[r]);
    if (g == 1) return false;
    for (std::size_t r = 0; r < n; ++r) {
      Int rhs = 0;
      if (!__builtin_mul_overflow(set.mu(r), g, &rhs) && mag[r] > rhs) {
        return false;
      }
    }
    return true;
  };

  // Every basis column, then every sign class {-1, 0, 1}^d with first
  // nonzero +1 and at least two nonzero entries, over the columns
  // cols[0..d-1] of B.
  const std::size_t d = m - 1;
  Int gamma[kRawScreenMaxN];
  auto witness_in = [&](const std::size_t* cols) {
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t r = 0; r < n; ++r) gamma[r] = b[r][cols[j]];
      if (primitive_in_box(gamma)) return true;
    }
    int pattern[kRawWitnessMaxKernel];
    for (std::size_t j = 0; j < d; ++j) pattern[j] = -1;
    for (;;) {
      std::size_t first = d;
      std::size_t nonzero = 0;
      for (std::size_t j = 0; j < d; ++j) {
        if (pattern[j] == 0) continue;
        if (first == d) first = j;
        ++nonzero;
      }
      if (nonzero >= 2 && pattern[first] > 0) {
        for (std::size_t r = 0; r < n; ++r) {
          Int acc = 0;
          for (std::size_t j = 0; j < d; ++j) {
            if (pattern[j] > 0) acc = add(acc, b[r][cols[j]]);
            if (pattern[j] < 0) acc = sub(acc, b[r][cols[j]]);
          }
          gamma[r] = acc;
        }
        if (primitive_in_box(gamma)) return true;
      }
      std::size_t j = 0;
      for (; j < d && pattern[j] == 1; ++j) pattern[j] = -1;
      if (j == d) return false;
      ++pattern[j];
    }
  };
  std::size_t cols[kRawWitnessMaxKernel];
  for (std::size_t j = 0; j < d; ++j) cols[j] = j + 1;
  if (witness_in(cols)) return KernelScreen::kConflict;
  if (overflow) return KernelScreen::kUndecided;
  if (d != 2) return KernelScreen::kUndecided;

  // Lagrange (Gauss) reduction of the 2-D basis in columns 1 and 2, with
  // ties rounded toward zero so the norm of the reduced vector strictly
  // falls and the loop ends.
  auto dot = [&](std::size_t c, std::size_t e) {
    Int s = 0;
    for (std::size_t r = 0; r < n; ++r) s = add(s, mul(b[r][c], b[r][e]));
    return s;
  };
  std::size_t u = 1;
  std::size_t v = 2;
  Int uu = dot(u, u);
  Int vv = dot(v, v);
  bool changed = false;
  for (;;) {
    if (overflow) return KernelScreen::kUndecided;
    if (vv < uu) {
      std::swap(u, v);
      std::swap(uu, vv);
    }
    const Int uv = dot(u, v);
    if (overflow) return KernelScreen::kUndecided;
    Int q = uv / uu;
    const Int rem = uv % uu;
    const Int arem = rem < 0 ? -rem : rem;
    if (arem > uu - arem) q = add(q, rem > 0 ? 1 : -1);
    if (q == 0) break;
    for (std::size_t r = 0; r < n; ++r) b[r][v] = sub(b[r][v], mul(q, b[r][u]));
    vv = dot(v, v);
    changed = true;
  }
  if (!changed) return KernelScreen::kUndecided;
  cols[0] = u;
  cols[1] = v;
  if (witness_in(cols)) return KernelScreen::kConflict;
  return KernelScreen::kUndecided;
}

/// Theorems 4.7/4.8/4.5 (kPaperTheorems) or the full exact ladder
/// (kExact) over a warm-started HNF of T = [S; pi]; identical to the
/// dispatch the seed performs after its from-scratch decomposition.
template <typename T>
ConflictVerdict hnf_tail_verdict(ConflictOracle oracle,
                                 const lattice::BasicHnfResult<T>& hnf,
                                 std::size_t k, std::size_t n,
                                 const model::IndexSet& set) {
  if (oracle == ConflictOracle::kPaperTheorems) {
    if (k + 2 == n) return mapping::detail::theorem_4_7_t(hnf, k, set);
    if (k + 3 == n) return mapping::detail::theorem_4_8_t(hnf, k, set);
    return mapping::detail::theorem_4_5_t(hnf, k, set);
  }
  return mapping::detail::decide_conflict_free_hnf_ladder_t(hnf, k, set);
}

}  // namespace

struct FixedSpaceContext::Impl {
  model::IndexSet set;
  MatI space;
  std::size_t k = 0;  // rows(space) + 1
  std::size_t n = 0;

  template <typename T>
  struct Data {
    linalg::BareissEchelon<T> echelon;  // of S, for the rank replay
    // Proposition 3.2 cofactor matrix, present when k = n-1.
    std::optional<linalg::Matrix<T>> cofactor;
    // HNF-of-S warm start, present when k <= n-2 and S has full row rank.
    std::optional<lattice::detail::HnfPrefix<T>> prefix;
  };

  // nullopt when the precompute itself overflowed int64; per-candidate
  // dispatch then goes straight to the BigInt data.
  std::optional<Data<CheckedInt>> checked;
  // Unwrapped copy of checked->cofactor for the stack-buffer raw screen
  // (k = n-1, n <= kRawScreenMaxN only).
  std::optional<MatI> cofactor_raw;
  // Unwrapped free columns k-1..n-1 of checked->prefix->u for the raw
  // witness screen (k <= n-2, n <= kRawScreenMaxN, n-k <=
  // kRawWitnessMaxKernel only).
  std::optional<MatI> free_raw;
  // BigInt mirror, built on first demand (overflow fallback or a failed
  // checked precompute); call_once keeps the lazy init safe when several
  // threads share one context.
  mutable std::once_flag big_once;
  mutable std::optional<Data<BigInt>> big_data;

  const Data<BigInt>& big() const {
    std::call_once(big_once,
                   [this] { big_data = build<BigInt>(space, n); });
    return *big_data;
  }

  template <typename T>
  static Data<T> build(const MatI& space, std::size_t n) {
    Data<T> d;
    d.echelon = linalg::bareiss_echelon(mapping::detail::lift<T>(space));
    if (space.rows() + 2 == n) {
      d.cofactor = mapping::detail::conflict_cofactor_matrix_t(
          mapping::detail::lift<T>(space));
    }
    if (space.rows() + 2 < n && d.echelon.rank() == space.rows()) {
      // Rank-deficient S never reaches an oracle (the rank screen rejects
      // every candidate first), so skipping the prefix there is safe; the
      // catch guards the same impossibility inside hnf_process_row.
      try {
        d.prefix = lattice::detail::hermite_prefix_t(
            mapping::detail::lift<T>(space));
      } catch (const std::domain_error&) {
      }
    }
    return d;
  }

  Impl(const model::IndexSet& set_in, const MatI& space_in)
      : set(set_in),
        space(space_in),
        k(space_in.rows() + 1),
        n(set_in.dimension()) {
    try {
      checked = build<CheckedInt>(space, n);
    } catch (const exact::OverflowError&) {
      checked = std::nullopt;
    }
    if (checked && checked->cofactor && n <= kRawScreenMaxN) {
      MatI raw(n, n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          raw(r, c) = (*checked->cofactor)(r, c).value();
        }
      }
      cofactor_raw = std::move(raw);
    }
    if (checked && checked->prefix && n <= kRawScreenMaxN &&
        n - k <= kRawWitnessMaxKernel) {
      MatI raw(n, n - k + 1);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t j = 0; j < raw.cols(); ++j) {
          raw(r, j) = checked->prefix->u(r, k - 1 + j).value();
        }
      }
      free_raw = std::move(raw);
    }
  }
};

FixedSpaceContext::FixedSpaceContext(const model::IndexSet& set,
                                     const MatI& space) {
  if (space.cols() != set.dimension()) {
    throw std::invalid_argument("FixedSpaceContext: S width must equal n");
  }
  if (space.rows() + 1 > set.dimension()) {
    throw std::invalid_argument("FixedSpaceContext: k must not exceed n");
  }
  impl_ = std::make_unique<const Impl>(set, space);
}

FixedSpaceContext::~FixedSpaceContext() = default;
FixedSpaceContext::FixedSpaceContext(FixedSpaceContext&&) noexcept = default;
FixedSpaceContext& FixedSpaceContext::operator=(FixedSpaceContext&&) noexcept =
    default;

std::size_t FixedSpaceContext::k() const { return impl_->k; }
std::size_t FixedSpaceContext::n() const { return impl_->n; }

bool FixedSpaceContext::has_full_rank(const VecI& pi) const {
  const Impl& im = *impl_;
  if (pi.size() != im.n) {
    throw std::invalid_argument("FixedSpaceContext: Pi width mismatch");
  }
  // rank([S; pi]) = k  iff  rank(S) = k-1 and pi outside S's row space;
  // the replay is exact (every intermediate is a subdeterminant), so the
  // boolean matches the seed's full Bareiss pass.
  return exact::with_fallback(
      [&] {
        if (!im.checked) {
          throw exact::OverflowError("fixed-space: no checked precompute");
        }
        if (im.checked->echelon.rank() + 1 != im.k) return false;
        // Scratch row reused across candidates: the replay clobbers it and
        // every entry is overwritten before use, so no per-candidate heap
        // traffic on the fast path.
        thread_local linalg::Vector<CheckedInt> scratch;
        scratch.resize(pi.size());
        for (std::size_t i = 0; i < pi.size(); ++i) {
          scratch[i] = CheckedInt(pi[i]);
        }
        return linalg::bareiss_row_independent_inplace(im.checked->echelon,
                                                       scratch);
      },
      [&] {
        if (im.big().echelon.rank() + 1 != im.k) return false;
        return linalg::bareiss_row_independent(im.big().echelon,
                                               lift_vec<BigInt>(pi));
      });
}

std::optional<ConflictVerdict> FixedSpaceContext::screen(
    ConflictOracle oracle, const VecI& pi) const {
  const Impl& im = *impl_;
  if (oracle != ConflictOracle::kBruteForce && im.k + 1 == im.n) {
    // One cofactor product decides both Step 5(2) and 5(3): gamma = C pi
    // is zero exactly when rank([S; pi]) < k (the rank reject), and
    // otherwise the gcd-scaled Theorem 2.2 test decides conflict-freeness.
    if (im.cofactor_raw) {
      std::optional<Thm31Screen> s =
          theorem_3_1_screen_raw(*im.cofactor_raw, pi, im.set);
#if SYSMAP_CONTRACTS_ACTIVE
      if (s) {
        // Fast-path-vs-BigInt verdict parity: the raw machine-word screen
        // must agree with the exact oracle whenever it claims an answer.
        linalg::Vector<BigInt> gamma_big;
        Thm31Screen exact_s =
            theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma_big);
        SYSMAP_CONTRACT(*s == exact_s,
                        "raw screen verdict "
                            // SYSMAP_NARROWING_OK: enum streamed as int.
                            << static_cast<int>(*s)
                            << " diverges from BigInt oracle verdict "
                            // SYSMAP_NARROWING_OK: enum streamed as int.
                            << static_cast<int>(exact_s));
      }
#endif
      if (!s) {  // int64 overflow: exact restart, as with_fallback would
        linalg::Vector<BigInt> gamma;
        s = theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma);
      }
      if (*s != Thm31Screen::kFeasible) return std::nullopt;
      return mapping::detail::verdict(
          ConflictVerdict::Status::kConflictFree,
          "Theorem 3.1: unique conflict vector feasible");
    }
    return exact::with_fallback(
        [&]() -> std::optional<ConflictVerdict> {
          if (!im.checked || !im.checked->cofactor) {
            throw exact::OverflowError("fixed-space: no checked cofactor");
          }
          thread_local linalg::Vector<CheckedInt> gamma;
          switch (theorem_3_1_screen(*im.checked->cofactor, pi, im.set,
                                     gamma)) {
            case Thm31Screen::kFeasible:
              return mapping::detail::verdict(
                  ConflictVerdict::Status::kConflictFree,
                  "Theorem 3.1: unique conflict vector feasible");
            default:
              return std::nullopt;
          }
        },
        [&]() -> std::optional<ConflictVerdict> {
          linalg::Vector<BigInt> gamma;
          switch (theorem_3_1_screen(*im.big().cofactor, pi, im.set, gamma)) {
            case Thm31Screen::kFeasible:
              return mapping::detail::verdict(
                  ConflictVerdict::Status::kConflictFree,
                  "Theorem 3.1: unique conflict vector feasible");
            default:
              return std::nullopt;
          }
        });
  }
  if (oracle == ConflictOracle::kExact && im.free_raw) {
    // k <= n-2 under the exact oracle: a kernel vector inside the box is a
    // conflict the ladder would reject too, so the raw witness screen
    // rejects without the echelon replay, the HNF or the ladder.
    const KernelScreen s = kernel_witness_screen_raw(*im.free_raw, pi, im.set);
#if SYSMAP_CONTRACTS_ACTIVE
    if (s == KernelScreen::kRankDeficient) {
      SYSMAP_CONTRACT(!has_full_rank(pi),
                      "raw witness screen: w = 0 on a full-rank [S; pi]");
    } else if (s == KernelScreen::kConflict) {
      const ConflictVerdict exact_v = verdict(oracle, pi);
      SYSMAP_CONTRACT(
          exact_v.status == ConflictVerdict::Status::kHasConflict,
          "raw witness screen rejects but the exact ladder answers '"
              << exact_v.rule << "'");
    }
#endif
    if (s != KernelScreen::kUndecided) {
      SYSMAP_COUNT("search.fixed_space.raw_rejects", 1);
      return std::nullopt;
    }
  }
  // k <= n-2, k = n, or brute force: the echelon rank replay decides
  // Step 5(2), then the full verdict decides 5(3); verdict() routes brute
  // force to enumeration_conflicts.
  if (!has_full_rank(pi)) return std::nullopt;
  if (oracle != ConflictOracle::kBruteForce && im.k + 2 <= im.n) {
    SYSMAP_COUNT("search.fixed_space.ladder_verdicts", 1);
  }
  ConflictVerdict v = verdict(oracle, pi);
  if (v.status != ConflictVerdict::Status::kConflictFree) return std::nullopt;
  return v;
}

ConflictVerdict FixedSpaceContext::verdict(ConflictOracle oracle,
                                           const VecI& pi) const {
  const Impl& im = *impl_;
  if (oracle == ConflictOracle::kBruteForce) {
    return mapping::enumeration_conflicts(
        mapping::MappingMatrix(im.space, pi), im.set);
  }
  if (im.k == im.n) {
    ConflictVerdict out;
    out.status = has_full_rank(pi) ? ConflictVerdict::Status::kConflictFree
                                   : ConflictVerdict::Status::kHasConflict;
    out.rule = "square T: rank test";
    return out;
  }
  if (im.k + 1 == im.n) {
    // Theorem 3.1 via the closed form; identical gamma, hence identical
    // rule and witness.
    return exact::with_fallback(
        [&] {
          if (!im.checked || !im.checked->cofactor) {
            throw exact::OverflowError("fixed-space: no checked cofactor");
          }
          linalg::Vector<CheckedInt> gamma =
              cross_from_cofactor(*im.checked->cofactor, pi);
          if (mapping::detail::feasible(gamma, im.set)) {
            return mapping::detail::verdict(
                ConflictVerdict::Status::kConflictFree,
                "Theorem 3.1: unique conflict vector feasible");
          }
          return mapping::detail::verdict(
              ConflictVerdict::Status::kHasConflict,
              "Theorem 3.1: unique conflict vector non-feasible",
              mapping::detail::widen(std::move(gamma)));
        },
        [&] {
          linalg::Vector<BigInt> gamma =
              cross_from_cofactor(*im.big().cofactor, pi);
          if (mapping::detail::feasible(gamma, im.set)) {
            return mapping::detail::verdict(
                ConflictVerdict::Status::kConflictFree,
                "Theorem 3.1: unique conflict vector feasible");
          }
          return mapping::detail::verdict(
              ConflictVerdict::Status::kHasConflict,
              "Theorem 3.1: unique conflict vector non-feasible",
              mapping::detail::widen(std::move(gamma)));
        });
  }
  // The CheckedInt and BigInt builds agree on prefix presence (the rank of
  // S and any domain_error are scalar-independent), so consult whichever
  // exists without forcing the lazy BigInt mirror.
  const bool have_prefix = im.checked ? im.checked->prefix.has_value()
                                      : im.big().prefix.has_value();
  if (!have_prefix) {
    // Rank-deficient S: fall back to the seed's from-scratch dispatch
    // (identical behavior, including any domain_error from the HNF).
    return run_conflict_oracle(oracle, mapping::MappingMatrix(im.space, pi),
                               im.set);
  }
  return exact::with_fallback(
      [&] {
        if (!im.checked || !im.checked->prefix) {
          throw exact::OverflowError("fixed-space: no checked HNF prefix");
        }
        lattice::BasicHnfResult<CheckedInt> hnf =
            lattice::detail::hermite_extend_row_t(*im.checked->prefix,
                                                  lift_vec<CheckedInt>(pi));
        return hnf_tail_verdict(oracle, hnf, im.k, im.n, im.set);
      },
      [&] {
        lattice::BasicHnfResult<BigInt> hnf =
            lattice::detail::hermite_extend_row_t(*im.big().prefix,
                                                  lift_vec<BigInt>(pi));
        return hnf_tail_verdict(oracle, hnf, im.k, im.n, im.set);
      });
}

}  // namespace sysmap::search
