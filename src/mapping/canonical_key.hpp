// Canonical orbit keys of a space matrix S, for the sweeps' memos.
//
// Two space matrices related by a move that preserves what a sweep reads
// share one key, so a result computed for one may be reused for the
// other.  Two families exist (see SpaceOrbitCanonicalizer): the cost orbit,
// across which processor counts transfer, and the schedule orbit, across
// which Procedure 5.1's optimal objective transfers -- Simhadri's symmetry
// argument (PAPERS.md).  Keys embed the index-set extents (and, for the
// schedule orbit, the dependence matrix) so distinct boxes or algorithms
// never alias, plus a kind tag separating the two families.  Where the
// allowed column moves are every permutation within each equal-extent
// column group, the key sorts those columns instead of trying each
// arrangement.  row_space_key() gives a third, coarser key: the rational
// row space of S, across which the fused pipeline transfers a whole
// Procedure 5.1 answer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "exact/checked.hpp"
#include "linalg/matrix.hpp"
#include "linalg/types.hpp"
#include "model/index_set.hpp"

namespace sysmap::mapping {

/// Hashable canonical orbit key of a space matrix.  Equality compares
/// every field; the hash is FNV-1a over the same bytes-as-words stream.
struct ConflictKey {
  enum class Kind : std::uint8_t {
    kSpaceOrbit,     ///< cost orbit of a space matrix S over a box
    kScheduleOrbit,  ///< schedule-search orbit of S for a fixed (J, D)
  };

  Kind kind = Kind::kSpaceOrbit;
  std::uint32_t n = 0;       ///< index-set dimension
  std::uint32_t k = 0;       ///< rows(S)
  std::vector<Int> payload;  ///< extents mu_1..mu_n, then canonical data

  friend bool operator==(const ConflictKey& a, const ConflictKey& b) {
    return a.kind == b.kind && a.n == b.n && a.k == b.k &&
           a.payload == b.payload;
  }

  std::size_t hash() const noexcept {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    auto mix = [&h](std::uint64_t word) {
      h ^= word;
      h *= 1099511628211ull;  // FNV-1a prime
    };
    mix(static_cast<std::uint64_t>(kind));
    mix((static_cast<std::uint64_t>(n) << 32) | k);
    for (Int v : payload) mix(static_cast<std::uint64_t>(v));
    return static_cast<std::size_t>(h);
  }
};

struct ConflictKeyHash {
  std::size_t operator()(const ConflictKey& key) const noexcept {
    return key.hash();
  }
};

namespace detail {

inline void append_extents(const model::IndexSet& set,
                           std::vector<Int>& payload) {
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    payload.push_back(set.mu(i));
  }
}

/// The equal-extent column groups of `set` with at least two columns,
/// each in increasing column order.
inline std::vector<std::vector<std::size_t>> equal_extent_groups(
    const model::IndexSet& set, std::size_t n) {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<bool> grouped(n, false);
  for (std::size_t c = 0; c < n; ++c) {
    if (grouped[c]) continue;
    std::vector<std::size_t> group{c};
    grouped[c] = true;
    for (std::size_t d = c + 1; d < n; ++d) {
      if (!grouped[d] && set.mu(d) == set.mu(c)) {
        group.push_back(d);
        grouped[d] = true;
      }
    }
    if (group.size() > 1) groups.push_back(std::move(group));
  }
  return groups;
}

/// The size of the full product of within-group permutations, saturated
/// just above `max_arrangements`.
inline std::size_t arrangement_count(
    const std::vector<std::vector<std::size_t>>& groups,
    std::size_t max_arrangements) {
  std::size_t orbit = 1;
  for (const std::vector<std::size_t>& group : groups) {
    for (std::size_t f = 2; f <= group.size(); ++f) {
      if (orbit <= max_arrangements) orbit *= f;
    }
  }
  return orbit;
}

/// Column arrangements that keep the index box invariant: the identity,
/// then every within-group permutation of equal-extent column groups
/// (composed across groups).  When the full orbit exceeds
/// `max_arrangements` only the identity is returned -- a truncated orbit
/// slice would be representative-dependent and therefore non-canonical,
/// while the identity alone is always a (coarser) sound canonicalization.
inline std::vector<std::vector<std::size_t>> equal_extent_arrangements(
    const model::IndexSet& set, std::size_t n,
    std::size_t max_arrangements) {
  std::vector<std::vector<std::size_t>> arrangements;
  std::vector<std::size_t> identity(n);
  for (std::size_t c = 0; c < n; ++c) identity[c] = c;
  arrangements.push_back(identity);
  // Count the full orbit first so a blown cap degrades to the identity
  // arrangement instead of a truncated (representative-dependent) slice.
  const std::vector<std::vector<std::size_t>> groups =
      equal_extent_groups(set, n);
  if (arrangement_count(groups, max_arrangements) > max_arrangements) {
    return arrangements;
  }
  for (const std::vector<std::size_t>& group : groups) {
    std::vector<std::size_t> order(group.begin(), group.end());
    const std::size_t fixed = arrangements.size();
    // Compose every non-identity ordering of this group with every
    // arrangement accumulated so far.
    while (std::next_permutation(order.begin(), order.end())) {
      for (std::size_t a = 0; a < fixed; ++a) {
        std::vector<std::size_t> perm = arrangements[a];
        for (std::size_t g = 0; g < group.size(); ++g) {
          perm[group[g]] = arrangements[a][order[g]];
        }
        arrangements.push_back(std::move(perm));
      }
    }
  }
  return arrangements;
}

}  // namespace detail

/// Orbit size beyond which only the identity arrangement is tried.
inline constexpr std::size_t kMaxOrbitArrangements = 720;

/// The two orbit keys of a space matrix S, with the orbit's column
/// arrangements built once per index set (and dependence matrix), so a
/// sweep canonicalizes each candidate without rebuilding them.  key(S) is
/// a canonical form of S under its orbit's row and column moves, framed by
/// the extents (and, for the schedule orbit, the dependence matrix): two
/// spaces get equal keys exactly when a move of the orbit relates them.
/// When the equal-mu groups admit more than kMaxOrbitArrangements
/// permutations only the identity arrangement is tried (still canonical in
/// the row moves, just a coarser orbit -- soundness never depends on
/// hitting the full orbit).  Immutable after construction; key() reuses
/// thread-local scratch, so one canonicalizer may serve several threads.
///
/// Two routines compute the canonical form, and for a given row count one
/// canonicalizer always uses the same one:
///   - ENUMERATION: the lexicographic minimum, over the allowed column
///     arrangements, of S with each row sign-normalized (first nonzero
///     positive) and rows sorted.  It serves any allowed set of
///     arrangements that is a group.
///   - SORTING: when the allowed arrangements are the FULL product of
///     permutations within each equal-extent group, the lexicographic
///     minimum over all 2^m m! signed row permutations R of R S with the
///     columns of each group sorted (lexicographically, top to bottom).
///     Sorting one group's columns gives the least row-major flattening
///     over that group's permutations, so this is the least flattening
///     over the whole orbit -- the same partition as enumeration, at
///     2^m m! sorts instead of one pass per arrangement.  It is used when
///     2^m m! is below the arrangement count (e.g. two rows over five
///     equal extents: 8 row moves against 120 arrangements).  Timed on
///     19 (groups, m) cases, that rule picks the faster routine in 18 and
///     ties the last; sorting on every full product would run up to 17x
///     slower where the groups are small (docs/PERF.md).
///
/// COST ORBIT (kSpaceOrbit, the one-argument constructor): the key is
/// equal for two candidates exactly when this routine can prove
/// |{S j : j in J}| = |{S' j : j in J}|.  Three moves generate the orbit:
///   1. negating a row r (the image is reflected in coordinate r --
///      a bijection of image sets);
///   2. permuting rows (permutes image coordinates -- a bijection);
///   3. permuting COLUMNS c, c' with equal extents mu_c = mu_c'
///      ({S P j : j in J} = {S j' : j' in P^{-1} J} = {S j' : j' in J}
///      because the box is invariant under the axis swap -- the image
///      SETS are literally equal).
/// Wire length is invariant under 1-2 but NOT under 3 (the dependence
/// columns are not permuted), and the conflict verdict of [S; Pi] is not
/// invariant under 3 either (Pi is not permuted) -- so callers may only
/// attribute processor counts across a kSpaceOrbit key, never costs or
/// verdicts.
///
/// SCHEDULE ORBIT (kScheduleOrbit, with a dependence matrix): two
/// candidates with equal keys have Procedure-5.1 feasible sets
/// {(f, Pi) : Pi D > 0, rank[S; Pi] = k, [S; Pi] conflict-free over J}
/// related by an OBJECTIVE-PRESERVING bijection on Pi -- so the optimal
/// objective f* (and the nonexistence of any feasible Pi up to a bound)
/// may be attributed across the key.  Three moves generate the orbit:
///   1. negating a row of S: ker[S; Pi] and rank[S; Pi] are unchanged (the
///      same Pi stays feasible, level by level);
///   2. permuting rows of S: likewise (T changes by a left signed
///      permutation, which preserves kernel and rank);
///   3. permuting columns by sigma (matrix P, S -> S P) when sigma
///      (a) preserves the extents, mu_{sigma(c)} = mu_c, and (b) maps the
///      COLUMNS of the dependence matrix onto themselves as a multiset
///      (the rows of D permuted by sigma leave the column multiset fixed).
///      Then Pi -> Pi P^T is the bijection: (a) keeps the difference box
///      and the objective sum |pi_i| mu_i invariant, (b) makes
///      (Pi P^T) D = Pi (P^T D) positive exactly when Pi D is, and
///      conflict-freedom/rank transfer through [S P; Pi] = [S; Pi P^T] P
///      (a right permutation preserves both kernel membership in the box
///      and rank).
/// The arrangements passing (b) form a subgroup.  It is the full product
/// when every within-group permutation fixes D's column multiset (D = I,
/// say), and a proper subgroup otherwise (transitive closure), where only
/// enumeration applies.
/// Everything beyond f* -- the winning Pi itself, its verdict/witness,
/// routing on a fixed target (which reads S D, not preserved by move 3),
/// and the array cost -- is NOT invariant; callers must re-derive those on
/// the actual S (the fused pipeline re-runs the search seeded at
/// min_objective = f*) and must skip this key entirely when a target
/// interconnect constrains the search.  The dependence matrix is embedded
/// in the payload so distinct algorithms over the same box never alias.
class SpaceOrbitCanonicalizer {
 public:
  /// The cost orbit of spaces over `set`.
  explicit SpaceOrbitCanonicalizer(const model::IndexSet& set)
      : kind_(ConflictKey::Kind::kSpaceOrbit), n_(set.dimension()) {
    detail::append_extents(set, head_);
    flatten(set,
            detail::equal_extent_arrangements(set, n_, kMaxOrbitArrangements));
  }

  /// The schedule orbit of spaces for the algorithm (set, dependence):
  /// only the arrangements that fix the dependence-column multiset.
  SpaceOrbitCanonicalizer(const model::IndexSet& set, const MatI& dependence)
      : kind_(ConflictKey::Kind::kScheduleOrbit), n_(set.dimension()) {
    detail::append_extents(set, head_);
    for (std::size_t c = 0; c < dependence.cols(); ++c) {
      for (std::size_t r = 0; r < dependence.rows(); ++r) {
        tail_.push_back(dependence(r, c));
      }
    }
    std::vector<std::vector<std::size_t>> arrangements =
        detail::equal_extent_arrangements(set, n_, kMaxOrbitArrangements);
    // Column c of the permuted dependence block reads D(perm[r], c) in
    // row r; keep the arrangements whose column multiset is unchanged.
    if (arrangements.size() > 1) {
      std::vector<VecI> original(dependence.cols(), VecI(n_, 0));
      for (std::size_t c = 0; c < dependence.cols(); ++c) {
        for (std::size_t r = 0; r < n_; ++r) original[c][r] = dependence(r, c);
      }
      std::vector<VecI> sorted_original = original;
      std::sort(sorted_original.begin(), sorted_original.end());
      std::vector<std::vector<std::size_t>> valid;
      std::vector<VecI> permuted(dependence.cols(), VecI(n_, 0));
      for (std::vector<std::size_t>& perm : arrangements) {
        for (std::size_t c = 0; c < dependence.cols(); ++c) {
          for (std::size_t r = 0; r < n_; ++r) {
            permuted[c][r] = original[c][perm[r]];
          }
        }
        std::sort(permuted.begin(), permuted.end());
        if (permuted == sorted_original) valid.push_back(std::move(perm));
      }
      arrangements = std::move(valid);
    }
    flatten(set, arrangements);
  }

  ConflictKey key(const MatI& space) const {
    if (space.cols() != n_) {
      throw std::invalid_argument("orbit key: S width must equal n");
    }
    const std::size_t m = space.rows();
    const std::size_t cells = m * n_;
    thread_local std::vector<Int> best;
    best.resize(cells);
    if (sorts(space)) {
      sorted_form(space, best);
    } else {
      enumerated_form(space, best);
    }
    ConflictKey key;
    key.kind = kind_;
    key.n = static_cast<std::uint32_t>(n_);
    key.k = static_cast<std::uint32_t>(m);
    key.payload.reserve(head_.size() + cells + tail_.size());
    key.payload.insert(key.payload.end(), head_.begin(), head_.end());
    key.payload.insert(key.payload.end(), best.begin(), best.end());
    key.payload.insert(key.payload.end(), tail_.begin(), tail_.end());
    return key;
  }

 private:
  void flatten(const model::IndexSet& set,
               const std::vector<std::vector<std::size_t>>& arrangements) {
    arrangements_ = arrangements.size();
    perms_.reserve(arrangements_ * n_);
    for (const std::vector<std::size_t>& perm : arrangements) {
      perms_.insert(perms_.end(), perm.begin(), perm.end());
    }
    groups_ = detail::equal_extent_groups(set, n_);
    full_product_ = arrangements_ == detail::arrangement_count(
                                         groups_, kMaxOrbitArrangements);
  }

  /// Whether key(space) takes the sorting routine: the arrangements are
  /// the full product, 2^m m! row moves cost less than the arrangements,
  /// and every entry negates without overflow.
  bool sorts(const MatI& space) const {
    if (!full_product_) return false;
    std::size_t moves = 1;
    for (std::size_t r = 1; r <= space.rows(); ++r) {
      moves *= 2 * r;
      if (moves >= arrangements_) return false;
    }
    for (std::size_t r = 0; r < space.rows(); ++r) {
      for (std::size_t c = 0; c < n_; ++c) {
        if (space(r, c) == std::numeric_limits<Int>::min()) return false;
      }
    }
    return true;
  }

  /// Least row-major flattening of S P over the arrangements P, each with
  /// its rows sign-normalized and sorted.
  void enumerated_form(const MatI& space, std::vector<Int>& best) const {
    const std::size_t m = space.rows();
    const std::size_t n = n_;
    thread_local std::vector<Int> cand;
    cand.resize(m * n);
    bool have_best = false;
    for (std::size_t a = 0; a < arrangements_; ++a) {
      const std::size_t* perm = perms_.data() + a * n;
      for (std::size_t r = 0; r < m; ++r) {
        const std::size_t base = r * n;
        for (std::size_t c = 0; c < n; ++c) cand[base + c] = space(r, perm[c]);
        // Sign-normalize: first nonzero entry positive.
        for (std::size_t c = 0; c < n; ++c) {
          if (cand[base + c] == 0) continue;
          if (cand[base + c] < 0) {
            for (std::size_t d = c; d < n; ++d) {
              cand[base + d] = exact::neg_checked(cand[base + d]);
            }
          }
          break;
        }
        // Insertion step: keep rows 0..r sorted lexicographically.
        const auto width = static_cast<std::ptrdiff_t>(n);
        for (std::size_t q = r; q > 0; --q) {
          const auto lo =
              cand.begin() + static_cast<std::ptrdiff_t>((q - 1) * n);
          const auto hi = lo + width;
          if (!std::lexicographical_compare(hi, hi + width, lo, hi)) break;
          std::swap_ranges(lo, hi, hi);
        }
      }
      if (!have_best ||
          std::lexicographical_compare(cand.begin(), cand.end(), best.begin(),
                                       best.end())) {
        std::copy(cand.begin(), cand.end(), best.begin());
        have_best = true;
      }
    }
  }

  /// Least row-major flattening of R S, with each equal-extent group's
  /// columns sorted, over the signed row permutations R.
  void sorted_form(const MatI& space, std::vector<Int>& best) const {
    const std::size_t m = space.rows();
    const std::size_t n = n_;
    thread_local std::vector<Int> cand;
    thread_local std::vector<std::size_t> order;
    cand.resize(m * n);
    order.resize(m);
    for (std::size_t r = 0; r < m; ++r) order[r] = r;
    // Column a precedes column b when it is lexicographically smaller,
    // read top to bottom.
    auto column_less = [&](std::size_t a, std::size_t b) {
      for (std::size_t r = 0; r < m; ++r) {
        const Int x = cand[r * n + a];
        const Int y = cand[r * n + b];
        if (x != y) return x < y;
      }
      return false;
    };
    bool have_best = false;
    do {
      for (std::size_t signs = 0; signs < (std::size_t{1} << m); ++signs) {
        for (std::size_t r = 0; r < m; ++r) {
          const bool negate = ((signs >> r) & 1u) != 0;
          for (std::size_t c = 0; c < n; ++c) {
            const Int v = space(order[r], c);
            cand[r * n + c] = negate ? exact::neg_checked(v) : v;
          }
        }
        // Insertion-sort each group's columns in place (groups are small:
        // their product of factorials is at most kMaxOrbitArrangements).
        for (const std::vector<std::size_t>& group : groups_) {
          for (std::size_t i = 1; i < group.size(); ++i) {
            for (std::size_t j = i;
                 j > 0 && column_less(group[j], group[j - 1]); --j) {
              for (std::size_t r = 0; r < m; ++r) {
                std::swap(cand[r * n + group[j]], cand[r * n + group[j - 1]]);
              }
            }
          }
        }
        if (!have_best ||
            std::lexicographical_compare(cand.begin(), cand.end(),
                                         best.begin(), best.end())) {
          std::copy(cand.begin(), cand.end(), best.begin());
          have_best = true;
        }
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }

  ConflictKey::Kind kind_;
  std::size_t n_ = 0;
  std::size_t arrangements_ = 0;
  std::vector<std::size_t> perms_;  ///< arrangement a at [a * n, (a+1) * n)
  /// Equal-extent column groups of two or more columns.
  std::vector<std::vector<std::size_t>> groups_;
  /// The arrangements are every within-group permutation of groups_.
  bool full_product_ = false;
  std::vector<Int> head_;  ///< payload head: the extents
  std::vector<Int> tail_;  ///< payload tail: D, column-major
};

/// The rational row space of S as its primitive integer reduced row
/// echelon form: row i is RREF row i scaled to a primitive integer vector
/// with a positive pivot, and rows come in pivot order.  Two spaces with
/// the same number of rows get the same form exactly when they span the
/// same row space over Q (the RREF is unique).  Written row-major into
/// `out`, rows(S) * cols(S) entries.  Returns false -- no key -- when S
/// is rank-deficient or an intermediate entry overflows int64.
inline bool row_space_key(const MatI& space, std::vector<Int>& out) {
  const std::size_t m = space.rows();
  const std::size_t n = space.cols();
  out.resize(m * n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) out[r * n + c] = space(r, c);
  }
  auto make_primitive = [&](std::size_t r) {
    Int g = 0;
    for (std::size_t c = 0; c < n; ++c) g = exact::gcd_i64(g, out[r * n + c]);
    if (g <= 1) return;
    for (std::size_t c = 0; c < n; ++c) {
      out[r * n + c] = exact::div_checked(out[r * n + c], g);
    }
  };
  try {
    std::size_t rank = 0;
    for (std::size_t c = 0; c < n && rank < m; ++c) {
      std::size_t p = rank;
      while (p < m && out[p * n + c] == 0) ++p;
      if (p == m) continue;
      for (std::size_t e = 0; e < n && p != rank; ++e) {
        std::swap(out[p * n + e], out[rank * n + e]);
      }
      make_primitive(rank);
      if (out[rank * n + c] < 0) {
        for (std::size_t e = 0; e < n; ++e) {
          out[rank * n + e] = exact::neg_checked(out[rank * n + e]);
        }
      }
      // Clear column c in every other row: row r becomes a r - b pivot
      // with a > 0, so an earlier row keeps its positive pivot.
      const Int pivot = out[rank * n + c];
      for (std::size_t r = 0; r < m; ++r) {
        const Int entry = out[r * n + c];
        if (r == rank || entry == 0) continue;
        const Int g = exact::gcd_i64(pivot, entry);
        const Int a = exact::div_checked(pivot, g);
        const Int b = exact::div_checked(entry, g);
        for (std::size_t e = 0; e < n; ++e) {
          out[r * n + e] =
              exact::sub_checked(exact::mul_checked(a, out[r * n + e]),
                                 exact::mul_checked(b, out[rank * n + e]));
        }
        make_primitive(r);
      }
      ++rank;
    }
    return rank == m;
  } catch (const exact::OverflowError&) {
    return false;
  }
}

}  // namespace sysmap::mapping
