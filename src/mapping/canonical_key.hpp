// Canonical orbit keys of a space matrix S, for the sweeps' memos.
//
// Two space matrices related by a move that preserves what a sweep reads
// share one key, so a result computed for one may be reused for the
// other.  Two families exist (see SpaceOrbitCanonicalizer): the cost orbit,
// across which processor counts transfer, and the schedule orbit, across
// which Procedure 5.1's optimal objective transfers -- Simhadri's symmetry
// argument (PAPERS.md).  Keys embed the index-set extents (and, for the
// schedule orbit, the dependence matrix) so distinct boxes or algorithms
// never alias, plus a kind tag separating the two families.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
  // Group columns by extent; count the full orbit first so a blown cap
  // degrades to the identity arrangement instead of a truncated (and
  // therefore representative-dependent) orbit slice.
  std::size_t orbit = 1;
  std::vector<bool> grouped(n, false);
  std::vector<std::vector<std::size_t>> groups;
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
    for (std::size_t f = 2; f <= group.size(); ++f) {
      orbit *= f;
      if (orbit > max_arrangements) break;
    }
    if (orbit > max_arrangements) break;
    if (group.size() > 1) groups.push_back(std::move(group));
  }
  if (orbit <= max_arrangements) {
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
      std::sort(order.begin(), order.end());  // restore for reuse
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
/// the lexicographic minimum, over the arrangements, of S with each row
/// sign-normalized (first nonzero positive) and rows sorted, framed by
/// the extents (and, for the schedule orbit, the dependence matrix).
/// When the equal-mu groups admit more than kMaxOrbitArrangements
/// permutations only the identity arrangement is tried (still canonical in
/// the row moves, just a coarser orbit -- soundness never depends on
/// hitting the full orbit).  Immutable after construction; key() reuses
/// thread-local scratch, so one canonicalizer may serve several threads.
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
    flatten(
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
    flatten(arrangements);
  }

  ConflictKey key(const MatI& space) const {
    if (space.cols() != n_) {
      throw std::invalid_argument("orbit key: S width must equal n");
    }
    const std::size_t m = space.rows();
    const std::size_t n = n_;
    const std::size_t cells = m * n;
    thread_local std::vector<Int> cand;
    thread_local std::vector<Int> best;
    cand.resize(cells);
    best.resize(cells);
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
    ConflictKey key;
    key.kind = kind_;
    key.n = static_cast<std::uint32_t>(n);
    key.k = static_cast<std::uint32_t>(m);
    key.payload.reserve(head_.size() + cells + tail_.size());
    key.payload.insert(key.payload.end(), head_.begin(), head_.end());
    key.payload.insert(key.payload.end(), best.begin(), best.end());
    key.payload.insert(key.payload.end(), tail_.begin(), tail_.end());
    return key;
  }

 private:
  void flatten(const std::vector<std::vector<std::size_t>>& arrangements) {
    arrangements_ = arrangements.size();
    perms_.reserve(arrangements_ * n_);
    for (const std::vector<std::size_t>& perm : arrangements) {
      perms_.insert(perms_.end(), perm.begin(), perm.end());
    }
  }

  ConflictKey::Kind kind_;
  std::size_t n_ = 0;
  std::size_t arrangements_ = 0;
  std::vector<std::size_t> perms_;  ///< arrangement a at [a * n, (a+1) * n)
  std::vector<Int> head_;           ///< payload head: the extents
  std::vector<Int> tail_;           ///< payload tail: D, column-major
};

}  // namespace sysmap::mapping
