// Candidate enumeration core of Procedure 5.1: every integral Pi with
// sum |pi_i| mu_i == f, in deterministic lexicographic order (coordinate 0
// outermost; magnitude 0 first, then +a before -a).
//
// Two walks share that order:
//   - for_each_schedule_at, the plain recursive walk.  The visitor is a
//     template parameter so the per-candidate dispatch inlines into the
//     callers' hot loops; the std::function overload in procedure51.hpp
//     (enumerate_schedules_at) delegates here.
//   - DependenceConeWalk, the same recursion with a prune hook: it cuts
//     every subtree in which no completion can satisfy Pi D > 0 (Step
//     5(1)).  procedure_5_1 walks this one.
// The walks agree candidate-for-candidate on every candidate that passes
// Pi D > 0, so a search that stops at its first feasible candidate finds
// the same Pi on either walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exact/checked.hpp"
#include "linalg/types.hpp"
#include "model/index_set.hpp"

namespace sysmap::search {

namespace detail {

/// Prune hooks of the plain walk: nothing is ever cut.
struct NoPrune {
  bool cut(std::size_t /*i*/, Int /*remaining*/) { return false; }
  void assign(std::size_t /*i*/, Int /*value*/) {}
};

// The walk below a node that has assigned coordinates 0..i-1 and has
// `remaining` weight left (a leaf when i == n).  `prune.cut(i, remaining)`
// may drop the whole subtree, a single leaf included; `prune.assign(i, v)`
// announces pi_i = v before the walk descends below coordinate i.
// SYSMAP_RAW_FASTPATH(bounded: a <= remaining / mu keeps a * mu and the
// new budget within [0, remaining]; negated magnitudes are nonnegative)
template <typename Prune, typename Visit>
bool enumerate_rec(const model::IndexSet& set, Int remaining, std::size_t i,
                   VecI& pi, Prune& prune, Visit& visit) {
  const std::size_t n = set.dimension();
  if (i == n && remaining != 0) return true;
  if (prune.cut(i, remaining)) return true;
  if (i == n) return visit(static_cast<const VecI&>(pi));
  const Int mu = set.mu(i);
  if (mu <= 0) {
    // IndexSet enforces mu_i >= 1, so this is unreachable through the
    // public API; guard the division anyway and pin the weightless
    // coordinate to 0 (any other value would enumerate forever).
    pi[i] = 0;
    prune.assign(i, 0);
    return enumerate_rec(set, remaining, i + 1, pi, prune, visit);
  }
  const Int max_abs = remaining / mu;
  if (i + 1 == n) {
    // Last coordinate: the only magnitude landing exactly on f is
    // remaining / mu, and only when the division is exact -- compute it
    // directly instead of scanning every a and skipping the mismatches.
    if (remaining % mu != 0) {
      pi[i] = 0;
      return true;
    }
    if (max_abs == 0) {
      pi[i] = 0;
      prune.assign(i, 0);
      if (!enumerate_rec(set, 0, i + 1, pi, prune, visit)) return false;
    } else {
      pi[i] = max_abs;
      prune.assign(i, max_abs);
      if (!enumerate_rec(set, 0, i + 1, pi, prune, visit)) return false;
      pi[i] = -max_abs;
      prune.assign(i, -max_abs);
      if (!enumerate_rec(set, 0, i + 1, pi, prune, visit)) return false;
    }
    pi[i] = 0;
    return true;
  }
  // Tail feasibility: the remaining weight must be expressible by later
  // coordinates; with arbitrary magnitudes any nonnegative remainder works
  // as long as some later coordinate exists.
  for (Int a = 0; a <= max_abs; ++a) {
    Int rest = remaining - a * mu;
    if (a == 0) {
      pi[i] = 0;
      prune.assign(i, 0);
      if (!enumerate_rec(set, rest, i + 1, pi, prune, visit)) return false;
    } else {
      pi[i] = a;
      prune.assign(i, a);
      if (!enumerate_rec(set, rest, i + 1, pi, prune, visit)) return false;
      pi[i] = -a;
      prune.assign(i, -a);
      if (!enumerate_rec(set, rest, i + 1, pi, prune, visit)) return false;
    }
  }
  pi[i] = 0;
  return true;
}

}  // namespace detail

/// Level-occupancy filter for the sweep drivers: every reachable objective
/// f = sum |pi_i| mu_i is a nonnegative integer combination of the mu_i,
/// hence a multiple of g = gcd_i mu_i -- so levels with f % g != 0 are
/// provably empty and the drivers skip them without walking the
/// enumeration tree.  Sparse index sets make most levels empty (a cube
/// with mu = 16 populates only every 16th level) and the fruitless tree
/// walks otherwise rival the live levels' cost.  The filter is necessary
/// but not sufficient in general (a coin-problem DP would be exact); for
/// the cube-shaped and divisor-chain sets of the gallery it is exact, and
/// it costs one gcd per search instead of a table.  Skipping provably
/// empty levels is unobservable in results and statistics.  Returns 1
/// when no filtering is possible.
inline Int objective_level_stride(const model::IndexSet& set) {
  Int g = 0;
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    // mu <= 0 coordinates are pinned to 0 by enumerate_rec: no contribution.
    if (set.mu(i) > 0) g = exact::gcd_i64(g, set.mu(i));
  }
  return g > 0 ? g : 1;
}

/// Statically-dispatched enumeration of the objective level f; `visit`
/// returns false to abort the scan (mirrored in the return value).
template <typename Visit>
bool for_each_schedule_at(const model::IndexSet& set, Int f, Visit&& visit) {
  if (f < 0) return true;
  VecI pi(set.dimension(), 0);
  detail::NoPrune none;
  return detail::enumerate_rec(set, f, 0, pi, none, visit);
}

/// Procedure 5.1's candidate walk restricted to the dependence cone
/// {Pi : Pi D > 0}.  Built once per search from (J, D), it visits every
/// candidate of a level in for_each_schedule_at order EXCEPT whole
/// subtrees in which no completion satisfies Pi D > 0.  The caller still
/// applies its own checked Pi D > 0 test to the visited leaves; the cut
/// leaves all fail it.
///
/// Prune rule: with coordinates 0..i-1 assigned, partial delays
/// p_j = sum_{l < i} pi_l d_lj and budget r left, every completion has
/// Pi d_j <= p_j + r * max_{l >= i} |d_lj| / mu_l; the subtree is cut when
/// that bound is <= 0 for some column j.  At a leaf (i = n, r = 0) the
/// rule is Pi D > 0 itself, so at a level where the prune runs every
/// visited candidate passes, and a search's first visited leaf at such a
/// level is its first feasible one; for D = I only the positive orthant is
/// walked.
///
/// The prune stands down (cuts nothing) only at a level f where some
/// column has sum_i floor(f / mu_i) |d_ij| > INT64_MAX: there a
/// candidate's Pi d_j could overflow, and the caller's checked dependence
/// test must see -- and throw on -- exactly the candidates the plain walk
/// shows it.
class DependenceConeWalk {
 public:
  DependenceConeWalk(const model::IndexSet& set, const MatI& dependence);

  /// Walks level f; `visit` returns false to abort (mirrored in the return
  /// value, as for for_each_schedule_at).
  template <typename Visit>
  bool for_each_at(Int f, Visit&& visit) {
    if (f < 0) return true;
    begin_level(f);
    VecI pi(n_, 0);
    return detail::enumerate_rec(*set_, f, 0, pi, *this, visit);
  }

  /// Subtrees cut, summed over every level walked.
  std::uint64_t cuts() const { return cuts_; }

 private:
  template <typename Prune, typename Visit>
  friend bool detail::enumerate_rec(const model::IndexSet&, Int, std::size_t,
                                    VecI&, Prune&, Visit&);

  void begin_level(Int f);

  // SYSMAP_RAW_FASTPATH(bounded: remaining, |p_j|, num and den are each
  // at most 2^63, so both 128-bit products stay below 2^126)
  bool cut(std::size_t i, Int remaining) {
    if (!active_) return false;
    const std::size_t base = i * m_;
    for (std::size_t j = 0; j < m_; ++j) {
      const Int p = partial_[base + j];
      if (p > 0) continue;
      // Best completion: p + remaining * num / den <= 0.
      if (static_cast<__int128>(remaining) * num_[base + j] <=
          -static_cast<__int128>(p) * den_[base + j]) {
        ++cuts_;
        return true;
      }
    }
    return false;
  }

  // SYSMAP_RAW_FASTPATH(bounded: at an active level |pi_i d_ij| and every
  // partial sum are at most sum_i floor(f / mu_i) |d_ij| <= INT64_MAX)
  void assign(std::size_t i, Int value) {
    if (!active_) return;
    const Int* d = d_.data() + i * m_;
    const Int* from = partial_.data() + i * m_;
    Int* to = partial_.data() + (i + 1) * m_;
    for (std::size_t j = 0; j < m_; ++j) to[j] = from[j] + value * d[j];
  }

  const model::IndexSet* set_;
  std::size_t n_;
  std::size_t m_;
  VecI d_;  ///< row-major copy of D (n x m)
  /// Per (i, j), i <= n: the maximising ratio num / den = |d_lj| / mu_l
  /// over l >= i with mu_l > 0 (0 / 1 when there is none, so a leaf is cut
  /// exactly when some Pi d_j <= 0).
  std::vector<std::uint64_t> num_;
  VecI den_;
  VecI partial_;  ///< (n + 1) x m partial delays, row i = depth i
  bool active_ = false;
  std::uint64_t cuts_ = 0;
};

}  // namespace sysmap::search
