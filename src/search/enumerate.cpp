#include "search/enumerate.hpp"

#include <stdexcept>

namespace sysmap::search {

namespace {

std::uint64_t add_saturating(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = 0;
  return __builtin_add_overflow(a, b, &s) ? SuffixCounts::kSaturated : s;
}

// |v| as uint64: exact for every int64, INT64_MIN included.
std::uint64_t magnitude(Int v) {
  const auto u = static_cast<std::uint64_t>(v);
  return v < 0 ? ~u + 1 : u;
}

}  // namespace

SuffixCounts::SuffixCounts(const model::IndexSet& set)
    : n_(set.dimension()), g_(objective_level_stride(set)), mu_(set.bounds()) {
  for (Int& mu : mu_) {
    if (mu > 0) mu /= g_;
  }
}

bool SuffixCounts::grow(Int level) {
  if (!fits(level)) return false;
  if (level < 0) return true;
  const std::size_t want = static_cast<std::size_t>(level / g_) + 1;
  if (want <= levels_) return true;
  ways_.resize(want * (n_ + 1));
  run_.resize(want * n_);
  for (std::size_t r = levels_; r < want; ++r) {
    std::uint64_t* ways = &ways_[r * (n_ + 1)];
    std::uint64_t* run = n_ > 0 ? &run_[r * n_] : nullptr;
    ways[n_] = r == 0 ? 1 : 0;
    for (std::size_t i = n_; i-- > 0;) {
      // mu <= 0 coordinates are pinned to 0 by the walk (factor 1).
      if (mu_[i] <= 0) {
        run[i] = 0;
        ways[i] = ways[i + 1];
        continue;
      }
      const auto m = static_cast<std::size_t>(mu_[i]);
      // run(i, r) = at(i + 1, r - mu) + run(i, r - mu): the suffixes whose
      // pi_i is nonzero with one sign.
      std::uint64_t signed_ways = 0;
      if (r >= m) {
        signed_ways = add_saturating(ways_[(r - m) * (n_ + 1) + i + 1],
                                     run_[(r - m) * n_ + i]);
      }
      run[i] = signed_ways;
      ways[i] = add_saturating(ways[i + 1],
                               add_saturating(signed_ways, signed_ways));
    }
  }
  levels_ = want;
  return true;
}

DependenceConeWalk::DependenceConeWalk(const model::IndexSet& set,
                                       const MatI& dependence)
    : set_(&set),
      n_(set.dimension()),
      m_(dependence.cols()),
      d_(n_ * m_, 0),
      num_((n_ + 1) * m_, 0),
      den_((n_ + 1) * m_, 1),
      partial_((n_ + 1) * m_, 0),
      counts_(set) {
  if (dependence.rows() != n_) {
    throw std::invalid_argument("DependenceConeWalk: D must have n rows");
  }
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) d_[i * m_ + j] = dependence(i, j);
  }
  // Suffix maxima of |d_lj| / mu_l, compared by 128-bit cross products
  // (both sides below 2^126).
  for (std::size_t j = 0; j < m_; ++j) {
    std::uint64_t best_num = 0;
    Int best_den = 1;
    for (std::size_t i = n_; i-- > 0;) {
      const Int mu = set.mu(i);
      const std::uint64_t mag = magnitude(dependence(i, j));
      if (mu > 0 && static_cast<unsigned __int128>(mag) *
                            static_cast<std::uint64_t>(best_den) >
                        static_cast<unsigned __int128>(best_num) *
                            static_cast<std::uint64_t>(mu)) {
        best_num = mag;
        best_den = mu;
      }
      num_[i * m_ + j] = best_num;
      den_[i * m_ + j] = best_den;
    }
  }
}

void DependenceConeWalk::begin_level(Int f) {
  level_ = f;
  grown_ = false;
  active_ = counts_.fits(f);
  // Every |Pi d_j| at this level, and every partial sum on the way, is at
  // most sum_i floor(f / mu_i) |d_ij|; the prune runs only where that
  // bound fits int64 for all j.  Each term is below 2^126 and the sum stops
  // at the first value past 2^63, so the 128-bit sum cannot wrap.
  for (std::size_t j = 0; j < m_ && active_; ++j) {
    unsigned __int128 bound = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const Int mu = set_->mu(i);
      if (mu <= 0) continue;
      bound += static_cast<unsigned __int128>(
                   static_cast<std::uint64_t>(f / mu)) *
               magnitude(d_[i * m_ + j]);
      if (bound > static_cast<unsigned __int128>(
                      std::numeric_limits<Int>::max())) {
        active_ = false;
        break;
      }
    }
  }
}

}  // namespace sysmap::search
