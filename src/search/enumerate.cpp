#include "search/enumerate.hpp"

#include <limits>
#include <stdexcept>

namespace sysmap::search {

namespace {

// |v| as uint64: exact for every int64, INT64_MIN included.
std::uint64_t magnitude(Int v) {
  const auto u = static_cast<std::uint64_t>(v);
  return v < 0 ? ~u + 1 : u;
}

}  // namespace

DependenceConeWalk::DependenceConeWalk(const model::IndexSet& set,
                                       const MatI& dependence)
    : set_(&set),
      n_(set.dimension()),
      m_(dependence.cols()),
      d_(n_ * m_, 0),
      num_((n_ + 1) * m_, 0),
      den_((n_ + 1) * m_, 1),
      partial_((n_ + 1) * m_, 0) {
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
  active_ = true;
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
