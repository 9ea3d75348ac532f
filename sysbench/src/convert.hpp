// Library types to the plain vectors the independent checks take.
#pragma once

#include "checks.hpp"
#include "sysmap.hpp"

namespace sysbench {

inline check::Vec to_vec(const sysmap::VecI& v) {
  return check::Vec(v.begin(), v.end());
}

inline check::Mat to_mat(const sysmap::MatI& m) {
  check::Mat out(m.rows(), check::Vec(m.cols()));
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) out[r][c] = m(r, c);
  }
  return out;
}

inline sysmap::MatI to_lib(const check::Mat& m) {
  sysmap::MatI out(m.size(), m.empty() ? 0 : m[0].size());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) = m[r][c];
  }
  return out;
}

/// The box extents (mu_1, ..., mu_n) of an algorithm's index set.
inline check::Vec extents(const sysmap::model::UniformDependenceAlgorithm& a) {
  return to_vec(a.index_set().bounds());
}

/// |J| for a box index set.
inline std::uint64_t box_points(const check::Vec& mu) {
  std::uint64_t n = 1;
  for (std::int64_t m : mu) n *= static_cast<std::uint64_t>(m + 1);
  return n;
}

}  // namespace sysbench
