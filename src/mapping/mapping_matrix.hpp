// The linear space-time mapping T = [S; Pi] of Definition 2.2.
//
// tau(j) = T j maps computation j to processor S j (first k-1 coordinates)
// and execution time Pi j (last coordinate).  This class owns the layout
// convention used throughout the library: the schedule row is the LAST row
// of T, matching the paper's T = [S over Pi].
#pragma once

#include <cstddef>

#include "linalg/types.hpp"

namespace sysmap::mapping {

class MappingMatrix {
 public:
  /// From the stacked k x n matrix; throws std::invalid_argument when k = 0,
  /// n = 0 or k > n.
  explicit MappingMatrix(MatI t);

  /// From a space part S ((k-1) x n, possibly 0 rows) and schedule row Pi.
  MappingMatrix(const MatI& space, const VecI& schedule);

  const MatI& matrix() const noexcept { return t_; }
  std::size_t k() const noexcept { return t_.rows(); }
  std::size_t n() const noexcept { return t_.cols(); }

  /// Space mapping S: the first k-1 rows.
  MatI space() const { return t_.block(0, t_.rows() - 1, 0, t_.cols()); }

  /// Linear schedule vector Pi: the last row.
  VecI schedule() const { return t_.row_vector(t_.rows() - 1); }

  /// tau(j) = T j: the k-vector [processor coords..., time].
  VecI apply(const VecI& j) const;

  /// Processor coordinates S j (k-1 entries).
  VecI processor(const VecI& j) const;

  /// Execution time Pi j.
  Int time(const VecI& j) const;

  /// rank(T) == k (Definition 2.2, condition 4).
  bool has_full_rank() const;

  friend bool operator==(const MappingMatrix&, const MappingMatrix&) = default;

 private:
  MatI t_;
};

}  // namespace sysmap::mapping
