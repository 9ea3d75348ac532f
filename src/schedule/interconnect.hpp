// Interconnection primitives, K-matrix routing and buffer sizing
// (Definition 2.2, condition 2).
//
// A target array exposes a matrix P of interconnection primitives (one
// column per directed link type).  A mapping is implementable on it when
// S D = P K for some routing matrix K whose column sums obey
// sum_j k_{ji} <= Pi d_i: the datum of dependence d_i must reach its
// destination (S d_i away) using at most Pi d_i unit-time hops.  The slack
// Pi d_i - hops_i is absorbed by buffers on the link (Example 5.1: three
// buffers on the A link).
#pragma once

#include <optional>
#include <vector>

#include "linalg/types.hpp"
#include "schedule/linear_schedule.hpp"

namespace sysmap::schedule {

/// The matrix P of interconnection primitives, one column per link type.
class Interconnect {
 public:
  /// dims x r matrix; dims is the array dimensionality (k-1).
  explicit Interconnect(MatI p);

  /// +-1 unit vectors in every array dimension (4-neighbour mesh for
  /// dims = 2, bidirectional pipeline for dims = 1).
  static Interconnect nearest_neighbor(std::size_t dims);

  /// nearest_neighbor plus all +-1 diagonal combinations (8-neighbour mesh
  /// for dims = 2).
  static Interconnect with_diagonals(std::size_t dims);

  const MatI& p() const noexcept { return p_; }
  std::size_t dims() const noexcept { return p_.rows(); }
  std::size_t num_primitives() const noexcept { return p_.cols(); }

 private:
  MatI p_;
};

/// Routing result for one mapping: K plus derived accounting.
struct Routing {
  MatI k;               ///< r x m, non-negative primitive-use counts
  VecI hops;            ///< per-dependence column sums of K
  VecI delays;          ///< per-dependence Pi d_i
  VecI buffers;         ///< delays - hops (>= 0)
  Int total_buffers() const;

  friend bool operator==(const Routing&, const Routing&) = default;
};

/// Finds a minimum-hop K with S D = P K, k_{ji} >= 0 and column sums
/// bounded by Pi d_i (breadth-first search over displacement space per
/// dependence).  Returns nullopt when some S d_i is unreachable within its
/// delay budget.
std::optional<Routing> route(const MatI& space, const MatI& dependence,
                             const Interconnect& net,
                             const LinearSchedule& schedule);

/// The paper's no-collision sufficient condition (Examples 5.1/5.2): every
/// column of K has at most one nonzero entry, and that entry is 1 -- each
/// datum uses one link exactly once on its way.
bool single_hop_columns(const MatI& k);

}  // namespace sysmap::schedule
