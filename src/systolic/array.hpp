// Processor-array designs derived from a mapping.
//
// Two regimes, mirroring Definition 2.2's remark on condition 2:
//  - dedicated: "a new processor array is designed specially for the
//    algorithm" -- every dependence gets its own direct link, P = S D and
//    K = I (this is Figure 2: separate A, B and C links, with
//    Pi d_i - 1 buffers on link i);
//  - fixed: the algorithm must run on a given interconnect P, so K comes
//    from minimum-hop routing (schedule/interconnect.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "mapping/mapping_matrix.hpp"
#include "model/algorithm.hpp"
#include "schedule/interconnect.hpp"

namespace sysmap::systolic {

struct ArrayDesign {
  mapping::MappingMatrix t;
  /// One column per dependence when dedicated (P = S D); the target's P
  /// when fixed.
  MatI p;
  /// Routing matrix K with S D = P K.
  MatI k;
  /// Pi d_i per dependence.
  VecI delays;
  /// Hops per dependence (column sums of K).
  VecI hops;
  /// Buffers per dependence link: delays - hops.
  VecI buffers;
  /// Number of PEs, |{S j : j in J}| (support::count_images).
  Int processors = 0;

  std::size_t num_processors() const {
    return static_cast<std::size_t>(processors);
  }
  Int total_buffers() const;

  friend bool operator==(const ArrayDesign&, const ArrayDesign&) = default;
};

/// Dedicated-array design: P = S D (one direct link per dependence), K = I.
/// Throws std::invalid_argument when the schedule violates Pi D > 0.
ArrayDesign design_dedicated_array(const model::UniformDependenceAlgorithm& algo,
                                   const mapping::MappingMatrix& t);

/// Fixed-interconnect design via minimum-hop routing; std::nullopt when the
/// mapping is not implementable on `net` (condition 2 fails).
std::optional<ArrayDesign> design_on_interconnect(
    const model::UniformDependenceAlgorithm& algo,
    const mapping::MappingMatrix& t, const schedule::Interconnect& net);

}  // namespace sysmap::systolic
