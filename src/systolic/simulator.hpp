// Cycle-accurate simulation of a mapped execution.
//
// The simulator executes every computation j at processor S j and time
// Pi j, moves each dependence datum along its routed hop sequence, and
// checks precisely the properties the paper proves about a correct design:
//  - no computational conflicts (two computations on one PE in one cycle),
//  - no data-link collisions (two data of one dependence class on one
//    directed wire in one cycle; Figure 2 gives each dependence its own
//    physical channel, so classes do not collide with each other),
//  - causality (every operand arrives no later than its use),
//  - buffer occupancy (high-water mark per dependence link, to compare
//    with the designed Pi d_i - hops count),
//  - optionally, value correctness: with a SemanticAlgorithm the simulated
//    array must reproduce the sequential reference results exactly.
//
// Timing model: a datum produced at t0 = Pi (j - d_i) and consumed at
// t1 = Pi j traverses its h hops during the LAST h cycles (wire of hop c
// busy during cycle t1 - h + c), waiting in the link buffer beforehand.
// This "arrive just in time" discipline matches the buffer accounting of
// Example 5.1 (three buffers on the A link for Pi d = 4, one hop).
//
// ENGINES.  simulate() runs the high-throughput engine (systolic/engine.cpp):
// time-major bucketing computed directly from the affine schedule (no
// comparator sort), flat mixed-radix uint64 packing of PE and wire
// coordinates (support/packed_coord.hpp) with open-addressing occupancy
// tables, O(1) amortized lexicographic ordinals along the index-set
// odometer walk, and one-thread conflict/link/buffer scans in the seed's
// (cycle, lexicographic j) order.  simulate_seed() preserves the original
// map-and-sort implementation; the two produce BIT-IDENTICAL
// SimulationReports (all fields, event order, buffer high-water marks,
// value check) for every design -- tests/simulator_parity_test.cpp holds
// the pair equal case by case.
// When a coordinate box does not pack into uint64 (or the index set or
// cycle range leaves the flat regime), the engine transparently falls
// back to the seed path, so simulate() never changes meaning; the parity
// suite reaches that fallback with a real design whose cycle range
// exceeds the flat engine's cap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/algorithm.hpp"
#include "systolic/array.hpp"

namespace sysmap::systolic {

struct ConflictEvent {
  VecI j1, j2;   ///< the two computations mapped together
  VecI pe;       ///< processor coordinates
  Int time = 0;  ///< cycle

  friend bool operator==(const ConflictEvent&, const ConflictEvent&) = default;
};

struct CollisionEvent {
  VecI wire_from;             ///< PE at the source end of the wire
  std::size_t primitive = 0;  ///< which interconnection primitive
  std::size_t dep = 0;        ///< dependence class
  Int cycle = 0;

  friend bool operator==(const CollisionEvent&,
                         const CollisionEvent&) = default;
};

struct SimulationReport {
  Int first_cycle = 0;
  Int last_cycle = 0;
  Int makespan = 0;  ///< last_cycle - first_cycle + 1
  std::uint64_t computations = 0;
  std::size_t num_processors = 0;
  /// The first few offending events, for diagnostics; capped (see
  /// truncated_events).  The COUNTS below are never capped.
  std::vector<ConflictEvent> conflicts;
  std::vector<CollisionEvent> collisions;
  /// Total number of computational conflicts (every computation beyond the
  /// first mapped to an occupied PE-cycle counts one), past any event cap.
  std::uint64_t total_conflicts = 0;
  /// Total number of collided wire-cycles (a directed wire carrying two or
  /// more data of one dependence class in one cycle counts once, at the
  /// moment the second datum arrives), past any event cap.
  std::uint64_t total_collisions = 0;
  /// Set when conflicts/collisions hold fewer events than the totals.
  bool truncated_events = false;
  /// Observed buffer high-water mark per dependence.
  VecI buffer_high_water;
  /// Set when a SemanticAlgorithm was simulated: do the array's results
  /// equal the sequential reference execution?
  bool values_checked = false;
  bool values_match = false;

  bool clean() const { return total_conflicts == 0 && total_collisions == 0; }

  /// Fraction of PE-cycles doing useful work: |J| / (PEs * makespan) --
  /// the classic systolic efficiency metric.  0 when nothing ran.
  double utilization() const {
    if (num_processors == 0 || makespan <= 0) return 0.0;
    return static_cast<double>(computations) /
           (static_cast<double>(num_processors) *
            static_cast<double>(makespan));
  }

  std::string summary() const;

  /// Field-wise equality: every scalar, both event lists in order, the
  /// buffer marks and the value verdict (what "bit-identical" means for
  /// the engine/seed parity).
  friend bool operator==(const SimulationReport&,
                         const SimulationReport&) = default;
};

/// Structural simulation (no values).
SimulationReport simulate(const model::UniformDependenceAlgorithm& algo,
                          const ArrayDesign& design);

/// Value-level simulation + verification against evaluate_reference.
SimulationReport simulate(const model::SemanticAlgorithm& algo,
                          const ArrayDesign& design);

/// The original sort-and-map implementation, preserved verbatim as the
/// parity oracle for the engine above (the *_seed pattern of the search
/// and space-sweep layers).
SimulationReport simulate_seed(const model::UniformDependenceAlgorithm& algo,
                               const ArrayDesign& design);
SimulationReport simulate_seed(const model::SemanticAlgorithm& algo,
                               const ArrayDesign& design);

namespace detail {
/// Shared seed implementation, also the engine's fallback when a box does
/// not pack (simulate() documents the regime).  `semantic` may be null.
SimulationReport simulate_seed_impl(
    const model::UniformDependenceAlgorithm& algo, const ArrayDesign& design,
    const model::SemanticAlgorithm* semantic);
/// The flat engine proper; lives in systolic/engine.cpp.
SimulationReport simulate_engine(const model::UniformDependenceAlgorithm& algo,
                                 const ArrayDesign& design,
                                 const model::SemanticAlgorithm* semantic);
}  // namespace detail

}  // namespace sysmap::systolic
