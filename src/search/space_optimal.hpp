// Problems 6.1 and 6.2 of the paper -- stated there as future work,
// implemented here as library extensions.
//
// Problem 6.1 (space-optimal, conflict-free): given a linear schedule Pi,
// find a space mapping S such that T = [S; Pi] is conflict-free and the
// array cost -- number of processors plus total wire length -- is minimal.
//
// Problem 6.2 (joint): neither S nor Pi given; explore the (S, Pi) design
// space and report the Pareto frontier of (makespan, array cost), since
// "a certain criterion" in the paper is deliberately open-ended.
//
// Cost model:
//   processors  = |{S j : j in J}|           (exact, by enumeration)
//   wire length = sum_i L1(S d_i)            (total link span per datum)
// Candidate S matrices enumerate all (k-1) x n integer matrices with
// entries in [-max_entry, max_entry], full row rank, first nonzero of each
// row positive (projective dedup), rows pairwise non-parallel.
//
// ENGINES.  space_optimal_mapping, explore_design_space and
// joint_time_optimal_mapping run the fast engine, one code path each on a
// shared sweep driver: lazy candidate enumeration (SpaceEnumerator),
// packed-image counting (support/flat_image_set.hpp), a closed-form
// injectivity shortcut via the kernel lattice, orbit-canonical processor
// count reuse (mapping::SpaceOrbitCanonicalizer), wire-first
// branch-and-bound pruning and an optional deterministic parallel sweep.
// The parallel sweep hands out chunks small enough that a 40-space sweep
// reaches four workers, runs sweeps of at most four spaces inline, and
// scans each schedule orbit once: a worker that meets an orbit another
// worker is scanning defers that space and scores it, as an orbit hit,
// once the feed runs dry (MappingPipeline::try_score / resume).
// The *_seed functions preserve the original serial std::set engines
// verbatim.  Each pair is BIT-IDENTICAL in (found, space, cost, verdict,
// candidates_tested), respectively (pareto, spaces_tested,
// feasible_spaces), for every thread count --
// tests/space_search_test.cpp and tests/pipeline_parity_test.cpp hold the
// pairs equal case by case.  How often each shortcut fired is advisory
// and lives in the search.space.* obs counters (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mapping/conflict.hpp"
#include "model/algorithm.hpp"
#include "schedule/linear_schedule.hpp"

namespace sysmap::search {

struct SpaceSearchOptions {
  Int max_entry = 1;            ///< |s_ij| bound for candidate rows
  std::size_t array_dims = 1;   ///< k - 1
  /// Skip candidates whose processor count cannot be evaluated within this
  /// many index points (guards |J| blowup; boxes here are small).  The
  /// comparison happens in unsigned 64-bit; index sets whose size does not
  /// fit int64 are over budget for every representable budget value.
  std::uint64_t enumeration_budget = 2'000'000;

  /// Workers for the candidate sweep; <= 1 runs the sweep inline on the
  /// caller thread, and a sweep never starts more workers than it has
  /// chunks of candidates.  Results are bit-identical for every thread
  /// count: the parallel reduction reproduces the serial incumbent order.
  std::size_t num_threads = 1;
};

struct ArrayCost {
  Int processors = 0;
  Int wire_length = 0;
  // SYSMAP_RAW_FASTPATH(bounded: both terms are counts accumulated over one
  // candidate's image walk, orders of magnitude below the 63-bit line)
  Int total() const { return processors + wire_length; }

  friend bool operator==(const ArrayCost&, const ArrayCost&) = default;
};

struct SpaceSearchResult {
  bool found = false;
  MatI space;
  ArrayCost cost;
  mapping::ConflictVerdict verdict;
  std::uint64_t candidates_tested = 0;

  friend bool operator==(const SpaceSearchResult&,
                         const SpaceSearchResult&) = default;
};

/// Problem 6.1: best S for a fixed Pi.  Minimizes processors + wire among
/// conflict-free full-rank T = [S; Pi].  Fast engine; bit-identical to
/// space_optimal_mapping_seed in (found, space, cost, verdict,
/// candidates_tested).  Wire-first branch-and-bound skips candidates whose
/// wire length plus a per-row processor lower bound already exceeds the
/// incumbent total strictly, and cuts image walks short once the running
/// count alone loses strictly; neither fires on ties, so the seed
/// tie-break order (fewer processors at equal total, then first seen)
/// is preserved.
SpaceSearchResult space_optimal_mapping(
    const model::UniformDependenceAlgorithm& algo, const VecI& pi,
    const SpaceSearchOptions& options = {});

/// The original serial engine, preserved verbatim as the parity oracle
/// for tests and the "seed" bench mode.  Ignores num_threads.
SpaceSearchResult space_optimal_mapping_seed(
    const model::UniformDependenceAlgorithm& algo, const VecI& pi,
    const SpaceSearchOptions& options = {});

/// One point of the Problem 6.2 design space.
struct DesignPoint {
  MatI space;
  VecI pi;
  Int makespan = 0;
  ArrayCost cost;

  friend bool operator==(const DesignPoint&, const DesignPoint&) = default;
};

struct DesignSpaceResult {
  /// Pareto-optimal (makespan, processors + wire) points, sorted by
  /// makespan ascending.
  std::vector<DesignPoint> pareto;
  std::uint64_t spaces_tested = 0;
  std::uint64_t feasible_spaces = 0;

  friend bool operator==(const DesignSpaceResult&,
                         const DesignSpaceResult&) = default;
};

/// Problem 6.2: sweep candidate S, find each one's time-optimal
/// conflict-free Pi (Procedure 5.1 / ILP via the Mapper), and keep the
/// Pareto frontier of (makespan, array cost).  Fast engine: one fused
/// MappingPipeline scores every space (certified objectives reused across
/// each schedule orbit, mapping::SpaceOrbitCanonicalizer), plus the
/// parallel sweep and fast cost evaluation; bit-identical to
/// explore_design_space_seed.
DesignSpaceResult explore_design_space(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {});

/// The original serial Problem 6.2 engine, preserved as parity oracle.
DesignSpaceResult explore_design_space_seed(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {});

/// The single best point of the Problem 6.2 design space: minimal
/// schedule objective first, then array cost (total, then processors),
/// then first-seen candidate order.  Unlike the Pareto sweep this query
/// has one winner, which is what lets the fused engine truncate hopeless
/// spaces with a cross-space incumbent bound.
struct JointMappingResult {
  bool found = false;
  MatI space;
  VecI pi;
  Int objective = 0;
  Int makespan = 0;
  mapping::ConflictVerdict verdict;
  ArrayCost cost;
  std::uint64_t spaces_tested = 0;

  friend bool operator==(const JointMappingResult&,
                         const JointMappingResult&) = default;
};

/// Fused joint query: one MappingPipeline persists across every candidate
/// space (schedule-orbit reuse), the best objective found so far caps
/// later searches (strict-only: equal-objective spaces
/// are never truncated, so cost tie-breaks and the serial winner survive),
/// and the sweep parallelizes over spaces with a deterministic
/// (objective, total, processors, pos) reduction -- bit-identical to
/// joint_time_optimal_mapping_seed for every thread count.  Spaces the
/// cap cut short are counted by the search.pipeline.truncated_by_cap obs
/// counter.
JointMappingResult joint_time_optimal_mapping(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {});

/// The cold-call oracle: per-space core-style scoring with no shared
/// state, every space fully searched and costed.
JointMappingResult joint_time_optimal_mapping_seed(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options = {});

/// Exact array cost of a given S on J (exposed for tests and benches).
/// Counts with support::count_images_generic, the std::set walk, so the
/// seed sweeps stay an oracle independent of the packed counter.
ArrayCost evaluate_array_cost(const model::UniformDependenceAlgorithm& algo,
                              const MatI& space);

/// Exact |{S j : j in J}|: support::count_images with a private table.
Int count_processor_images(const model::IndexSet& set, const MatI& space);

/// Lazy resumable enumerator over candidate space matrices, in the exact
/// order candidate_spaces() returns them: combinations of the dedup'd row
/// pool with strictly increasing pool indices (lexicographic), filtered
/// to full row rank.  Only the row pool (O((2*max_entry+1)^n)) is ever
/// materialized -- never the combination set, whose size is
/// C(pool, array_dims); the parallel feed and the regression test in
/// tests/space_search_test.cpp rely on draws staying O(pool) while the
/// combination count is astronomically large.
class SpaceEnumerator {
 public:
  SpaceEnumerator(std::size_t n, const SpaceSearchOptions& options);

  /// Copies the next candidate into `out` (resized to array_dims x n) and
  /// returns true; false once exhausted.
  bool next(MatI& out);

  bool exhausted() const { return done_; }
  /// Candidates produced so far (rank-passing only, matching the serial
  /// sweep's candidate count).
  std::uint64_t produced() const { return produced_; }
  /// C(pool, array_dims), saturating at UINT64_MAX: an upper bound on the
  /// candidates, before the rank filter.
  std::uint64_t max_candidates() const;
  /// Size of the materialized row pool (the only O(pool) allocation).
  std::size_t pool_size() const { return rows_.size(); }

 private:
  bool advance_indices();

  std::vector<VecI> rows_;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
  std::vector<std::size_t> idx_;
  bool started_ = false;
  bool done_ = false;
  std::uint64_t produced_ = 0;
};

/// rank(S) over Q, on machine words: for two rows, whether some 2 x 2
/// minor is nonzero (in 128-bit products); otherwise checked int64
/// fraction-free elimination with a BigInt restart on overflow.  Equals
/// linalg::rank(to_bigint(S)); SpaceEnumerator's rank filter.
std::size_t space_rank(const MatI& space);

/// Enumerates candidate space matrices per the dedup rules above
/// (materialized; thin wrapper over SpaceEnumerator).
std::vector<MatI> candidate_spaces(std::size_t n,
                                   const SpaceSearchOptions& options);

}  // namespace sysmap::search
