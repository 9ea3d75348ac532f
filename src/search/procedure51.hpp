// Procedure 5.1: optimal conflict-free schedule by candidate enumeration.
//
// Candidates Pi are enumerated in increasing objective f = sum |pi_i| mu_i
// (Theorem 2.1 makes f monotone in the |pi_i|, so the first candidate that
// passes all conditions is time-optimal).  Conditions checked per candidate
// (Step 5 of the procedure):
//   (1) Pi D > 0
//   (2) rank(T) = k
//   (3) T conflict-free -- by the exact theorem for k >= n-3, Theorem 4.5 /
//       exact enumeration otherwise (see decide_conflict_free)
//   (4) optionally S D = P K with column sums <= Pi d_i (fixed target array)
//
// The serial search walks each level with search::DependenceConeWalk
// (search/enumerate.hpp), which applies condition (1) to whole subtrees:
// a subtree in which no completion satisfies Pi D > 0 is never visited,
// and its candidates are added to candidates_tested in closed form.  The
// statistics therefore equal those of a walk over every candidate, which
// the streaming driver (search/parallel_search.hpp) still performs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "mapping/conflict.hpp"
#include "mapping/mapping_matrix.hpp"
#include "model/algorithm.hpp"
#include "schedule/interconnect.hpp"
#include "schedule/linear_schedule.hpp"

namespace sysmap::search {

class VerdictCache;
class FixedSpaceContext;

/// Which conflict oracle Step 5(3) uses.
enum class ConflictOracle {
  kPaperTheorems,  ///< Theorems 3.1/4.7/4.8/4.5 exactly as published
  kExact,          ///< library-exact dispatcher (validated witnesses)
  kBruteForce,     ///< full index-set scan (baseline; small J only)
};

struct SearchOptions {
  /// Start the scan at this objective value (used to resume above an ILP
  /// lower bound).
  Int min_objective = 0;
  /// Abort when f exceeds this bound; 0 selects default_max_objective.
  Int max_objective = 0;
  ConflictOracle oracle = ConflictOracle::kExact;
  /// Require routability on this target array (condition 4); nullopt
  /// designs a dedicated array instead (conditions 1-3 only).
  std::optional<schedule::Interconnect> target;
  /// Amortize per-candidate work with search::FixedSpaceContext (default).
  /// The context path is bit-identical to the from-scratch path (same
  /// verdicts, witnesses and statistics); disabling it exists for the
  /// search_throughput ablation and parity tests.  Under kBruteForce the
  /// context is never constructed regardless -- brute force consults none
  /// of its precomputes, so building one is pure overhead.
  bool use_fixed_space_context = true;
  /// Optional canonical-form verdict cache (see search/verdict_cache.hpp).
  /// Shareable across searches (multi-S sweeps) and across the parallel
  /// driver's workers; results stay bit-identical -- only the hit/miss
  /// counters below observe it.  Never consulted under kBruteForce.
  VerdictCache* verdict_cache = nullptr;
  /// Optional caller-owned context for this exact (J, S) pair, borrowed for
  /// the duration of the call; nullptr lets the search build its own.  Lets
  /// a driver that runs SEVERAL searches against one space (ILP
  /// certification sweep + fall-through, orbit-seeded re-runs) pay the
  /// context construction once.  Ignored when use_fixed_space_context is
  /// false or the oracle is kBruteForce (matching the own-context policy).
  const FixedSpaceContext* context = nullptr;
  /// Streaming driver only: when the total candidate count through
  /// max_objective is known to be at most this many, the parallel search
  /// resolves the whole scan serially on the calling thread before
  /// spinning up (or even constructing) the worker pool -- tiny problems
  /// otherwise pay more in chunk traffic than the scan itself costs
  /// (BENCH_search.json showed ~0.09x on 261-candidate cases).  The serial
  /// prefix reuses the worker code path chunk by chunk, so every statistic
  /// stays bit-identical.  0 disables the cutoff.
  std::size_t streaming_serial_cutoff = 1024;
};

struct SearchResult {
  bool found = false;
  VecI pi;                            ///< optimal schedule vector
  Int objective = 0;                  ///< f = sum |pi_i| mu_i
  Int makespan = 0;                   ///< t = f + 1
  mapping::ConflictVerdict verdict;   ///< rule that certified Pi
  std::optional<schedule::Routing> routing;  ///< when target was given
  std::uint64_t candidates_tested = 0;
  std::uint64_t candidates_passed_dependence = 0;
  /// Verdict-cache traffic attributable to this search (deltas of the
  /// shared cache's counters).  NOT part of the bit-identical result
  /// contract: parallel interleaving makes per-run counts nondeterministic.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Streaming scheduler only: chunks drawn from the shared feed beyond
  /// each worker's first draw (the work-stealing metric; 0 when serial).
  std::uint64_t chunks_stolen = 0;
  /// Streaming scheduler only, advisory: the serial small-problem cutoff
  /// resolved the search on the calling thread without waking the pool
  /// (see SearchOptions::streaming_serial_cutoff).  Like the cache and
  /// steal counters, NOT part of the bit-identical result contract.
  bool serial_prefix_resolved = false;
};

/// The objective bound a search applies when SearchOptions::max_objective
/// is 0: the heuristic 4 * (max mu + 1) * sum(mu).
Int default_max_objective(const model::IndexSet& set);

/// Runs Procedure 5.1 for algorithm (J, D) and space mapping S.
SearchResult procedure_5_1(const model::UniformDependenceAlgorithm& algo,
                           const MatI& space, const SearchOptions& options = {});

/// Enumerates every integral Pi with sum |pi_i| mu_i == f in deterministic
/// (lexicographic) order; returns false when the callback aborts the scan.
/// Type-erased convenience wrapper over search::for_each_schedule_at
/// (search/enumerate.hpp), which the search drivers call directly so the
/// per-candidate visit inlines.
bool enumerate_schedules_at(const model::IndexSet& set, Int f,
                            const std::function<bool(const VecI&)>& visit);

/// Step 5(3)'s conflict decision for one candidate, from scratch: the
/// published-theorem dispatch (kPaperTheorems), the library-exact
/// dispatcher (kExact) or the brute-force baseline.  Shared by the serial
/// and parallel searches and by FixedSpaceContext's fallback path.
mapping::ConflictVerdict run_conflict_oracle(ConflictOracle oracle,
                                             const mapping::MappingMatrix& t,
                                             const model::IndexSet& set);

}  // namespace sysmap::search
