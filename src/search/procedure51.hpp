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
// Conditions (2) and (3) are decided by one module under every oracle:
// search::FixedSpaceContext::screen (search/fixed_space.hpp), afresh for
// every candidate.
//
// The serial search walks each level with search::DependenceConeWalk
// (search/enumerate.hpp), which applies condition (1) to whole subtrees:
// a subtree in which no completion satisfies Pi D > 0 is never visited.
// The answer (found, Pi, objective, verdict, routing) is the first
// feasible candidate of a walk over every candidate; candidates_tested is
// advisory and counts only the leaves this call visited.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "mapping/conflict.hpp"
#include "mapping/mapping_matrix.hpp"
#include "model/algorithm.hpp"
#include "schedule/interconnect.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/verdict_cache.hpp"

namespace sysmap::search {

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
  /// Inert; kept so sysbench compiles. ROADMAP item 1 deletes it.
  VerdictCache* verdict_cache = nullptr;
  /// Optional caller-owned search::FixedSpaceContext for this exact
  /// (J, S) pair, borrowed for the duration of the call; nullptr lets the
  /// search build its own.  Every candidate that passes Pi D > 0 is
  /// screened through the context (Step 5(2)+(3)), under every oracle.
  /// Lets a driver that runs SEVERAL searches against one space (ILP
  /// certification sweep + fall-through, orbit-seeded re-runs) pay the
  /// context construction once.
  const FixedSpaceContext* context = nullptr;
};

struct SearchResult {
  bool found = false;
  VecI pi;                            ///< optimal schedule vector
  Int objective = 0;                  ///< f = sum |pi_i| mu_i
  Int makespan = 0;                   ///< t = f + 1
  mapping::ConflictVerdict verdict;   ///< rule that certified Pi
  std::optional<schedule::Routing> routing;  ///< when target was given
  /// Advisory: the leaves this call's cone walk visited (its
  /// search.procedure51.leaves_visited record).  Not part of the answer:
  /// a walk that starts higher or prunes more visits fewer.
  std::uint64_t candidates_tested = 0;

  /// Compares the answer fields; candidates_tested is advisory.
  friend bool operator==(const SearchResult& a, const SearchResult& b) {
    return a.found == b.found && a.pi == b.pi && a.objective == b.objective &&
           a.makespan == b.makespan && a.verdict == b.verdict &&
           a.routing == b.routing;
  }
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
/// (search/enumerate.hpp), which hot loops call directly so the
/// per-candidate visit inlines.
bool enumerate_schedules_at(const model::IndexSet& set, Int f,
                            const std::function<bool(const VecI&)>& visit);

/// Step 5(3)'s conflict decision for one candidate, from scratch: the
/// published-theorem dispatch (kPaperTheorems), the library-exact
/// dispatcher (kExact) or the brute-force baseline.  FixedSpaceContext
/// falls back to it for rank-deficient S, and procedure_5_1's contract
/// check re-runs it on the winner.
mapping::ConflictVerdict run_conflict_oracle(ConflictOracle oracle,
                                             const mapping::MappingMatrix& t,
                                             const model::IndexSet& set);

}  // namespace sysmap::search
