// The end-to-end "given S, find a certified time-optimal Pi" scoring
// engine (Problem 2.2), extracted from the core::Mapper facade so the
// Problem 6.1/6.2 design-space sweeps can score candidate spaces without
// reaching up the layering DAG (the former search->core inversion).
//
// Strategy (Section 5's two routes, combined for exactness):
//  - for k = n-1, the ILP formulation (5.1)-(5.2) produces a candidate and
//    a lower bound quickly; because of the appendix's gcd caveat the
//    candidate is verified, and a bounded Procedure-5.1 sweep between the
//    lower bound and the candidate's objective certifies global optimality;
//  - otherwise Procedure 5.1 runs directly (optimal for k >= n-3 by the
//    exact theorems; exact here for every k via the validated dispatcher).
//
// PIGEONHOLE START.  A conflict-free T = [S; Pi] is injective on J
// (Theorem 2.2), so the F(S) points of S's largest fiber need F(S)
// distinct times Pi j, and on the box Pi j takes at most f + 1 values:
// f* >= F(S) - 1.  Every full Procedure 5.1 scan (cold, fused orbit miss,
// fall-through after an unverified ILP) therefore starts at the first
// objective level on the stride that is >= F(S) - 1
// (support::largest_fiber); the skipped levels hold no feasible Pi, so
// the answer equals the scan from level 1.  When that level lies beyond
// the bound, the search returns not-found without scanning.  The scan
// starts at level 1 instead when a bound on F(S) from S alone shows it
// cannot lift the start (no walk of J then), the image box does not pack,
// or a skipped candidate's Pi D could overflow (the scan from level 1
// would throw there).  The ILP route keeps its own lower bound.
//
// COLD vs FUSED.  find_time_optimal() is the stateless cold path --
// byte-for-byte the old core::Mapper::find_time_optimal, preserved as the
// parity oracle.  score() is the fused path for sweeps that score MANY
// spaces against one algorithm: a pipeline with fusion enabled carries
//  (a) a memo of positive_orthant_forced per dependence matrix, so the
//      ILP route pays its cone LPs once per D, not once per query,
//  (b) a schedule-orbit cache mapping the schedule-orbit key of S
//      (mapping::SpaceOrbitCanonicalizer, built once per algorithm) to
//      the certified optimal objective f* (or to "none up to bound B"); a
//      hit re-runs the search seeded at min_objective = f*, which
//      reproduces the cold winner and verdict while skipping every screen
//      below f*,
//  (c) a row-space memo, checked before (b): an uncapped Procedure 5.1
//      solve of an S with two or more rows whose rational row space (its
//      primitive integer RREF, mapping::row_space_key) an earlier solve
//      answered takes that answer -- found, Pi and objective -- and
//      recomputes only the verdict, with one FixedSpaceContext::screen
//      of Pi on the actual S.  Exact because
//      the feasible Pi at every level, F(S) and the cone walk depend on S
//      only through its row space (Theorems 2.2 and 4.2: the conflict
//      vectors are the primitive gamma with S gamma = 0 = Pi gamma).  It
//      stands down under a cap, a target interconnect, one-row S, and
//      after the ILP route ran.  Each row space is a fixed 24-byte record
//      (int8 RREF cells and Pi) with no heap node of its own: on
//      design_sweep it costs 3-5 % peak RSS over the memo-free build,
//      where an unordered_map cost 17 %.  A space whose values do not fit
//      int8 is not memoized.  A hit also enters S's schedule orbit with
//      the answer, so the orbit-miss count is the same at every thread
//      count,
//  (d) an optional caller-supplied incumbent cap on the objective
//      (Int cap) that truncates searches which provably cannot beat the
//      best full mapping found so far.
// Each schedule orbit is scanned ONCE, whatever the thread count: the
// first solve that misses an orbit claims it, and a concurrent solve of
// the same orbit waits for that scan (score) or hands the space back as
// a Deferred to finish later as a hit (try_score / resume), so a sweep
// worker keeps scoring other spaces meanwhile.  A row-space answer is
// stored before the orbit's claim drops, so a deferred space finds it
// when it resumes.
// Conflict verdicts are NOT memoized: every candidate is decided by
// FixedSpaceContext::screen directly, exactly as on the cold path.  The
// raw kernel-witness screen rejects almost every k <= n-2 candidate
// faster than a verdict memo could look it up (docs/PERF.md, "Why there
// is no verdict cache").
// score() without a cap returns the answer of find_time_optimal() -- every
// field but the advisory candidates_tested, which counts only the leaves
// the call walked -- for any interleaving of spaces and threads; the
// fusion state is internally synchronized, so one const pipeline may be
// shared by every worker of a sweep.  The fusion's advisory counts (orbit hits, misses
// and deferrals, seeded re-runs, row-space hits, pigeonhole-skipped
// levels, cap truncations) live only in the search.pipeline.* obs counters
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "mapping/canonical_key.hpp"
#include "mapping/conflict.hpp"
#include "model/algorithm.hpp"
#include "schedule/interconnect.hpp"
#include "search/procedure51.hpp"
#include "systolic/array.hpp"
#include "systolic/simulator.hpp"

namespace sysmap::search {

enum class Method {
  kAuto,          ///< ILP + certification when applicable, else Procedure 5.1
  kProcedure51,   ///< pure enumeration (paper's Procedure 5.1)
  kIlpCertified,  ///< force the ILP + certification route (k = n-1 only)
};

struct PipelineOptions {
  Method method = Method::kAuto;
  /// Fixed target interconnect (condition 2 of Definition 2.2); nullopt
  /// designs a dedicated array.
  std::optional<schedule::Interconnect> target;
  /// Run the cycle-accurate simulator on the final design.
  bool simulate = false;
  /// Objective cap forwarded to Procedure 5.1 (0 = heuristic default).
  Int max_objective = 0;
  /// Design the processor array for a found schedule (dedicated links, or
  /// the target when one is set).  The facade keeps this on; the design-
  /// space sweeps turn it off -- they consume only (found, pi, makespan)
  /// per candidate and would otherwise pay a full array design per space.
  bool design_array = true;
};

struct MappingSolution {
  bool found = false;
  VecI pi;
  Int objective = 0;
  Int makespan = 0;
  mapping::ConflictVerdict verdict;
  std::string method_used;
  std::optional<systolic::ArrayDesign> array;
  std::optional<systolic::SimulationReport> simulation;
  /// Advisory: the Procedure 5.1 leaves this call visited (certification
  /// sweep, seeded re-run or full scan); 0 when a fused memo answered the
  /// call or no scan ran.  Not part of the answer.
  std::uint64_t candidates_tested = 0;
  std::uint64_t ilp_nodes = 0;
  /// Advisory, fused path only: the incumbent cap truncated this search
  /// before its heuristic bound (found stays false; the space provably
  /// cannot beat the incumbent objective).  The cold path never sets it.
  bool truncated_by_cap = false;

  /// Compares the answer fields, truncated_by_cap included (a caller
  /// comparing a capped score() against the cold path clears that flag
  /// first); candidates_tested is advisory and not compared.
  friend bool operator==(const MappingSolution& a, const MappingSolution& b) {
    return a.found == b.found && a.pi == b.pi && a.objective == b.objective &&
           a.makespan == b.makespan && a.verdict == b.verdict &&
           a.method_used == b.method_used && a.array == b.array &&
           a.simulation == b.simulation && a.ilp_nodes == b.ilp_nodes &&
           a.truncated_by_cap == b.truncated_by_cap;
  }
};

class MappingPipeline {
 public:
  explicit MappingPipeline(PipelineOptions options = {});
  ~MappingPipeline();

  MappingPipeline(const MappingPipeline&) = delete;
  MappingPipeline& operator=(const MappingPipeline&) = delete;

  const PipelineOptions& options() const { return options_; }

  /// Solves Problem 2.2 for (algo, S); S has k-1 rows.  Stateless cold
  /// path -- never consults the fusion state, so a fused pipeline can
  /// still serve as its own parity oracle.
  MappingSolution find_time_optimal(
      const model::UniformDependenceAlgorithm& algo, const MatI& space) const;

  /// Fusion has no settings today.  The struct stays so that callers can
  /// keep writing enable_fusion({}).
  struct FusionOptions {};

  /// Arms the fused path.  Call once, before the first score(); the
  /// per-algorithm state (orbit entries, row-space answers) resets
  /// automatically when score() sees a different algorithm.  The
  /// schedule-orbit cache (b) is always on, except with a target
  /// interconnect: routing reads S D, which the orbit moves do not
  /// preserve, so such pipelines skip it automatically.
  void enable_fusion(const FusionOptions& fusion);
  bool fusion_enabled() const { return fusion_ != nullptr; }

  static constexpr Int kNoCap = 0;

  /// Fused scoring.  With cap == kNoCap the result equals
  /// find_time_optimal() (operator==).  A positive cap is an INCLUSIVE
  /// incumbent bound on the objective: mappings with
  /// objective <= cap are returned exactly as the cold path would return
  /// them; spaces whose optimum provably exceeds the cap come back
  /// found = false (truncated_by_cap set when the heuristic bound alone
  /// would not have stopped the search).  Thread-safe; one pipeline may be
  /// shared across sweep workers.  A score() of a space whose schedule
  /// orbit another thread is scanning waits for that scan and then hits.
  MappingSolution score(const model::UniformDependenceAlgorithm& algo,
                        const MatI& space, Int cap = kNoCap) const;

  /// A score() that try_score() put off because another thread was
  /// running the full scan of the space's schedule orbit.  Carries the
  /// orbit key, so resume() does not canonicalize the space again.
  struct Deferred {
    MatI space;
    mapping::ConflictKey orbit_key;
  };

  /// score() for a sweep worker with other spaces to score: when another
  /// thread is already scanning S's schedule orbit, returns a Deferred at
  /// once instead of waiting.  Otherwise exactly score().
  std::variant<MappingSolution, Deferred> try_score(
      const model::UniformDependenceAlgorithm& algo, const MatI& space,
      Int cap = kNoCap) const;

  /// Finishes a deferred score against the same algorithm, waiting for
  /// the orbit's scan when it is still running; equal to
  /// score(algo, deferred.space, cap).
  MappingSolution resume(const model::UniformDependenceAlgorithm& algo,
                         const Deferred& deferred, Int cap = kNoCap) const;

 private:
  struct Fusion;

  /// nullopt only when `may_defer` and another thread holds the orbit's
  /// scan; `orbit_key`, when given, caches the schedule-orbit key of S
  /// across the deferral.
  std::optional<MappingSolution> solve(
      const model::UniformDependenceAlgorithm& algo, const MatI& space,
      Fusion* fusion, Int cap, std::optional<mapping::ConflictKey>* orbit_key,
      bool may_defer) const;

  PipelineOptions options_;
  std::unique_ptr<Fusion> fusion_;
};

}  // namespace sysmap::search
