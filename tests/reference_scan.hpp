// Unpruned Procedure 5.1 from scratch, shared by the search parity tests:
// every candidate of every level in plain order, the checked dependence
// test, the from-scratch rank test and run_conflict_oracle under the
// given oracle, then routing on the target array when one is set.  No
// cone pruning, no FixedSpaceContext, no cache -- the per-candidate
// references the serial search must reproduce exactly.
#pragma once

#include <optional>
#include <utility>

#include "mapping/mapping_matrix.hpp"
#include "model/algorithm.hpp"
#include "schedule/interconnect.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/enumerate.hpp"
#include "search/procedure51.hpp"

namespace sysmap::search {

inline SearchResult reference_scan(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    Int max_objective, ConflictOracle oracle = ConflictOracle::kExact,
    const std::optional<schedule::Interconnect>& target = std::nullopt) {
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  SearchResult result;
  const Int stride = objective_level_stride(set);
  for (Int f = stride; f <= max_objective && !result.found; f += stride) {
    for_each_schedule_at(set, f, [&](const VecI& pi) {
      ++result.candidates_tested;
      if (!schedule::respects_dependences(pi, d)) return true;
      ++result.candidates_passed_dependence;
      const mapping::MappingMatrix t(space, pi);
      if (!t.has_full_rank()) return true;
      mapping::ConflictVerdict verdict = run_conflict_oracle(oracle, t, set);
      if (!verdict.conflict_free()) return true;
      std::optional<schedule::Routing> routing;
      if (target) {
        routing = schedule::route(space, d, *target,
                                  schedule::LinearSchedule(pi));
        if (!routing) return true;
      }
      result.found = true;
      result.pi = pi;
      result.objective = f;
      result.makespan = f + 1;
      result.verdict = std::move(verdict);
      result.routing = std::move(routing);
      return false;
    });
  }
  return result;
}

}  // namespace sysmap::search
