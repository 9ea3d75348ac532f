// Parity suite for searches whose levels or bound lie above 2^18 reduced
// objective levels, where the cone prune, the pigeonhole start and the
// fused pipeline's schedule-orbit memo once stood down because a
// closed-form candidate count could not be formed there.  Each now runs
// at every level, and every answer must still equal the unpruned
// from-scratch scan (tests/reference_scan.hpp) and the stateless cold
// find_time_optimal(): found, Pi, objective, makespan and verdict.  With
// SYSMAP_OBS=ON the counters show that each shortcut ran.  Runs under
// TSan in CI (one case shares a fused pipeline across threads).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "model/gallery.hpp"
#include "obs/obs.hpp"
#include "reference_scan.hpp"
#include "search/pipeline.hpp"
#include "search/space_optimal.hpp"

namespace sysmap::search {
namespace {

/// The reduced level above which the removed count tables stopped.
constexpr Int kOldLevelCap = Int{1} << 18;

std::uint64_t counter_total(const std::string& name) {
  for (const obs::Metric& m : obs::snapshot()) {
    if (m.name == name) return m.total;
  }
  return 0;
}

void expect_answer(const SearchResult& ref, const MappingSolution& got,
                   const std::string& label) {
  ASSERT_EQ(ref.found, got.found) << label;
  if (!ref.found) return;
  EXPECT_EQ(ref.pi, got.pi) << label;
  EXPECT_EQ(ref.objective, got.objective) << label;
  EXPECT_EQ(ref.makespan, got.makespan) << label;
  EXPECT_EQ(ref.verdict, got.verdict) << label;
}

// Scores one algorithm's spaces cold, fused, and fused again (warm orbit
// entries), each against the reference scan up to the pipeline's bound.
void expect_pipeline_matches(const model::UniformDependenceAlgorithm& algo,
                             const std::vector<MatI>& spaces,
                             const PipelineOptions& options,
                             const std::string& name) {
  const MappingPipeline cold(options);
  MappingPipeline fused(options);
  fused.enable_fusion({});
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < spaces.size(); ++s) {
      const std::string label = name + "/pass" + std::to_string(pass) +
                                "/space" + std::to_string(s);
      const SearchResult ref =
          reference_scan(algo, spaces[s], options.max_objective);
      ASSERT_TRUE(ref.found) << label;
      const MappingSolution expected = cold.find_time_optimal(algo, spaces[s]);
      const MappingSolution got = fused.score(algo, spaces[s]);
      expect_answer(ref, expected, label + "/cold");
      expect_answer(ref, got, label + "/fused");
      EXPECT_TRUE(expected == got) << label;
    }
  }
}

// (a) A pipeline bound above the old cap: matmul(4) has stride 4, so a
// bound of 4 (2^18 + 1) spans 2^18 + 1 reduced levels.  The schedule-orbit
// memo used to stand down for the whole algorithm there; now the one-row
// spaces that share an orbit hit it.
TEST(LargeBoundParity, PipelineBoundAboveTheOldCapKeepsTheOrbitMemo) {
  const model::UniformDependenceAlgorithm algo = model::matmul(4);
  SpaceSearchOptions pool_options;
  pool_options.array_dims = 1;
  const std::vector<MatI> spaces = candidate_spaces(3, pool_options);
  ASSERT_GT(spaces.size(), 3u);
  for (bool design : {false, true}) {
    PipelineOptions options;
    options.method = Method::kProcedure51;
    options.design_array = design;
    options.max_objective = 4 * (kOldLevelCap + 1);
    if (obs::kEnabled) obs::reset();
    expect_pipeline_matches(algo, spaces, options,
                            design ? "matmul/design" : "matmul");
    if (obs::kEnabled) {
      EXPECT_GT(counter_total("search.pipeline.orbit_hits"), 0u);
    }
  }
}

// (a), shared across threads: four workers score the pool through one
// fused pipeline, each from its own offset, and every answer equals the
// cold one.
TEST(LargeBoundParity, ConcurrentScoresAboveTheOldCapMatchCold) {
  const model::UniformDependenceAlgorithm algo =
      model::transitive_closure(4);
  SpaceSearchOptions pool_options;
  pool_options.array_dims = 1;
  const std::vector<MatI> spaces = candidate_spaces(3, pool_options);
  PipelineOptions options;
  options.method = Method::kProcedure51;
  options.design_array = false;
  options.max_objective = 4 * (kOldLevelCap + 1);  // stride 4
  const MappingPipeline cold(options);
  std::vector<MappingSolution> expected;
  for (const MatI& space : spaces) {
    expected.push_back(cold.find_time_optimal(algo, space));
    ASSERT_TRUE(expected.back().found);
  }
  MappingPipeline fused(options);
  fused.enable_fusion({});
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<MappingSolution>> got(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < spaces.size(); ++i) {
        got[t].push_back(
            fused.score(algo, spaces[(i + 3 * t) % spaces.size()]));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      EXPECT_TRUE(got[t][i] == expected[(i + 3 * t) % spaces.size()])
          << "thread " << t << " space " << i;
    }
  }
}

// (b) A cone-walk level above the old cap: mu = (2^17 + 1, 2^17 + 2) has
// stride 1, and the cone 2 pi_0 > pi_1, 2 pi_1 > pi_0 first holds at
// (1, 1), level 2^18 + 3.  |J| is too large to count fibers, so every
// scan starts at level 1; the prune cuts the six candidates below, so
// each scan visits the one leaf (1, 1).  The fused repeat is an orbit hit
// seeded at f*.
TEST(LargeBoundParity, ConeWalkLevelAboveTheOldCapMatchesReference) {
  const Int mu0 = kOldLevelCap / 2 + 1;
  const model::UniformDependenceAlgorithm algo(
      "above cap", model::IndexSet(VecI{mu0, mu0 + 1}),
      MatI{{2, -1}, {-1, 2}});
  const MatI space{{1, 0}};
  PipelineOptions options;
  options.design_array = false;
  const SearchResult ref = reference_scan(
      algo, space, default_max_objective(algo.index_set()));
  ASSERT_TRUE(ref.found);
  ASSERT_EQ(ref.objective, kOldLevelCap + 3);
  ASSERT_EQ(ref.pi, (VecI{1, 1}));
  const MappingPipeline cold(options);
  MappingPipeline fused(options);
  fused.enable_fusion({});
  if (obs::kEnabled) obs::reset();
  const MappingSolution expected = cold.find_time_optimal(algo, space);
  expect_answer(ref, expected, "cold");
  EXPECT_EQ(expected.candidates_tested, 1u);
  for (int pass = 0; pass < 2; ++pass) {
    const MappingSolution got = fused.score(algo, space);
    expect_answer(ref, got, "fused" + std::to_string(pass));
    EXPECT_TRUE(expected == got) << pass;
    EXPECT_EQ(got.candidates_tested, 1u) << pass;
  }
  if (obs::kEnabled) {
    EXPECT_EQ(counter_total("search.procedure51.leaves_visited"), 3u);
    EXPECT_GT(counter_total("search.procedure51.cone_cuts"), 0u);
    EXPECT_EQ(counter_total("search.pipeline.orbit_hits"), 1u);
  }
}

// A pigeonhole start above the old cap: on mu = (300000, 1) the fibers of
// S = [0 1] hold 300001 points, so every scan starts at level 300000 and
// visits one leaf, (1, 1) at level 300001, where the scan from level 1
// would walk 300000 levels first.
TEST(LargeBoundParity, PigeonholeStartAboveTheOldCapMatchesReference) {
  const Int wide = 300000;
  ASSERT_GT(wide, kOldLevelCap);
  const model::UniformDependenceAlgorithm algo(
      "wide", model::IndexSet(VecI{wide, 1}), MatI{{1, 0}, {0, 1}});
  const MatI space{{0, 1}};
  PipelineOptions options;
  options.design_array = false;
  const SearchResult ref = reference_scan(
      algo, space, default_max_objective(algo.index_set()));
  ASSERT_TRUE(ref.found);
  ASSERT_EQ(ref.objective, wide + 1);
  const MappingPipeline cold(options);
  MappingPipeline fused(options);
  fused.enable_fusion({});
  if (obs::kEnabled) obs::reset();
  const MappingSolution expected = cold.find_time_optimal(algo, space);
  expect_answer(ref, expected, "cold");
  EXPECT_EQ(expected.candidates_tested, 1u);
  const MappingSolution got = fused.score(algo, space);
  expect_answer(ref, got, "fused");
  EXPECT_TRUE(expected == got);
  if (obs::kEnabled) {
    EXPECT_EQ(counter_total("search.pipeline.pigeonhole_levels_skipped"),
              2 * static_cast<std::uint64_t>(wide - 1));
    EXPECT_EQ(counter_total("search.procedure51.leaves_visited"), 2u);
  }
}

}  // namespace
}  // namespace sysmap::search
