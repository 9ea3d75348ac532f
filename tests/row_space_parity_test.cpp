// Parity suite for the fused pipeline's row-space memo
// (search/pipeline.cpp): spaces that span one rational row space share
// their Procedure 5.1 answer, so a fused score() of a later basis takes
// the stored Pi, objective and candidates_tested and recomputes only the
// verdict on its own S.  Every result must still equal the stateless cold
// find_time_optimal() field by field -- under array design on and off,
// interleaved with a second algorithm, and where the memo must stand
// down: a capped call, the kAuto k = n-1 ILP route (its fall-through
// included), and a target-interconnect pipeline.  Runs under TSan in CI
// (the concurrent case shares the memo across threads).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "model/gallery.hpp"
#include "obs/obs.hpp"
#include "schedule/interconnect.hpp"
#include "search/pipeline.hpp"
#include "search/space_optimal.hpp"

namespace sysmap::search {
namespace {

std::uint64_t counter_total(const std::string& name) {
  for (const obs::Metric& m : obs::snapshot()) {
    if (m.name == name) return m.total;
  }
  return 0;
}

std::uint64_t row_space_hits() {
  return counter_total("search.pipeline.row_space_hits");
}

// Every MappingSolution field but the advisory truncated_by_cap, one by
// one so a failure names the field.
void expect_same_solution(const MappingSolution& cold,
                          const MappingSolution& fused,
                          const std::string& label) {
  MappingSolution contract = fused;
  contract.truncated_by_cap = cold.truncated_by_cap;
  EXPECT_TRUE(cold == contract) << label;
  EXPECT_EQ(cold.found, fused.found) << label;
  EXPECT_EQ(cold.pi, fused.pi) << label;
  EXPECT_EQ(cold.objective, fused.objective) << label;
  EXPECT_EQ(cold.makespan, fused.makespan) << label;
  EXPECT_EQ(cold.candidates_tested, fused.candidates_tested) << label;
  EXPECT_EQ(cold.ilp_nodes, fused.ilp_nodes) << label;
  EXPECT_EQ(cold.method_used, fused.method_used) << label;
  EXPECT_EQ(cold.verdict.status, fused.verdict.status) << label;
  EXPECT_EQ(cold.verdict.rule, fused.verdict.rule) << label;
  EXPECT_EQ(cold.verdict.witness, fused.verdict.witness) << label;
  EXPECT_EQ(cold.array, fused.array) << label;
  EXPECT_EQ(cold.simulation, fused.simulation) << label;
}

// One rational row space under three bases, and a second one under two.
const MatI kPlaneA{{1, 1, 0, 0}, {0, 1, 1, 0}};
const MatI kPlaneB{{1, 2, 1, 0}, {0, 1, 1, 0}};
const MatI kPlaneC{{1, 0, -1, 0}, {0, 1, 1, 0}};
const MatI kOtherA{{1, 0, 0, 1}, {0, 1, 0, 1}};
const MatI kOtherB{{1, -1, 0, 0}, {0, 1, 0, 1}};
// A row space whose kAuto solves fall through from the ILP to Procedure
// 5.1 on unit_cube(4, 2), under two bases.
const MatI kFallA{{1, -1, -1, -1}, {1, 1, -1, -1}};
const MatI kFallB{{1, -1, -1, -1}, {1, 0, -1, -1}};

struct Step {
  const model::UniformDependenceAlgorithm* algo;
  const MatI* space;
  Int cap;
};

// Scores `steps` through one fused pipeline and each step cold; returns
// the row-space hits the fused calls counted (0 with obs off).
std::uint64_t run_stream(const PipelineOptions& options,
                         const std::vector<Step>& steps,
                         const std::string& name) {
  const MappingPipeline cold(options);
  MappingPipeline fused(options);
  fused.enable_fusion({});
  obs::reset();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    const std::string label = name + "/step" + std::to_string(i);
    const MappingSolution expected =
        cold.find_time_optimal(*step.algo, *step.space);
    const std::uint64_t before = row_space_hits();
    const MappingSolution got = fused.score(*step.algo, *step.space, step.cap);
    if (step.cap == MappingPipeline::kNoCap ||
        (expected.found && expected.objective <= step.cap)) {
      expect_same_solution(expected, got, label);
    } else {
      EXPECT_FALSE(got.found) << label;
    }
    if (step.cap != MappingPipeline::kNoCap) {
      EXPECT_EQ(row_space_hits(), before) << label << ": capped call hit";
    }
  }
  return row_space_hits();
}

TEST(RowSpaceParity, FusedStreamMatchesColdProcedure51) {
  const model::UniformDependenceAlgorithm cube =
      model::unit_cube_algorithm(4, 2);
  const model::UniformDependenceAlgorithm other =
      model::unit_cube_algorithm(4, 3);
  const MappingSolution optimum =
      MappingPipeline().find_time_optimal(cube, kPlaneA);
  ASSERT_TRUE(optimum.found);
  const std::vector<Step> steps = {
      {&cube, &kPlaneA, MappingPipeline::kNoCap},
      {&cube, &kPlaneB, MappingPipeline::kNoCap},
      {&other, &kPlaneA, MappingPipeline::kNoCap},
      {&other, &kPlaneC, MappingPipeline::kNoCap},
      {&cube, &kPlaneC, MappingPipeline::kNoCap},
      {&cube, &kOtherA, MappingPipeline::kNoCap},
      {&cube, &kPlaneB, optimum.objective - 1},
      {&cube, &kOtherB, MappingPipeline::kNoCap},
      {&other, &kOtherB, MappingPipeline::kNoCap},
      {&other, &kOtherA, MappingPipeline::kNoCap},
      {&cube, &kPlaneB, optimum.objective},
      {&cube, &kPlaneA, MappingPipeline::kNoCap},
  };
  for (bool design : {false, true}) {
    PipelineOptions options;
    options.method = Method::kProcedure51;
    options.design_array = design;
    const std::uint64_t hits = run_stream(
        options, steps, design ? "procedure51/design" : "procedure51");
    if (obs::kEnabled) {
      EXPECT_GT(hits, 0u);
    }
  }
}

// Under kAuto every two-row S over n = 4 takes the ILP route first (k =
// n-1), so the memo stands down, also where the ILP finds nothing
// verified and the solve falls through to Procedure 5.1.
TEST(RowSpaceParity, IlpRouteStandsDown) {
  const model::UniformDependenceAlgorithm cube =
      model::unit_cube_algorithm(4, 2);
  const MappingSolution fall =
      MappingPipeline().find_time_optimal(cube, kFallA);
  ASSERT_EQ(fall.method_used, "Procedure 5.1");
  ASSERT_GT(fall.ilp_nodes, 0u);
  const std::vector<Step> steps = {
      {&cube, &kFallA, MappingPipeline::kNoCap},
      {&cube, &kPlaneA, MappingPipeline::kNoCap},
      {&cube, &kFallB, MappingPipeline::kNoCap},
      {&cube, &kPlaneB, MappingPipeline::kNoCap},
      {&cube, &kFallA, MappingPipeline::kNoCap},
  };
  for (bool design : {false, true}) {
    PipelineOptions options;
    options.design_array = design;
    EXPECT_EQ(run_stream(options, steps, design ? "auto/design" : "auto"), 0u);
  }
}

// A target interconnect makes routing read S D, so the memo stands down.
TEST(RowSpaceParity, TargetPipelineStandsDown) {
  const model::UniformDependenceAlgorithm cube =
      model::unit_cube_algorithm(4, 2);
  const std::vector<Step> steps = {
      {&cube, &kPlaneA, MappingPipeline::kNoCap},
      {&cube, &kPlaneB, MappingPipeline::kNoCap},
      {&cube, &kPlaneC, MappingPipeline::kNoCap},
  };
  PipelineOptions options;
  options.method = Method::kProcedure51;
  options.target = schedule::Interconnect::nearest_neighbor(2);
  EXPECT_EQ(run_stream(options, steps, "target"), 0u);
}

// Four threads score the two-row pool of unit_cube(4, 2) through one fused
// pipeline, each in its own order, deferring spaces whose orbit another
// thread is scanning and resuming them at the end: every result equals
// the cold one, whichever thread first answered a row space.
TEST(RowSpaceParity, ConcurrentScoresMatchCold) {
  const model::UniformDependenceAlgorithm cube =
      model::unit_cube_algorithm(4, 2);
  SpaceSearchOptions pool_options;
  pool_options.array_dims = 2;
  const std::vector<MatI> spaces = candidate_spaces(4, pool_options);
  PipelineOptions options;
  options.method = Method::kProcedure51;
  options.design_array = false;
  const MappingPipeline cold(options);
  std::vector<MappingSolution> expected;
  for (const MatI& space : spaces) {
    expected.push_back(cold.find_time_optimal(cube, space));
  }
  MappingPipeline fused(options);
  fused.enable_fusion({});
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<MappingSolution>> got(
      kThreads, std::vector<MappingSolution>(spaces.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<std::size_t, MappingPipeline::Deferred>> later;
      const std::size_t n = spaces.size();
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i =
            (t * n / kThreads + (t % 2 == 0 ? step : n - 1 - step)) % n;
        auto scored = fused.try_score(cube, spaces[i]);
        if (auto* deferred = std::get_if<MappingPipeline::Deferred>(&scored)) {
          later.emplace_back(i, std::move(*deferred));
        } else {
          got[t][i] = std::get<MappingSolution>(std::move(scored));
        }
      }
      for (const auto& [i, deferred] : later) {
        got[t][i] = fused.resume(cube, deferred);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      expect_same_solution(expected[i], got[t][i],
                           "thread" + std::to_string(t) + "/space" +
                               std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace sysmap::search
