// sysmap::obs unit tests.  The suite runs in BOTH configurations: with
// SYSMAP_OBS=ON it checks recording, merging and export; with the default
// OFF build it checks the compile-away contract (no-op ids, empty
// snapshots, obs_enabled=false in JSON) so front ends can keep one code
// path.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "model/gallery.hpp"
#include "opt/ilp.hpp"
#include "search/procedure51.hpp"
#include "search/space_optimal.hpp"
#include "support/flat_image_set.hpp"
#include "systolic/array.hpp"
#include "systolic/simulator.hpp"

namespace sysmap {
namespace {

obs::Metric find_metric(const std::vector<obs::Metric>& all,
                        const std::string& name) {
  for (const obs::Metric& m : all) {
    if (m.name == name) return m;
  }
  return {};
}

TEST(ObsTest, DisabledBuildCompilesAway) {
  if (obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=ON build";
  EXPECT_EQ(obs::intern("obs_test.off", obs::Kind::kCounter),
            obs::kInvalidMetric);
  SYSMAP_COUNT("obs_test.off.count", 3);
  SYSMAP_GAUGE("obs_test.off.gauge", 7);
  EXPECT_TRUE(obs::snapshot().empty());
  EXPECT_EQ(obs::to_json(obs::snapshot()),
            "{\"obs_enabled\":false,\"metrics\":{}}");
}

TEST(ObsTest, OffMacrosDoNotEvaluateArguments) {
  // The OFF expansion must not run its delta expression (sizeof only);
  // with obs ON the expression runs exactly once.
  int evaluations = 0;
  auto bump = [&evaluations] { return ++evaluations; };
  SYSMAP_COUNT("obs_test.evaluations", bump());
  EXPECT_EQ(evaluations, obs::kEnabled ? 1 : 0);
}

TEST(ObsTest, CounterAccumulates) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  obs::reset();
  const obs::MetricId id =
      obs::intern("obs_test.counter", obs::Kind::kCounter);
  ASSERT_NE(id, obs::kInvalidMetric);
  obs::add(id, 5);
  obs::add(id, 7);
  const obs::Metric m = find_metric(obs::snapshot(), "obs_test.counter");
  EXPECT_EQ(m.total, 12u);
  EXPECT_EQ(m.events, 2u);
  EXPECT_EQ(m.peak, 0u);
  EXPECT_EQ(m.kind, obs::Kind::kCounter);
}

TEST(ObsTest, InternIsStablePerName) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  const obs::MetricId a = obs::intern("obs_test.stable", obs::Kind::kGauge);
  const obs::MetricId b = obs::intern("obs_test.stable", obs::Kind::kGauge);
  EXPECT_EQ(a, b);
  ASSERT_NE(a, obs::kInvalidMetric);
}

TEST(ObsTest, GaugeTracksSumCountPeak) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  obs::reset();
  const obs::MetricId id = obs::intern("obs_test.gauge", obs::Kind::kGauge);
  obs::gauge(id, 10);
  obs::gauge(id, 3);
  obs::gauge(id, 6);
  const obs::Metric m = find_metric(obs::snapshot(), "obs_test.gauge");
  EXPECT_EQ(m.total, 19u);
  EXPECT_EQ(m.events, 3u);
  EXPECT_EQ(m.peak, 10u);
}

TEST(ObsTest, SpanRecordsDurations) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  obs::reset();
  { SYSMAP_SPAN("obs_test.span"); }
  { SYSMAP_SPAN("obs_test.span"); }
  const obs::Metric m = find_metric(obs::snapshot(), "obs_test.span");
  EXPECT_EQ(m.kind, obs::Kind::kSpan);
  EXPECT_EQ(m.events, 2u);
  EXPECT_GE(m.peak, 0u);
  EXPECT_GE(m.total, m.peak);
}

TEST(ObsTest, MergeIsExactAcrossThreads) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  obs::reset();
  const obs::MetricId id =
      obs::intern("obs_test.threads", obs::Kind::kCounter);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  // Plain std::thread workers fold into the retired block on exit; the
  // merged total must be exact whatever the join/exit interleaving.
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([id] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) obs::add(id, 1);
    });
  }
  for (std::thread& w : workers) w.join();
  // These threads stay alive until after the snapshot, so their cells
  // merge live rather than from the retired block.
  std::latch counted(kThreads);
  std::latch snapshot_taken(1);
  std::vector<std::thread> live;
  for (int t = 0; t < kThreads; ++t) {
    live.emplace_back([&, id] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) obs::add(id, 1);
      counted.count_down();
      snapshot_taken.wait();
    });
  }
  counted.wait();
  const obs::Metric m = find_metric(obs::snapshot(), "obs_test.threads");
  snapshot_taken.count_down();
  for (std::thread& w : live) w.join();
  EXPECT_EQ(m.total, 2u * kThreads * kPerThread);
  EXPECT_EQ(m.events, 2u * kThreads * kPerThread);
}

TEST(ObsTest, ResetZeroesEverything) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  const obs::MetricId id = obs::intern("obs_test.reset", obs::Kind::kGauge);
  obs::gauge(id, 42);
  obs::reset();
  const obs::Metric m = find_metric(obs::snapshot(), "obs_test.reset");
  EXPECT_EQ(m.total, 0u);
  EXPECT_EQ(m.events, 0u);
  EXPECT_EQ(m.peak, 0u);
}

TEST(ObsTest, JsonExportIsSortedAndTyped) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  obs::reset();
  obs::add(obs::intern("obs_test.json.b", obs::Kind::kCounter), 1);
  obs::gauge(obs::intern("obs_test.json.a", obs::Kind::kGauge), 2);
  const std::string json = obs::snapshot_json();
  EXPECT_NE(json.find("\"obs_enabled\":true"), std::string::npos);
  const std::size_t a = json.find("obs_test.json.a");
  const std::size_t b = json.find("obs_test.json.b");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);  // names sorted
  EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  // Balanced braces, no trailing comma before a closing brace.
  EXPECT_EQ(json.find(",}"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsTest, OptCountersRecordOncePerCall) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  using exact::Rational;
  // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6, x, y >= 0: the integer
  // optimum (4, 0) takes five branch-and-bound nodes.
  opt::LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {Rational(-5), Rational(-4)};
  lp.add({Rational(6), Rational(4)}, opt::Relation::kLe, Rational(24));
  lp.add({Rational(1), Rational(2)}, opt::Relation::kLe, Rational(6));
  lp.add_bound(0, opt::Relation::kGe, Rational(0));
  lp.add_bound(1, opt::Relation::kGe, Rational(0));
  obs::reset();
  const opt::IlpSolution sol = opt::solve_ilp({lp});
  ASSERT_EQ(sol.nodes, 5u);
  const std::vector<obs::Metric> all = obs::snapshot();
  const obs::Metric nodes = find_metric(all, "opt.ilp.nodes");
  EXPECT_EQ(nodes.total, 5u);
  EXPECT_EQ(nodes.events, 1u);  // one record per call, not per node
  const obs::Metric solves = find_metric(all, "opt.lp.solves");
  EXPECT_EQ(solves.total, 5u);  // one simplex run per node
  EXPECT_EQ(solves.events, 1u);
  const obs::Metric pivots = find_metric(all, "opt.lp.pivots");
  EXPECT_GT(pivots.total, 0u);
  EXPECT_EQ(pivots.events, 1u);
}

TEST(ObsTest, ImageCountCountersRecordOncePerCall) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  const model::IndexSet set{VecI{4, 4, 4}};
  obs::reset();
  // Packs: one walk over 125 points is one record.
  EXPECT_EQ(support::count_images(set, MatI{{1, 1, -1}}), 13);
  std::vector<obs::Metric> all = obs::snapshot();
  obs::Metric walks = find_metric(all, "support.image_count.packed_walks");
  EXPECT_EQ(walks.total, 1u);
  EXPECT_EQ(walks.events, 1u);
  EXPECT_EQ(find_metric(all, "support.image_count.set_fallbacks").total, 0u);
  // Entries near 2^40 in two rows: the image box overflows uint64.
  const Int big = Int{1} << 40;
  obs::reset();
  EXPECT_EQ(support::count_images(set, MatI{{big, 1, 0}, {0, big, 1}}), 125);
  all = obs::snapshot();
  const obs::Metric fallbacks =
      find_metric(all, "support.image_count.set_fallbacks");
  EXPECT_EQ(fallbacks.total, 1u);
  EXPECT_EQ(fallbacks.events, 1u);
  EXPECT_EQ(find_metric(all, "support.image_count.packed_walks").total, 0u);
}

TEST(ObsTest, ConeWalkCountersRecordOncePerCall) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  // D = I (matmul, mu = 4), S = [1 1 -1]: the walk sees only the positive
  // orthant.  Levels 4k, k = 1..5, hold 4k^2 + 2 candidates each, of which
  // C(k-1, 2) are positive; at level 24 the winner (1, 2, 3) is the 31st
  // candidate (after the 24 with pi_0 = 0 and 6 with pi_0 = 1, |pi_1| <= 1)
  // and the 2nd positive one.
  obs::reset();
  const search::SearchResult hit =
      search::procedure_5_1(model::matmul(4), MatI{{1, 1, -1}});
  ASSERT_TRUE(hit.found);
  ASSERT_EQ(hit.pi, (VecI{1, 2, 3}));
  ASSERT_EQ(hit.candidates_tested, 261u);  // 230 below level 24, plus 31
  std::vector<obs::Metric> all = obs::snapshot();
  obs::Metric visited = find_metric(all, "search.procedure51.leaves_visited");
  obs::Metric skipped = find_metric(all, "search.procedure51.cone_skipped");
  EXPECT_EQ(visited.total, 12u);  // 0 + 0 + 1 + 3 + 6 positive, then 2
  EXPECT_EQ(visited.events, 1u);  // one record per call, not per candidate
  EXPECT_EQ(skipped.total, 249u);
  EXPECT_EQ(skipped.events, 1u);
  // An empty cone: columns e1 and -e1 cannot both have Pi d > 0.  (An
  // algorithm rejects a zero column, the other shape of an empty cone.)
  // Every candidate of levels 1..6 (4f each for n = 2, mu = 1) is cut.
  const model::UniformDependenceAlgorithm empty(
      "empty cone", model::IndexSet(VecI{1, 1}), MatI{{1, -1}, {0, 0}});
  search::SearchOptions options;
  options.max_objective = 6;
  obs::reset();
  const search::SearchResult none =
      search::procedure_5_1(empty, MatI{{0, 1}}, options);
  EXPECT_FALSE(none.found);
  EXPECT_EQ(none.candidates_tested, 84u);
  all = obs::snapshot();
  visited = find_metric(all, "search.procedure51.leaves_visited");
  skipped = find_metric(all, "search.procedure51.cone_skipped");
  EXPECT_EQ(visited.total, 0u);
  EXPECT_EQ(visited.events, 1u);
  EXPECT_EQ(skipped.total, 84u);
  EXPECT_EQ(skipped.events, 1u);
}

TEST(ObsTest, SpaceSweepCountersRecordEachShortcut) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  // The serial Problem 6.1 sweep over matmul(12)'s 49 max_entry = 2
  // candidates: 4 processor counts come from the orbit cache, 18
  // candidates fall to the wire + lower-bound prune, 10 image walks stop
  // at the incumbent bound, and the boxes are too small for the
  // injectivity shortcut.
  search::SpaceSearchOptions options;
  options.max_entry = 2;
  obs::reset();
  const search::SpaceSearchResult r = search::space_optimal_mapping(
      model::matmul(12), VecI{1, 12, 1}, options);
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.candidates_tested, 49u);
  const std::vector<obs::Metric> all = obs::snapshot();
  EXPECT_EQ(find_metric(all, "search.space.orbit_hits").total, 4u);
  EXPECT_EQ(find_metric(all, "search.space.bnb_pruned").total, 18u);
  EXPECT_EQ(find_metric(all, "search.space.walks_early_exited").total, 10u);
  EXPECT_EQ(find_metric(all, "search.space.injective_shortcuts").total, 0u);
}

TEST(ObsTest, FixedSpaceScreenCountersAndSweepStatistics) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  // unit_cube(4,3) with one-row spaces has k = n-2: the raw witness
  // screen rejects candidates, and the exact ladder decides the rest.
  search::SpaceSearchOptions options;
  obs::reset();
  search::explore_design_space(model::unit_cube_algorithm(4, 3), options);
  std::vector<obs::Metric> all = obs::snapshot();
  EXPECT_GT(find_metric(all, "search.fixed_space.raw_rejects").total, 0u);
  EXPECT_GT(find_metric(all, "search.fixed_space.ladder_verdicts").total, 0u);
  // The serial unit_cube(5,2) two-row sweep: 3010 of its 7260 spaces span
  // a rational row space an earlier space answered, and take that answer
  // with no walk; the other 4250 split into 101 orbit scans and 4149
  // seeded orbit hits.  The pigeonhole start level skips the leaves below
  // each orbit's bound.
  options.array_dims = 2;
  obs::reset();
  search::explore_design_space(model::unit_cube_algorithm(5, 2), options);
  all = obs::snapshot();
  EXPECT_EQ(find_metric(all, "search.pipeline.row_space_hits").total, 3010u);
  EXPECT_EQ(find_metric(all, "search.pipeline.orbit_hits").total, 4149u);
  EXPECT_EQ(find_metric(all, "search.space.orbit_hits").total, 7085u);
  EXPECT_EQ(find_metric(all, "search.procedure51.leaves_visited").total,
            158482u);
}

TEST(ObsTest, ParallelSweepScansEachOrbitOnce) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  // Concurrent misses on one schedule orbit defer instead of scanning it
  // again, so four workers miss exactly the serial sweep's orbits.
  struct Case {
    model::UniformDependenceAlgorithm algo;
    std::size_t dims;
    std::uint64_t misses;
  };
  const std::vector<Case> cases = {
      {model::unit_cube_algorithm(5, 2), 2, 175},
      {model::unit_cube_algorithm(4, 3), 1, 8},
      {model::convolution_2d(3, 3, 2, 2), 1, 24},
  };
  for (const Case& c : cases) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      search::SpaceSearchOptions options;
      options.array_dims = c.dims;
      options.num_threads = threads;
      obs::reset();
      search::explore_design_space(c.algo, options);
      const std::vector<obs::Metric> all = obs::snapshot();
      EXPECT_EQ(find_metric(all, "search.pipeline.orbit_misses").total,
                c.misses)
          << c.algo.name() << " at " << threads << " threads";
    }
  }
}

TEST(ObsTest, SimulateRecordsOneSpanPerPass) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  // Example 5.1's design (S = [1 1 -1], Pi = [1 4 1]) routes every
  // dependence and buffers the A link, so one value-checked simulate runs
  // every pass of the flat engine once, and the value pass runs the
  // sequential reference once.
  const Int mu = 4;
  MatI a(5, 5);
  MatI b(5, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      a(i, j) = static_cast<Int>(i + 2 * j);
      b(i, j) = static_cast<Int>(3 * i) - static_cast<Int>(j);
    }
  }
  const model::SemanticAlgorithm sem = model::semantic_matmul(mu, a, b);
  const systolic::ArrayDesign design = systolic::design_dedicated_array(
      sem.structure, mapping::MappingMatrix(MatI{{1, 1, -1}}, VecI{1, mu, 1}));
  obs::reset();
  const systolic::SimulationReport r = systolic::simulate(sem, design);
  ASSERT_TRUE(r.values_checked && r.values_match);
  const std::vector<obs::Metric> all = obs::snapshot();
  for (const char* name :
       {"systolic.simulate", "systolic.simulate.walk",
        "systolic.simulate.conflicts", "systolic.simulate.collisions",
        "systolic.simulate.buffers", "systolic.simulate.values",
        "model.evaluate_reference"}) {
    const obs::Metric m = find_metric(all, name);
    EXPECT_EQ(m.kind, obs::Kind::kSpan) << name;
    EXPECT_EQ(m.events, 1u) << name;
  }
}

TEST(ObsTest, TableFormatsEveryMetric) {
  if (!obs::kEnabled) GTEST_SKIP() << "SYSMAP_OBS=OFF build";
  obs::reset();
  obs::add(obs::intern("obs_test.table", obs::Kind::kCounter), 9);
  const std::string table = obs::format_table(obs::snapshot());
  EXPECT_NE(table.find("obs_test.table"), std::string::npos);
}

}  // namespace
}  // namespace sysmap
