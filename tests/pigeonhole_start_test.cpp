// Differential suite for the pigeonhole start level of MappingPipeline's
// Procedure 5.1 route (search/pipeline.hpp).  A conflict-free [S; Pi] is
// injective on J, so f* >= F(S) - 1 with F(S) the largest fiber of S; the
// pipeline starts every full scan at the first objective level on the
// stride at or above that bound and adds the skipped levels' candidates
// from the closed-form level counts.  Cold and fused results must equal
// the unpruned from-scratch scan (tests/reference_scan.hpp) in Pi,
// objective, verdict and candidates_tested, on seeded (J, D, S) with
// non-unit, mixed-sign D, every k from 2 to n, and fixed target arrays.
// Runs under TSan and ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "model/gallery.hpp"
#include "obs/obs.hpp"
#include "reference_scan.hpp"
#include "search/enumerate.hpp"
#include "search/pipeline.hpp"
#include "support/flat_image_set.hpp"

namespace sysmap::search {
namespace {

struct Drawn {
  model::UniformDependenceAlgorithm algo;
  MatI space;
  std::optional<schedule::Interconnect> target;
  Int max_objective = 0;
};

Int uniform(std::mt19937_64& rng, Int lo, Int hi) {
  return std::uniform_int_distribution<Int>(lo, hi)(rng);
}

// n in 2..4 with extents 1..3, one to three dependence columns with
// entries in [-2, 2] (each column's entries sum to a positive value, so
// Pi = [1 ... 1] respects D), and S with 1..n-1 rows (k = 2..n) of entries
// in [-2, 2], half of them 0 (sparse rows have large fibers).  The
// objective cap, drawn below 3 sum(mu) + 6, keeps the reference scan small
// and sometimes falls below the bound.
Drawn draw(std::mt19937_64& rng, bool with_target) {
  const auto n = static_cast<std::size_t>(uniform(rng, 2, 4));
  VecI mu(n, 0);
  for (Int& m : mu) m = uniform(rng, 1, 3);
  const auto deps = static_cast<std::size_t>(uniform(rng, 1, 3));
  MatI d(n, deps);
  for (std::size_t c = 0; c < deps; ++c) {
    Int sum = 0;
    while (sum <= 0) {
      sum = 0;
      for (std::size_t r = 0; r < n; ++r) {
        d(r, c) = uniform(rng, -2, 2);
        sum += d(r, c);
      }
    }
  }
  const auto rows = static_cast<std::size_t>(uniform(rng, 1, n - 1));
  MatI space(rows, n);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      space(r, c) = uniform(rng, 0, 1) == 0 ? 0 : uniform(rng, -2, 2);
    }
  }
  Int mu_sum = 0;
  for (Int m : mu) mu_sum += m;
  std::optional<schedule::Interconnect> target;
  if (with_target) target = schedule::Interconnect::with_diagonals(rows);
  return Drawn{model::UniformDependenceAlgorithm(
                   "drawn", model::IndexSet(std::move(mu)), std::move(d)),
               std::move(space), std::move(target),
               uniform(rng, mu_sum / 2 + 1, 3 * mu_sum + 6)};
}

// F(S) by brute force over J.
Int brute_largest_fiber(const model::IndexSet& set, const MatI& space) {
  std::map<VecI, Int> fibers;
  Int largest = 0;
  set.for_each([&](const VecI& j) {
    largest = std::max(largest, ++fibers[space * j]);
  });
  return largest;
}

// The first level on the stride at or above F(S) - 1.
Int bound_level(const model::IndexSet& set, const MatI& space) {
  const Int stride = objective_level_stride(set);
  const Int need = brute_largest_fiber(set, space) - 1;
  return std::max<Int>((need + stride - 1) / stride * stride, stride);
}

void expect_matches(const SearchResult& ref, const MappingSolution& got,
                    const std::string& label) {
  EXPECT_EQ(ref.found, got.found) << label;
  EXPECT_EQ(ref.candidates_tested, got.candidates_tested) << label;
  if (!ref.found || !got.found) return;
  EXPECT_EQ(ref.pi, got.pi) << label;
  EXPECT_EQ(ref.objective, got.objective) << label;
  EXPECT_EQ(ref.makespan, got.makespan) << label;
  EXPECT_EQ(ref.verdict, got.verdict) << label;
}

// Cold, fused and fused-again (an orbit hit when the orbit cache is live)
// against the reference scan.
void check_case(const Drawn& c, const std::string& label) {
  PipelineOptions options;
  options.method = Method::kProcedure51;
  options.design_array = false;
  options.target = c.target;
  options.max_objective = c.max_objective;
  const MappingPipeline cold(options);
  MappingPipeline fused(options);
  fused.enable_fusion({});
  const SearchResult ref = reference_scan(c.algo, c.space, c.max_objective,
                                          ConflictOracle::kExact, c.target);
  expect_matches(ref, cold.find_time_optimal(c.algo, c.space), label + "/cold");
  expect_matches(ref, fused.score(c.algo, c.space), label + "/fused");
  expect_matches(ref, fused.score(c.algo, c.space), label + "/fused-again");
  if (ref.found) {
    EXPECT_LE(brute_largest_fiber(c.algo.index_set(), c.space) - 1,
              ref.objective)
        << label;
  }
}

TEST(PigeonholeStart, MatchesReferenceScanOnSeededCases) {
  constexpr int kCases = 200;
  std::mt19937_64 rng(0x5eed21);
  int lifted = 0;        // the bound moved the start above the first level
  int beyond_bound = 0;  // the bound lies beyond the objective cap
  int found = 0;
  int targeted = 0;
  for (int i = 0; i < kCases; ++i) {
    const bool with_target = i % 4 == 3;
    const Drawn c = draw(rng, with_target);
    const model::IndexSet& set = c.algo.index_set();
    const std::string label = "case" + std::to_string(i);
    SCOPED_TRACE(label);
    check_case(c, label);
    const Int level = bound_level(set, c.space);
    if (level > objective_level_stride(set)) ++lifted;
    if (level > c.max_objective) ++beyond_bound;
    if (with_target) ++targeted;
    if (reference_scan(c.algo, c.space, c.max_objective,
                       ConflictOracle::kExact, c.target)
            .found) {
      ++found;
    }
  }
  // The draw covers the paths the start level changes.
  EXPECT_GT(lifted, kCases / 4);
  EXPECT_GT(beyond_bound, 0);
  EXPECT_GT(found, kCases / 4);
  EXPECT_LT(found, kCases);
  EXPECT_GT(targeted, 0);
}

TEST(PigeonholeStart, BoundBeyondMaxObjectiveReturnsNotFound) {
  // S = [1 0 0] on the 4x4x4 cube: each fiber is a 4x4 plane, so
  // f* >= 15 and a search capped at 12 proves "none" with no scan.
  const model::UniformDependenceAlgorithm algo =
      model::unit_cube_algorithm(3, 3);
  const MatI space{{1, 0, 0}};
  ASSERT_EQ(support::largest_fiber(algo.index_set(), space), Int{16});
  const SearchResult uncapped = reference_scan(algo, space, 60);
  ASSERT_TRUE(uncapped.found);
  EXPECT_GE(uncapped.objective, 15);

  Drawn c{algo, space, std::nullopt, 12};
  if (obs::kEnabled) obs::reset();
  check_case(c, "capped");
  if (obs::kEnabled) {
    for (const obs::Metric& m : obs::snapshot()) {
      if (m.name == "search.procedure51.leaves_visited") {
        EXPECT_EQ(m.total, 0u);
      }
    }
  }
  // With room above the bound the scan starts at level 15 and finds f*.
  c.max_objective = 60;
  check_case(c, "uncapped");
}

TEST(PigeonholeStart, StandsDownWhenTheImageBoxDoesNotPack) {
  // Each row's image range is about 2^34, so the image box holds about
  // 2^68 points and does not pack into uint64: the fibers (4 points each,
  // along ker S) are not counted and the scan starts at level 1.
  const model::UniformDependenceAlgorithm algo =
      model::unit_cube_algorithm(4, 1);
  const Int big = Int{1} << 32;
  const MatI space{{big, big, 0, 0}, {0, 0, big, big}};
  EXPECT_FALSE(support::largest_fiber(algo.index_set(), space).has_value());
  EXPECT_EQ(brute_largest_fiber(algo.index_set(), space), 4);
  check_case(Drawn{algo, space, std::nullopt, 12}, "unpacked");
}

TEST(PigeonholeStart, LargestFiberMatchesBruteForce) {
  std::mt19937_64 rng(0xf1b3);
  for (int i = 0; i < 200; ++i) {
    Drawn c = draw(rng, false);
    // A stretched first row spreads the image box past 4 |J| cells, where
    // the count moves from the dense array to the hash map.
    if (i % 2 == 1) {
      for (std::size_t col = 0; col < c.space.cols(); ++col) {
        c.space(0, col) *= 7;
      }
    }
    const model::IndexSet& set = c.algo.index_set();
    EXPECT_EQ(support::largest_fiber(set, c.space),
              brute_largest_fiber(set, c.space))
        << "case " << i;
  }
}

}  // namespace
}  // namespace sysmap::search
