// Parity suite for the processor-image counter (support/flat_image_set):
// support::count_images must equal a brute-force std::set count of
// {S j : j in J} on random spaces and boxes, on the packed walk and on the
// std::set fallback for image boxes that do not pack into uint64, with and
// without the exit_above early exit; and every dedicated-array design of
// the gallery must report that count as its number of PEs.  Runs in the
// sanitizer and TSan CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "baseline/prior_work.hpp"
#include "linalg/matrix.hpp"
#include "model/gallery.hpp"
#include "search/pipeline.hpp"
#include "support/flat_image_set.hpp"
#include "systolic/array.hpp"

namespace sysmap::support {
namespace {

Int brute_force_count(const model::IndexSet& set, const MatI& space) {
  std::set<VecI> images;
  set.for_each([&](const VecI& j) { images.insert(space * j); });
  return static_cast<Int>(images.size());
}

MatI random_space(std::mt19937_64& rng, std::size_t m, std::size_t n,
                  Int lo, Int hi) {
  std::uniform_int_distribution<Int> entry(lo, hi);
  MatI space(m, n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) space(r, c) = entry(rng);
  }
  return space;
}

// The exact count, plus the early-exit contract at every threshold around
// it: -1 exactly when the count is greater than exit_above.
void expect_counts(const model::IndexSet& set, const MatI& space,
                   FlatImageSet& table, const std::string& label) {
  const Int expected = brute_force_count(set, space);
  const std::optional<ImagePacking> packing = ImagePacking::build(space, set);
  EXPECT_EQ(count_images(set, space), expected) << label;
  EXPECT_EQ(count_images(set, space, packing, table), expected) << label;
  EXPECT_EQ(count_images_generic(set, space), expected) << label;
  for (Int exit_above :
       {Int{0}, expected / 2, expected - 1, expected, expected + 1}) {
    if (exit_above < 0) continue;
    const Int want = expected > exit_above ? Int{-1} : expected;
    EXPECT_EQ(count_images(set, space, packing, table, exit_above), want)
        << label << " exit_above=" << exit_above;
    EXPECT_EQ(count_images_generic(set, space, exit_above), want)
        << label << " exit_above=" << exit_above;
  }
}

TEST(ImageCount, MatchesBruteForceOnRandomBoxes) {
  std::mt19937_64 rng(20260417);
  std::uniform_int_distribution<std::size_t> dim_n(2, 5);
  std::uniform_int_distribution<std::size_t> dim_m(1, 3);
  std::uniform_int_distribution<Int> extent(1, 6);
  FlatImageSet table;  // reused across trials, as ProcessorCounter does
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = dim_n(rng);
    const std::size_t m = std::min(dim_m(rng), n);
    VecI mu(n);
    for (Int& x : mu) x = extent(rng);
    // Five-dimensional boxes stay small enough for the brute force.
    if (n == 5) {
      for (Int& x : mu) x = std::min<Int>(x, 3);
    }
    const model::IndexSet set{mu};
    const MatI space = random_space(rng, m, n, -3, 3);
    ASSERT_TRUE(ImagePacking::build(space, set).has_value());
    expect_counts(set, space, table, "trial " + std::to_string(trial));
  }
}

TEST(ImageCount, NonPackingBoxesTakeTheSetFallback) {
  std::mt19937_64 rng(7);
  const Int big = Int{1} << 40;
  FlatImageSet table;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3;
    const std::size_t m = 2 + static_cast<std::size_t>(trial % 2);
    const model::IndexSet set{VecI{1 + trial % 3, 2, 1}};
    const MatI space = random_space(rng, m, n, big - 8, big + 8);
    ASSERT_FALSE(ImagePacking::build(space, set).has_value());
    expect_counts(set, space, table, "trial " + std::to_string(trial));
  }
}

// One dedicated-array design per gallery algorithm: the paper's mappings
// where the paper gives one, otherwise the pipeline's time-optimal Pi for
// a fixed S.  Each design must count its PEs exactly.
TEST(ImageCount, GalleryDesignsCountEveryProcessor) {
  struct Case {
    std::string label;
    model::UniformDependenceAlgorithm algo;
    MatI space;
    VecI pi;  // empty: take the pipeline's optimum
  };
  std::vector<Case> cases;
  for (const baseline::PriorMapping& p :
       {baseline::paper_matmul_optimum(4), baseline::ref23_matmul(4)}) {
    cases.push_back({"matmul " + p.source, model::matmul(4), p.space, p.pi});
  }
  for (const baseline::PriorMapping& p :
       {baseline::paper_transitive_closure_optimum(4),
        baseline::ref22_transitive_closure(4)}) {
    cases.push_back({"transitive_closure " + p.source,
                     model::transitive_closure(4), p.space, p.pi});
  }
  cases.push_back({"convolution", model::convolution(5, 3), {{1, 0}}, {}});
  cases.push_back(
      {"lu_decomposition", model::lu_decomposition(4), {{1, 1, -1}}, {}});
  cases.push_back({"unit_cube", model::unit_cube_algorithm(4, 2),
                   {{1, 0, 0, 1}, {0, 1, 1, 0}}, {}});
  cases.push_back({"convolution_2d", model::convolution_2d(3, 3, 2, 2),
                   {{1, 0, 0, 0}, {0, 1, 0, 0}}, {}});
  cases.push_back({"matvec", model::matvec(5), {{1, 0}}, {}});
  cases.push_back({"edit_distance", model::edit_distance(4, 5), {{1, 1}}, {}});

  const search::MappingPipeline pipeline;
  for (const Case& c : cases) {
    VecI pi = c.pi;
    if (pi.empty()) {
      const search::MappingSolution sol =
          pipeline.find_time_optimal(c.algo, c.space);
      ASSERT_TRUE(sol.found) << c.label;
      ASSERT_TRUE(sol.array.has_value()) << c.label;
      pi = sol.pi;
      EXPECT_EQ(*sol.array, systolic::design_dedicated_array(
                                c.algo, mapping::MappingMatrix(c.space, pi)))
          << c.label;
    }
    const systolic::ArrayDesign design = systolic::design_dedicated_array(
        c.algo, mapping::MappingMatrix(c.space, pi));
    EXPECT_EQ(static_cast<Int>(design.num_processors()),
              brute_force_count(c.algo.index_set(), c.space))
        << c.label;
  }
}

}  // namespace
}  // namespace sysmap::support
