// Dependence-cone walk: the pruned Procedure-5.1 enumeration must visit
// exactly the candidates that pass Pi D > 0, in the plain walk's order,
// so the serial search finds the answer of a walk over every candidate.
// Differential against the unpruned for_each_schedule_at walk and the
// unpruned from-scratch Procedure 5.1 of reference_scan.hpp, under every
// oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exact/checked.hpp"
#include "model/algorithm.hpp"
#include "model/gallery.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/enumerate.hpp"
#include "search/procedure51.hpp"
#include "reference_scan.hpp"

namespace sysmap::search {
namespace {

std::vector<VecI> plain_level(const model::IndexSet& set, Int f) {
  std::vector<VecI> all;
  for_each_schedule_at(set, f, [&](const VecI& pi) {
    all.push_back(pi);
    return true;
  });
  return all;
}

// Random D (n x m) mixing the column shapes the prune must handle:
// arbitrary mixed-sign columns, a column <= 0 in every entry, optionally
// a zero column, and whole zero rows.
MatI random_dependence(std::mt19937& rng, std::size_t n, bool allow_zero) {
  std::uniform_int_distribution<int> cols_dist(1, 4);
  std::uniform_int_distribution<Int> entry(-3, 3);
  std::uniform_int_distribution<int> shape(0, 5);
  const std::size_t m = static_cast<std::size_t>(cols_dist(rng));
  MatI d(n, m);
  std::vector<bool> zero_row(n, false);
  for (std::size_t r = 0; r < n; ++r) zero_row[r] = n > 1 && shape(rng) == 0;
  for (std::size_t c = 0; c < m; ++c) {
    const int kind = shape(rng);
    for (std::size_t r = 0; r < n; ++r) {
      Int v = entry(rng);
      if (kind == 0) v = -(v < 0 ? -v : v);  // <= 0 in every entry
      if (kind == 1 && allow_zero) v = 0;    // zero column
      d(r, c) = zero_row[r] ? 0 : v;
    }
    if (!allow_zero) {
      bool all_zero = true;
      for (std::size_t r = 0; r < n; ++r) all_zero = all_zero && d(r, c) == 0;
      if (all_zero) d(n - 1, c) = kind == 0 ? -1 : 1;
    }
  }
  return d;
}

VecI random_mu(std::mt19937& rng, std::size_t n, Int hi) {
  std::uniform_int_distribution<Int> mu_dist(1, hi);
  VecI mu(n);
  for (Int& m : mu) m = mu_dist(rng);
  return mu;
}

// The plain walk's leaves at level f that pass Pi D > 0, in plain order.
std::vector<VecI> feasible_level(const model::IndexSet& set, const MatI& d,
                                 Int f) {
  std::vector<VecI> out;
  for (VecI& pi : plain_level(set, f)) {
    if (schedule::respects_dependences(pi, d)) out.push_back(std::move(pi));
  }
  return out;
}

// Walks level f both ways and checks the cone walk's contract where its
// prune runs: it visits exactly the plain walk's leaves that pass
// Pi D > 0, in plain order.
void expect_walk_matches(const model::IndexSet& set, const MatI& d, Int f,
                         DependenceConeWalk& walk, const std::string& label) {
  std::vector<VecI> visited;
  EXPECT_TRUE(walk.for_each_at(f, [&](const VecI& pi) {
    visited.push_back(pi);
    return true;
  }));
  EXPECT_EQ(visited, feasible_level(set, d, f)) << label;
}

TEST(ConeWalk, RandomWalksMatchPlainWalk) {
  std::mt19937 rng(20261018);
  std::uniform_int_distribution<int> dim_dist(1, 5);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = static_cast<std::size_t>(dim_dist(rng));
    const model::IndexSet set(random_mu(rng, n, 4));
    const MatI d = random_dependence(rng, n, /*allow_zero=*/true);
    DependenceConeWalk walk(set, d);
    for (Int f = 0; f <= 8; ++f) {
      expect_walk_matches(set, d, f, walk,
                          "trial " + std::to_string(trial) +
                              " f=" + std::to_string(f));
    }
  }
}

TEST(ConeWalk, AbortAtFirstHitVisitsTheHitFirst) {
  // The search stops at its first hit: the hit is the plain walk's first
  // leaf that passes Pi D > 0, and the cone walk visits no leaf before it.
  std::mt19937 rng(20261019);
  std::uniform_int_distribution<int> dim_dist(1, 5);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = static_cast<std::size_t>(dim_dist(rng));
    const model::IndexSet set(random_mu(rng, n, 4));
    const MatI d = random_dependence(rng, n, /*allow_zero=*/false);
    for (Int f = 1; f <= 8; ++f) {
      const std::vector<VecI> all = plain_level(set, f);
      std::size_t position = 0;
      while (position < all.size() &&
             !schedule::respects_dependences(all[position], d)) {
        ++position;
      }
      DependenceConeWalk walk(set, d);
      std::uint64_t visited = 0;
      VecI hit;
      const bool completed = walk.for_each_at(f, [&](const VecI& pi) {
        ++visited;
        if (!schedule::respects_dependences(pi, d)) return true;
        hit = pi;
        return false;
      });
      const std::string label =
          "trial " + std::to_string(trial) + " f=" + std::to_string(f);
      if (position == all.size()) {
        EXPECT_TRUE(completed) << label;
        EXPECT_EQ(visited, 0u) << label;
      } else {
        EXPECT_FALSE(completed) << label;
        EXPECT_EQ(hit, all[position]) << label;
        EXPECT_EQ(visited, 1u) << label;
      }
    }
  }
}

TEST(ConeWalk, IdentityWalksOnlyThePositiveOrthant) {
  const model::IndexSet set(VecI{1, 1, 1});
  DependenceConeWalk walk(set, MatI{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  for (Int f = 1; f <= 10; ++f) {
    std::uint64_t visited = 0;
    walk.for_each_at(f, [&](const VecI& pi) {
      for (Int p : pi) EXPECT_GE(p, 1);
      ++visited;
      return true;
    });
    // Compositions of f into three positive parts.
    EXPECT_EQ(visited, static_cast<std::uint64_t>((f - 1) * (f - 2) / 2));
  }
}

TEST(ConeWalk, ZeroColumnSkipsEveryCandidate) {
  // The zero column fails at the root: one cut per level.
  const model::IndexSet set(VecI{2, 1, 3});
  DependenceConeWalk walk(set, MatI{{1, 0}, {-1, 0}, {2, 0}});
  for (Int f = 0; f <= 9; ++f) {
    EXPECT_TRUE(walk.for_each_at(f, [](const VecI&) {
      ADD_FAILURE() << "visited a candidate of an empty cone";
      return true;
    }));
  }
  EXPECT_EQ(walk.cuts(), 10u);
}

TEST(ConeWalk, NoDependenceColumnsVisitsEveryCandidate) {
  const model::IndexSet set(VecI{2, 1, 3});
  DependenceConeWalk walk(set, MatI(3, 0));
  for (Int f = 0; f <= 9; ++f) {
    std::vector<VecI> visited;
    walk.for_each_at(f, [&](const VecI& pi) {
      visited.push_back(pi);
      return true;
    });
    EXPECT_EQ(visited, plain_level(set, f)) << "f=" << f;
  }
  EXPECT_EQ(walk.cuts(), 0u);
}

void expect_same(const SearchResult& a, const SearchResult& b,
                 const std::string& label) {
  ASSERT_EQ(a.found, b.found) << label;
  if (!a.found) return;
  EXPECT_EQ(a.pi, b.pi) << label;
  EXPECT_EQ(a.objective, b.objective) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.verdict.status, b.verdict.status) << label;
  EXPECT_EQ(a.verdict.rule, b.verdict.rule) << label;
  ASSERT_EQ(a.verdict.witness.has_value(), b.verdict.witness.has_value())
      << label;
  if (a.verdict.witness) {
    ASSERT_EQ(a.verdict.witness->size(), b.verdict.witness->size()) << label;
    for (std::size_t i = 0; i < a.verdict.witness->size(); ++i) {
      EXPECT_TRUE((*a.verdict.witness)[i] == (*b.verdict.witness)[i])
          << label;
    }
  }
  ASSERT_EQ(a.routing.has_value(), b.routing.has_value()) << label;
  EXPECT_TRUE(a == b) << label;  // every answer field, routing included
}

TEST(ConeWalk, Procedure51MatchesUnprunedDrivers) {
  std::mt19937 rng(20261020);
  std::uniform_int_distribution<int> dim_dist(2, 4);
  std::uniform_int_distribution<Int> s_entry(-2, 2);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t n = static_cast<std::size_t>(dim_dist(rng));
    const model::UniformDependenceAlgorithm algo(
        "random", model::IndexSet(random_mu(rng, n, 3)),
        random_dependence(rng, n, /*allow_zero=*/false));
    std::uniform_int_distribution<std::size_t> rows_dist(0, n - 1);
    MatI space(rows_dist(rng), n);
    for (std::size_t r = 0; r < space.rows(); ++r) {
      for (std::size_t c = 0; c < n; ++c) space(r, c) = s_entry(rng);
    }
    const std::string label = "trial " + std::to_string(trial);
    SearchOptions opts;
    opts.max_objective = 9;  // keeps the not-found scans small
    for (ConflictOracle oracle :
         {ConflictOracle::kExact, ConflictOracle::kPaperTheorems,
          ConflictOracle::kBruteForce}) {
      opts.oracle = oracle;
      expect_same(reference_scan(algo, space, opts.max_objective, oracle),
                  procedure_5_1(algo, space, opts),
                  label + " oracle " +
                      std::to_string(static_cast<int>(oracle)));
    }
  }
}

TEST(ConeWalk, GalleryMatchesStreamingDriver) {
  const std::vector<std::pair<model::UniformDependenceAlgorithm, MatI>>
      cases = {{model::matmul(4), MatI{{1, 1, -1}}},
               {model::transitive_closure(4), MatI{{0, 0, 1}}},
               {model::convolution_2d(3, 3, 2, 2), MatI{{1, 0, 0, 0}}},
               {model::unit_cube_algorithm(4, 2), MatI(0, 4)}};
  for (const auto& [algo, space] : cases) {
    expect_same(reference_scan(algo, space,
                               default_max_objective(algo.index_set())),
                procedure_5_1(algo, space), algo.name());
  }
}

TEST(ConeWalk, OverflowThrowsWhereTheUnprunedScanThrows) {
  // Column 0 is (B, B) with B near INT64_MAX / 2: level 1 keeps every
  // delay in range, so the prune runs there; from level 2 on
  // sum_i floor(f / mu_i) |d_i0| exceeds int64 and the prune stands down.
  // The first candidate of level 3, (0, 3), overflows 3B in the checked
  // dependence test -- and lies in the subtree pi_0 = 0 that column 1,
  // (-1, 0), would cut.  Both scans must throw there, and agree below it:
  // level 1's four candidates are all cut, level 2's eight all visited.
  const Int big = std::numeric_limits<Int>::max() / 2;
  const model::UniformDependenceAlgorithm algo(
      "overflow", model::IndexSet(VecI{1, 1}), MatI{{big, -1}, {big, 0}});
  const MatI space{{1, 0}};
  SearchOptions opts;
  EXPECT_THROW(reference_scan(algo, space, default_max_objective(
                                               algo.index_set())),
               exact::OverflowError);
  EXPECT_THROW(procedure_5_1(algo, space, opts), exact::OverflowError);
  opts.max_objective = 2;
  const SearchResult below = procedure_5_1(algo, space, opts);
  expect_same(reference_scan(algo, space, 2), below, "levels 1-2");
  EXPECT_FALSE(below.found);
  EXPECT_EQ(below.candidates_tested, 8u);
}

TEST(ConeWalk, LevelAboveTheTableCapMatchesReference) {
  // The prune runs at every level whose delays fit int64, here above 2^18
  // levels.  mu = (c + 1, c + 2) with c = 2^17 has stride 1.  The cone
  // 2 pi_0 > pi_1, 2 pi_1 > pi_0 first holds at (1, 1), level 2^18 + 3;
  // the six candidates of levels c + 1, c + 2 and 2c + 2 are all cut, so
  // (1, 1) is the only leaf visited.
  const Int top = Int{1} << 18;
  const Int mu0 = top / 2 + 1;
  const model::UniformDependenceAlgorithm algo(
      "capped", model::IndexSet(VecI{mu0, mu0 + 1}), MatI{{2, -1}, {-1, 2}});
  const MatI space{{1, 0}};
  const SearchResult result = procedure_5_1(algo, space);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.objective, top + 3);
  EXPECT_EQ(result.pi, (VecI{1, 1}));
  EXPECT_EQ(result.candidates_tested, 1u);
  expect_same(reference_scan(algo, space, result.objective), result,
              "capped");
  DependenceConeWalk walk(algo.index_set(), algo.dependence_matrix());
  expect_walk_matches(algo.index_set(), algo.dependence_matrix(), top + 3,
                      walk, "level 2^18 + 3");
  EXPECT_GT(walk.cuts(), 0u);
}

TEST(ConeWalk, StrideCompressedTableMatchesReference) {
  // mu = 16: only every 16th level is populated, and the search walks
  // only those.
  const model::UniformDependenceAlgorithm algo = model::matmul(16);
  const MatI space{{1, 1, -1}};
  ASSERT_EQ(objective_level_stride(algo.index_set()), 16);
  for (Int f = 1; f <= 4 * 16; ++f) {
    EXPECT_EQ(plain_level(algo.index_set(), f).empty(), f % 16 != 0)
        << "f=" << f;
  }
  SearchOptions opts;
  opts.max_objective = 12 * 16;
  expect_same(reference_scan(algo, space, opts.max_objective),
              procedure_5_1(algo, space, opts), "matmul 16");
}

}  // namespace
}  // namespace sysmap::search
