// Dependence-cone walk: the pruned Procedure-5.1 enumeration must visit
// every candidate that passes Pi D > 0, in the plain walk's order, and
// account for every candidate it skips, so the serial search reports
// exactly the statistics of a walk over every candidate.  Differential
// against the unpruned for_each_schedule_at walk, a hand-rolled unpruned
// Procedure 5.1, and the streaming driver (which still walks every
// candidate).  Runs under the TSan CI job (procedure_5_1_parallel at 4
// threads).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exact/checked.hpp"
#include "mapping/mapping_matrix.hpp"
#include "model/algorithm.hpp"
#include "model/gallery.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/enumerate.hpp"
#include "search/parallel_search.hpp"
#include "search/procedure51.hpp"

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

// Walks level f both ways and checks the cone walk's contract: its
// visited leaves are a subsequence of the plain walk, every plain leaf it
// skips fails Pi D > 0, and visited + skipped is the plain count.
void expect_walk_matches(const model::IndexSet& set, const MatI& d, Int f,
                         DependenceConeWalk& walk, const std::string& label) {
  const std::vector<VecI> all = plain_level(set, f);
  std::vector<VecI> visited;
  const std::uint64_t skipped0 = walk.skipped();
  EXPECT_TRUE(walk.for_each_at(f, [&](const VecI& pi) {
    visited.push_back(pi);
    return true;
  }));
  const std::uint64_t skipped = walk.skipped() - skipped0;
  EXPECT_EQ(visited.size() + skipped, all.size()) << label;
  std::size_t v = 0;
  for (const VecI& pi : all) {
    if (v < visited.size() && visited[v] == pi) {
      ++v;
      continue;
    }
    EXPECT_FALSE(schedule::respects_dependences(pi, d))
        << label << " skipped a candidate that passes Pi D > 0";
  }
  EXPECT_EQ(v, visited.size()) << label << " visited out of plain order";
}

TEST(ConeWalk, SuffixCountsMatchEnumeration) {
  std::mt19937 rng(20261017);
  std::uniform_int_distribution<int> dim_dist(1, 5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = static_cast<std::size_t>(dim_dist(rng));
    const VecI mu = random_mu(rng, n, 4);
    SuffixCounts counts{model::IndexSet(mu)};
    ASSERT_TRUE(counts.grow(9));
    for (std::size_t i = 0; i <= n; ++i) {
      // Row i counts the enumeration over coordinates i..n-1 alone.
      const VecI tail(mu.begin() + static_cast<std::ptrdiff_t>(i), mu.end());
      for (Int r = 0; r <= 9; ++r) {
        std::uint64_t expected = r == 0 ? 1 : 0;
        if (!tail.empty()) {
          expected = plain_level(model::IndexSet(tail), r).size();
        }
        EXPECT_EQ(counts.at(i, r), expected)
            << "trial " << trial << " i=" << i << " r=" << r;
      }
    }
  }
  SuffixCounts capped{model::IndexSet(VecI{1, 1})};
  EXPECT_FALSE(capped.grow(kMaxCountLevels + 1));
  EXPECT_TRUE(capped.grow(kMaxCountLevels));
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

TEST(ConeWalk, AbortAtFirstHitCountsItsPlainPosition) {
  // The search stops at its first hit: visited + skipped must then equal
  // the hit's 1-based position in the plain walk.
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
        EXPECT_EQ(visited + walk.skipped(), all.size()) << label;
      } else {
        EXPECT_FALSE(completed) << label;
        EXPECT_EQ(hit, all[position]) << label;
        EXPECT_EQ(visited + walk.skipped(), position + 1) << label;
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
  const model::IndexSet set(VecI{2, 1, 3});
  DependenceConeWalk walk(set, MatI{{1, 0}, {-1, 0}, {2, 0}});
  std::uint64_t total = 0;
  for (Int f = 0; f <= 9; ++f) {
    total += plain_level(set, f).size();
    EXPECT_TRUE(walk.for_each_at(f, [](const VecI&) {
      ADD_FAILURE() << "visited a candidate of an empty cone";
      return true;
    }));
  }
  EXPECT_EQ(walk.skipped(), total);
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
  EXPECT_EQ(walk.skipped(), 0u);
}

// Unpruned Procedure 5.1 from scratch: every candidate of every level in
// plain order, the checked dependence test, then rank and the exact
// oracle.  The reference the serial search must reproduce exactly.
SearchResult reference_scan(const model::UniformDependenceAlgorithm& algo,
                            const MatI& space, Int max_objective) {
  const model::IndexSet& set = algo.index_set();
  SearchResult result;
  const Int stride = objective_level_stride(set);
  for (Int f = stride; f <= max_objective && !result.found; f += stride) {
    for_each_schedule_at(set, f, [&](const VecI& pi) {
      ++result.candidates_tested;
      if (!schedule::respects_dependences(pi, algo.dependence_matrix())) {
        return true;
      }
      ++result.candidates_passed_dependence;
      const mapping::MappingMatrix t(space, pi);
      if (!t.has_full_rank()) return true;
      mapping::ConflictVerdict verdict =
          run_conflict_oracle(ConflictOracle::kExact, t, set);
      if (!verdict.conflict_free()) return true;
      result.found = true;
      result.pi = pi;
      result.objective = f;
      result.makespan = f + 1;
      result.verdict = std::move(verdict);
      return false;
    });
  }
  return result;
}

void expect_same(const SearchResult& a, const SearchResult& b,
                 const std::string& label) {
  ASSERT_EQ(a.found, b.found) << label;
  EXPECT_EQ(a.candidates_tested, b.candidates_tested) << label;
  EXPECT_EQ(a.candidates_passed_dependence, b.candidates_passed_dependence)
      << label;
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
    expect_same(reference_scan(algo, space, opts.max_objective),
                procedure_5_1(algo, space, opts), label + " reference");
    for (ConflictOracle oracle :
         {ConflictOracle::kExact, ConflictOracle::kPaperTheorems,
          ConflictOracle::kBruteForce}) {
      for (bool use_context : {true, false}) {
        opts.oracle = oracle;
        opts.use_fixed_space_context = use_context;
        const SearchResult serial = procedure_5_1(algo, space, opts);
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          expect_same(serial,
                      procedure_5_1_parallel(algo, space, opts, threads),
                      label + " oracle " +
                          std::to_string(static_cast<int>(oracle)) +
                          (use_context ? " ctx" : " scratch") + " threads " +
                          std::to_string(threads));
        }
      }
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
    expect_same(procedure_5_1_parallel(algo, space, {}, 4),
                procedure_5_1(algo, space), algo.name());
  }
}

TEST(ConeWalk, OverflowThrowsWhereTheUnprunedScanThrows) {
  // Column 0 is (B, B) with B near INT64_MAX / 2: level 1 keeps every
  // delay in range, so the prune runs there; from level 2 on
  // sum_i floor(f / mu_i) |d_i0| exceeds int64 and the prune stands down.
  // The first candidate of level 3, (0, 3), overflows 3B in the checked
  // dependence test -- and lies in the subtree pi_0 = 0 that column 1,
  // (-1, 0), would cut.  Both scans must throw there, and agree below it.
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
  EXPECT_EQ(below.candidates_tested, 12u);
}

TEST(ConeWalk, LevelAboveTheTableCapMatchesReference) {
  // mu = (c + 1, c + 2) with c = cap / 2 has stride 1, so the table is
  // indexed by the level itself: levels up to the cap are tabulated and
  // pruned, levels past it are walked candidate by candidate.  The cone
  // 2 pi_0 > pi_1, 2 pi_1 > pi_0 first holds at (1, 1), level cap + 3.
  const Int mu0 = kMaxCountLevels / 2 + 1;
  const model::UniformDependenceAlgorithm algo(
      "capped", model::IndexSet(VecI{mu0, mu0 + 1}), MatI{{2, -1}, {-1, 2}});
  const MatI space{{1, 0}};
  SuffixCounts counts(algo.index_set());
  EXPECT_TRUE(counts.fits(kMaxCountLevels));
  EXPECT_FALSE(counts.fits(kMaxCountLevels + 1));
  const SearchResult result = procedure_5_1(algo, space);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.objective, kMaxCountLevels + 3);
  EXPECT_EQ(result.pi, (VecI{1, 1}));
  expect_same(reference_scan(algo, space, result.objective), result,
              "capped");
  expect_same(procedure_5_1_parallel(algo, space, {}, 4), result,
              "capped streaming");
}

TEST(ConeWalk, StrideCompressedTableMatchesReference) {
  // mu = 16: only every 16th level is populated and tabulated.
  const model::UniformDependenceAlgorithm algo = model::matmul(16);
  const MatI space{{1, 1, -1}};
  SuffixCounts counts(algo.index_set());
  ASSERT_TRUE(counts.grow(4 * 16));
  for (Int f = 0; f <= 4 * 16; ++f) {
    EXPECT_EQ(counts.at(0, f), plain_level(algo.index_set(), f).size())
        << "f=" << f;
  }
  SearchOptions opts;
  opts.max_objective = 12 * 16;
  expect_same(reference_scan(algo, space, opts.max_objective),
              procedure_5_1(algo, space, opts), "matmul 16");
}

}  // namespace
}  // namespace sysmap::search
