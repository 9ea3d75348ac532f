// Parity and correctness suite for the fast Problem 6.1/6.2 engine
// (search/space_optimal.cpp): the fast sweep must be BIT-IDENTICAL to the
// preserved seed engine in (found, space, cost, verdict,
// candidates_tested) for every thread count,
// the incremental packed-image counter must agree with the std::set
// reference on random space/box pairs, the candidate enumerator must stay
// lazy, and the enumeration-budget check must behave exactly at the
// boundary.  Runs under TSan in CI (the parallel cases exercise the
// shared feed, incumbent bound and orbit-count cache).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "mapping/canonical_key.hpp"
#include "model/gallery.hpp"
#include "search/space_optimal.hpp"
#include "support/flat_image_set.hpp"

namespace sysmap::search {
namespace {

std::vector<std::size_t> parity_thread_counts() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return {1, 2, 7, hw};
}

void expect_same_result(const SpaceSearchResult& seed,
                        const SpaceSearchResult& fast,
                        const std::string& label) {
  EXPECT_EQ(seed.found, fast.found) << label;
  EXPECT_EQ(seed.candidates_tested, fast.candidates_tested) << label;
  if (!seed.found || !fast.found) return;
  EXPECT_EQ(seed.space, fast.space) << label;
  EXPECT_EQ(seed.cost.processors, fast.cost.processors) << label;
  EXPECT_EQ(seed.cost.wire_length, fast.cost.wire_length) << label;
  EXPECT_EQ(seed.verdict.status, fast.verdict.status) << label;
  EXPECT_EQ(seed.verdict.rule, fast.verdict.rule) << label;
  EXPECT_EQ(seed.verdict.witness.has_value(),
            fast.verdict.witness.has_value())
      << label;
  if (seed.verdict.witness && fast.verdict.witness) {
    EXPECT_EQ(*seed.verdict.witness, *fast.verdict.witness) << label;
  }
}

// Runs the seed engine once and the fast engine at every thread count,
// asserting bit-identical results.
void run_parity_case(const model::UniformDependenceAlgorithm& algo,
                     const VecI& pi, Int max_entry, std::size_t dims) {
  SpaceSearchOptions base;
  base.max_entry = max_entry;
  base.array_dims = dims;

  const SpaceSearchResult seed = space_optimal_mapping_seed(algo, pi, base);
  for (std::size_t threads : parity_thread_counts()) {
    SpaceSearchOptions options = base;
    options.num_threads = threads;
    const SpaceSearchResult fast = space_optimal_mapping(algo, pi, options);
    expect_same_result(
        seed, fast,
        std::string(algo.name()) + "/t" + std::to_string(threads));
  }
}

TEST(SpaceSearchParity, MatmulFixedSchedule) {
  run_parity_case(model::matmul(4), VecI{1, 4, 1}, 1, 1);
}

TEST(SpaceSearchParity, MatmulWiderPool) {
  run_parity_case(model::matmul(3), VecI{1, 3, 1}, 2, 1);
}

TEST(SpaceSearchParity, MatmulInfeasibleSchedule) {
  // Pi = [1,1,1] admits no conflict-free max_entry=1 space: the infeasible
  // sweep must agree candidate-for-candidate too.
  run_parity_case(model::matmul(4), VecI{1, 1, 1}, 1, 1);
}

TEST(SpaceSearchParity, TransitiveClosure) {
  run_parity_case(model::transitive_closure(3), VecI{5, 1, 1}, 1, 1);
}

TEST(SpaceSearchParity, LuDecomposition) {
  run_parity_case(model::lu_decomposition(3), VecI{1, 3, 1}, 2, 1);
}

TEST(SpaceSearchParity, ConvolutionTwoDimensional) {
  run_parity_case(model::convolution(5, 3), VecI{1, 1}, 2, 1);
}

TEST(SpaceSearchParity, TwoDimensionalArray) {
  run_parity_case(model::matmul(3), VecI{1, 3, 1}, 1, 2);
}

TEST(SpaceSearchParity, DesignSpaceAcrossThreads) {
  for (const auto& algo :
       {model::matmul(3), model::transitive_closure(2)}) {
    SpaceSearchOptions options;
    options.max_entry = 1;
    const DesignSpaceResult seed = explore_design_space_seed(algo, options);
    for (std::size_t threads : parity_thread_counts()) {
      SpaceSearchOptions fast_options = options;
      fast_options.num_threads = threads;
      const DesignSpaceResult fast =
          explore_design_space(algo, fast_options);
      const std::string label =
          std::string(algo.name()) + "/t" + std::to_string(threads);
      EXPECT_EQ(seed.spaces_tested, fast.spaces_tested) << label;
      EXPECT_EQ(seed.feasible_spaces, fast.feasible_spaces) << label;
      ASSERT_EQ(seed.pareto.size(), fast.pareto.size()) << label;
      for (std::size_t i = 0; i < seed.pareto.size(); ++i) {
        EXPECT_EQ(seed.pareto[i].space, fast.pareto[i].space) << label;
        EXPECT_EQ(seed.pareto[i].pi, fast.pareto[i].pi) << label;
        EXPECT_EQ(seed.pareto[i].makespan, fast.pareto[i].makespan) << label;
        EXPECT_EQ(seed.pareto[i].cost.processors,
                  fast.pareto[i].cost.processors)
            << label;
        EXPECT_EQ(seed.pareto[i].cost.wire_length,
                  fast.pareto[i].cost.wire_length)
            << label;
      }
    }
  }
}

// ---- incremental image counting oracle -------------------------------------

TEST(ImageCountOracle, RandomSpacesMatchSetReference) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<Int> entry(-3, 3);
  std::uniform_int_distribution<Int> extent(1, 6);
  std::uniform_int_distribution<int> dim_n(2, 3);
  std::uniform_int_distribution<int> dim_m(1, 2);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(dim_n(rng));
    const std::size_t m =
        std::min<std::size_t>(static_cast<std::size_t>(dim_m(rng)), n);
    VecI mu(n);
    for (std::size_t i = 0; i < n; ++i) mu[i] = extent(rng);
    const model::IndexSet set{mu};
    MatI space(m, n);
    for (std::size_t r = 0; r < m; ++r) {
      bool nonzero = false;
      while (!nonzero) {
        for (std::size_t c = 0; c < n; ++c) {
          space(r, c) = entry(rng);
          nonzero = nonzero || space(r, c) != 0;
        }
      }
    }
    std::set<VecI> reference;
    set.for_each([&](const VecI& j) { reference.insert(space * j); });
    EXPECT_EQ(count_processor_images(set, space),
              static_cast<Int>(reference.size()))
        << "trial " << trial;
  }
}

TEST(ImageCountOracle, PackingRejectsOverflowingBoxes) {
  // A row of huge entries overflows the image bounds; the builder must
  // decline instead of wrapping.
  const model::IndexSet set{VecI{std::numeric_limits<Int>::max() / 2, 4}};
  const MatI space{{3, 1}};
  EXPECT_FALSE(support::ImagePacking::build(space, set).has_value());
}

TEST(FlatImageSet, InsertDedupAndGrowth) {
  support::FlatImageSet images(4);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(images.insert(k * k));
  }
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_FALSE(images.insert(k * k));
  }
  EXPECT_EQ(images.size(), 1000u);
  images.clear();
  EXPECT_EQ(images.size(), 0u);
  EXPECT_TRUE(images.insert(7));
}

// ---- orbit canonicalization ------------------------------------------------

TEST(SpaceOrbitKey, EqualMuColumnPermutationAliases) {
  const model::IndexSet cube = model::matmul(4).index_set();
  const MatI a{{1, 1, -1}};
  const MatI b{{1, -1, 1}};  // columns 2,3 swapped then sign-normalized
  EXPECT_EQ(mapping::SpaceOrbitCanonicalizer(cube).key(a),
            mapping::SpaceOrbitCanonicalizer(cube).key(b));
  // The counts the key promises equal really are equal.
  EXPECT_EQ(count_processor_images(cube, a), count_processor_images(cube, b));
}

TEST(SpaceOrbitKey, UnequalMuColumnsDoNotAlias) {
  const model::IndexSet box{VecI{4, 2, 4}};
  const MatI a{{1, 2, 0}};
  const MatI b{{2, 1, 0}};  // swaps columns with DIFFERENT extents
  EXPECT_FALSE(mapping::SpaceOrbitCanonicalizer(box).key(a) ==
               mapping::SpaceOrbitCanonicalizer(box).key(b));
}

TEST(SpaceOrbitKey, RowSignAndPermutationInvariant) {
  const model::IndexSet cube = model::matmul(3).index_set();
  const MatI a{{1, 0, -1}, {0, 1, 1}};
  const MatI b{{0, -1, -1}, {-1, 0, 1}};  // rows swapped and negated
  EXPECT_EQ(mapping::SpaceOrbitCanonicalizer(cube).key(a),
            mapping::SpaceOrbitCanonicalizer(cube).key(b));
}

// The per-call orbit minimization the canonicalizer replaced: rebuild the
// arrangements, sort the rows of every arrangement as vectors, keep the
// lexicographically least flattening.
std::vector<Int> reference_orbit_form(const MatI& space,
                                      const model::IndexSet& set,
                                      const MatI* dependence) {
  const std::size_t n = space.cols();
  std::vector<std::vector<std::size_t>> arrangements =
      mapping::detail::equal_extent_arrangements(
          set, n, mapping::kMaxOrbitArrangements);
  if (dependence != nullptr) {
    std::vector<VecI> original(dependence->cols(), VecI(n));
    for (std::size_t c = 0; c < dependence->cols(); ++c) {
      for (std::size_t r = 0; r < n; ++r) original[c][r] = (*dependence)(r, c);
    }
    std::vector<VecI> sorted_original = original;
    std::sort(sorted_original.begin(), sorted_original.end());
    std::vector<std::vector<std::size_t>> valid;
    for (const std::vector<std::size_t>& perm : arrangements) {
      std::vector<VecI> permuted = original;
      for (std::size_t c = 0; c < original.size(); ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          permuted[c][r] = original[c][perm[r]];
        }
      }
      std::sort(permuted.begin(), permuted.end());
      if (permuted == sorted_original) valid.push_back(perm);
    }
    arrangements = valid;
  }
  std::vector<Int> best;
  for (const std::vector<std::size_t>& perm : arrangements) {
    std::vector<VecI> rows(space.rows(), VecI(n));
    for (std::size_t r = 0; r < space.rows(); ++r) {
      for (std::size_t c = 0; c < n; ++c) rows[r][c] = space(r, perm[c]);
      for (std::size_t c = 0; c < n; ++c) {
        if (rows[r][c] == 0) continue;
        if (rows[r][c] < 0) {
          for (std::size_t e = c; e < n; ++e) rows[r][e] = -rows[r][e];
        }
        break;
      }
    }
    std::sort(rows.begin(), rows.end());
    std::vector<Int> flat;
    for (const VecI& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    if (best.empty() || flat < best) best = flat;
  }
  std::vector<Int> payload;
  for (std::size_t i = 0; i < n; ++i) payload.push_back(set.mu(i));
  payload.insert(payload.end(), best.begin(), best.end());
  if (dependence != nullptr) {
    for (std::size_t c = 0; c < dependence->cols(); ++c) {
      for (std::size_t r = 0; r < n; ++r) {
        payload.push_back((*dependence)(r, c));
      }
    }
  }
  return payload;
}

TEST(SpaceOrbitKey, CanonicalizerMatchesPerCallReference) {
  std::mt19937_64 rng(20261018);
  auto draw = [&rng](Int lo, Int hi) {
    return std::uniform_int_distribution<Int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(draw(2, 5));
    VecI mu(n);
    for (Int& m : mu) m = draw(2, 3);  // few distinct extents: big orbits
    const model::IndexSet set(mu);
    MatI d(n, static_cast<std::size_t>(draw(1, 3)));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < d.cols(); ++c) d(r, c) = draw(0, 1);
    }
    const mapping::SpaceOrbitCanonicalizer cost(set);
    const mapping::SpaceOrbitCanonicalizer schedule(set, d);
    for (int s = 0; s < 20; ++s) {
      MatI space(static_cast<std::size_t>(draw(1, 3)), n);
      for (std::size_t r = 0; r < space.rows(); ++r) {
        for (std::size_t c = 0; c < n; ++c) space(r, c) = draw(-2, 2);
      }
      const mapping::ConflictKey a = cost.key(space);
      EXPECT_EQ(a.kind, mapping::ConflictKey::Kind::kSpaceOrbit);
      EXPECT_EQ(a.k, space.rows());
      EXPECT_EQ(a.payload, reference_orbit_form(space, set, nullptr));
      const mapping::ConflictKey b = schedule.key(space);
      EXPECT_EQ(b.kind, mapping::ConflictKey::Kind::kScheduleOrbit);
      EXPECT_EQ(b.payload, reference_orbit_form(space, set, &d));
    }
  }
}

// ---- lazy enumeration ------------------------------------------------------

TEST(SpaceEnumeratorTest, MatchesMaterializedOrder) {
  SpaceSearchOptions options;
  options.max_entry = 1;
  options.array_dims = 2;
  const std::vector<MatI> all = candidate_spaces(3, options);
  SpaceEnumerator enumerator(3, options);
  MatI next;
  for (const MatI& expected : all) {
    ASSERT_TRUE(enumerator.next(next));
    EXPECT_EQ(expected, next);
  }
  EXPECT_FALSE(enumerator.next(next));
  EXPECT_EQ(enumerator.produced(), all.size());
}

TEST(SpaceEnumeratorTest, LazyDrawFromAstronomicalCandidateSet) {
  // n = 8, max_entry = 1: the row pool has (3^8 - 1) / 2 = 3280 rows, so
  // 4-row candidates number C(3280, 4) ~ 4.8e12 -- materializing them
  // up-front (the seed behavior) would exhaust memory long before the
  // first draw.  The enumerator must hold ONLY the pool and serve draws
  // immediately.
  SpaceSearchOptions options;
  options.max_entry = 1;
  options.array_dims = 4;
  SpaceEnumerator enumerator(8, options);
  EXPECT_EQ(enumerator.pool_size(), 3280u);
  MatI candidate;
  for (int draws = 0; draws < 50; ++draws) {
    ASSERT_TRUE(enumerator.next(candidate));
    EXPECT_EQ(candidate.rows(), 4u);
    EXPECT_EQ(candidate.cols(), 8u);
  }
  EXPECT_EQ(enumerator.produced(), 50u);
}

// ---- enumeration budget boundary -------------------------------------------

TEST(EnumerationBudget, ExactBoundary) {
  const model::UniformDependenceAlgorithm algo = model::matmul(2);
  const std::uint64_t points = algo.index_set().size_u64();  // 27
  const VecI pi{1, 2, 1};
  for (auto* engine : {&space_optimal_mapping, &space_optimal_mapping_seed}) {
    SpaceSearchOptions options;
    options.enumeration_budget = points;
    EXPECT_NO_THROW((*engine)(algo, pi, options));
    options.enumeration_budget = points + 1;
    EXPECT_NO_THROW((*engine)(algo, pi, options));
    options.enumeration_budget = points - 1;
    EXPECT_THROW((*engine)(algo, pi, options), std::invalid_argument);
  }
}

TEST(EnumerationBudget, HugeBudgetDoesNotOverflow) {
  // The seed converted the budget through Int then BigInt, so UINT64_MAX
  // became -1 and EVERY index set was rejected.  The unsigned comparison
  // must accept instead.
  const model::UniformDependenceAlgorithm algo = model::matmul(2);
  SpaceSearchOptions options;
  options.enumeration_budget = std::numeric_limits<std::uint64_t>::max();
  for (auto* engine : {&space_optimal_mapping, &space_optimal_mapping_seed}) {
    const SpaceSearchResult r = (*engine)(algo, VecI{1, 2, 1}, options);
    EXPECT_TRUE(r.found);
  }
}

}  // namespace
}  // namespace sysmap::search
