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

#include "linalg/ops.hpp"
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

// The allowed column arrangements of the cost orbit (no dependence) or of
// the schedule orbit: the equal-extent arrangements that fix the
// dependence-column multiset.
std::vector<std::vector<std::size_t>> reference_arrangements(
    const model::IndexSet& set, std::size_t n, const MatI* dependence) {
  std::vector<std::vector<std::size_t>> arrangements =
      mapping::detail::equal_extent_arrangements(
          set, n, mapping::kMaxOrbitArrangements);
  if (dependence == nullptr) return arrangements;
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
  return valid;
}

// The per-call orbit minimization the canonicalizer replaced: rebuild the
// arrangements, sort the rows of every arrangement as vectors, keep the
// lexicographically least flattening.
std::vector<Int> reference_orbit_form(const MatI& space,
                                      const model::IndexSet& set,
                                      const MatI* dependence) {
  const std::size_t n = space.cols();
  std::vector<Int> best;
  for (const std::vector<std::size_t>& perm :
       reference_arrangements(set, n, dependence)) {
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
  return best;
}

// The payload frame around the canonical form: extents first, then D
// column-major for the schedule orbit.
void expect_framed(const mapping::ConflictKey& key, const MatI& space,
                   const model::IndexSet& set, const MatI* dependence) {
  const std::size_t n = set.dimension();
  const std::size_t cells = space.rows() * n;
  const std::size_t tail = dependence == nullptr ? 0 : n * dependence->cols();
  ASSERT_EQ(key.payload.size(), n + cells + tail);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(key.payload[i], set.mu(i));
  for (std::size_t c = 0; dependence != nullptr && c < dependence->cols();
       ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(key.payload[n + cells + c * n + r], (*dependence)(r, c));
    }
  }
}

// The canonicalizer's key may pick a different orbit representative than
// the per-call reference (it sorts columns instead of enumerating
// arrangements where it can), but it must partition spaces exactly as the
// reference does.  Each drawn space is paired with an image under a
// random allowed move, so equal keys are exercised, not only unequal ones.
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
    const std::vector<std::vector<std::size_t>> moves =
        reference_arrangements(set, n, &d);
    std::vector<MatI> spaces;
    for (int s = 0; s < 20; ++s) {
      MatI space(static_cast<std::size_t>(draw(1, 3)), n);
      for (std::size_t r = 0; r < space.rows(); ++r) {
        for (std::size_t c = 0; c < n; ++c) space(r, c) = draw(-2, 2);
      }
      // An image under a schedule-orbit move: a random allowed column
      // arrangement, the rows reversed, and row 0 negated.
      const std::vector<std::size_t>& perm =
          moves[static_cast<std::size_t>(
              draw(0, static_cast<Int>(moves.size()) - 1))];
      MatI image(space.rows(), n);
      for (std::size_t r = 0; r < space.rows(); ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          const Int v = space(space.rows() - 1 - r, perm[c]);
          image(r, c) = r == 0 ? -v : v;
        }
      }
      spaces.push_back(space);
      spaces.push_back(image);
    }
    std::vector<mapping::ConflictKey> cost_keys;
    std::vector<mapping::ConflictKey> schedule_keys;
    std::vector<std::vector<Int>> cost_refs;
    std::vector<std::vector<Int>> schedule_refs;
    for (const MatI& space : spaces) {
      cost_keys.push_back(cost.key(space));
      EXPECT_EQ(cost_keys.back().kind, mapping::ConflictKey::Kind::kSpaceOrbit);
      EXPECT_EQ(cost_keys.back().k, space.rows());
      expect_framed(cost_keys.back(), space, set, nullptr);
      schedule_keys.push_back(schedule.key(space));
      EXPECT_EQ(schedule_keys.back().kind,
                mapping::ConflictKey::Kind::kScheduleOrbit);
      expect_framed(schedule_keys.back(), space, set, &d);
      cost_refs.push_back(reference_orbit_form(space, set, nullptr));
      schedule_refs.push_back(reference_orbit_form(space, set, &d));
    }
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      EXPECT_EQ(cost_keys[i], cost_keys[i ^ 1]) << "trial " << trial;
      EXPECT_EQ(schedule_keys[i], schedule_keys[i ^ 1]) << "trial " << trial;
      for (std::size_t j = 0; j < spaces.size(); ++j) {
        const bool same_rows = spaces[i].rows() == spaces[j].rows();
        EXPECT_EQ(cost_keys[i] == cost_keys[j],
                  same_rows && cost_refs[i] == cost_refs[j])
            << "trial " << trial << " spaces " << i << ", " << j;
        EXPECT_EQ(schedule_keys[i] == schedule_keys[j],
                  same_rows && schedule_refs[i] == schedule_refs[j])
            << "trial " << trial << " spaces " << i << ", " << j;
      }
    }
  }
}

// Every signed row permutation R and allowed arrangement P applied to S:
// the brute-force orbit the key must identify.
std::vector<MatI> brute_force_orbit(
    const MatI& space,
    const std::vector<std::vector<std::size_t>>& arrangements) {
  const std::size_t m = space.rows();
  const std::size_t n = space.cols();
  std::vector<std::size_t> order(m);
  for (std::size_t r = 0; r < m; ++r) order[r] = r;
  std::vector<MatI> orbit;
  do {
    for (std::size_t signs = 0; signs < (std::size_t{1} << m); ++signs) {
      for (const std::vector<std::size_t>& perm : arrangements) {
        MatI image(m, n);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t c = 0; c < n; ++c) {
            const Int v = space(order[r], perm[c]);
            image(r, c) = ((signs >> r) & 1u) != 0 ? -v : v;
          }
        }
        orbit.push_back(std::move(image));
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return orbit;
}

// Generated (J, D, S) with 1-3 rows over equal and mixed extents, under
// D = I (the arrangements are the full product, so the sorting key runs
// where it is cheaper) and under a D that only a proper subgroup fixes
// (enumeration): each key is invariant under every move applied
// explicitly, and two spaces share a key exactly when a brute-force
// search over the allowed moves relates them.
TEST(SpaceOrbitKey, PartitionMatchesBruteForceOrbits) {
  struct Box {
    VecI mu;
    MatI d;
  };
  const std::vector<Box> boxes = {
      {VecI{3, 3, 3, 3}, MatI::identity(4)},
      {VecI{3, 3, 3, 3}, MatI{{1, 0}, {0, 1}, {0, 0}, {0, 0}}},
      {VecI{2, 2, 2, 2, 2}, MatI::identity(5)},
      {VecI{2, 3, 2, 3, 2}, MatI::identity(5)},
      {VecI{2, 3, 2, 3, 2}, MatI{{1, 1}, {0, 0}, {0, 1}, {0, 0}, {1, 0}}},
  };
  std::mt19937_64 rng(20261020);
  auto draw = [&rng](Int lo, Int hi) {
    return std::uniform_int_distribution<Int>(lo, hi)(rng);
  };
  for (const Box& box : boxes) {
    const model::IndexSet set(box.mu);
    const std::size_t n = box.mu.size();
    for (const MatI* d : {static_cast<const MatI*>(nullptr), &box.d}) {
      const mapping::SpaceOrbitCanonicalizer canon =
          d == nullptr ? mapping::SpaceOrbitCanonicalizer(set)
                       : mapping::SpaceOrbitCanonicalizer(set, *d);
      const std::vector<std::vector<std::size_t>> moves =
          reference_arrangements(set, n, d);
      for (std::size_t rows = 1; rows <= 3; ++rows) {
        // A small pool, so orbits collide: entries in {-1, 0, 1}, plus an
        // explicit image of each drawn space.
        std::vector<MatI> pool;
        for (int s = 0; s < 8; ++s) {
          MatI space(rows, n);
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < n; ++c) space(r, c) = draw(-1, 1);
          }
          const std::vector<MatI> orbit = brute_force_orbit(space, moves);
          const mapping::ConflictKey key = canon.key(space);
          for (const MatI& image : orbit) {
            ASSERT_EQ(canon.key(image), key)
                << "box " << &box - boxes.data() << " rows " << rows;
          }
          pool.push_back(space);
          pool.push_back(orbit[static_cast<std::size_t>(
              draw(0, static_cast<Int>(orbit.size()) - 1))]);
        }
        for (std::size_t i = 0; i < pool.size(); ++i) {
          const std::vector<MatI> orbit = brute_force_orbit(pool[i], moves);
          for (std::size_t j = 0; j < pool.size(); ++j) {
            const bool related =
                std::find(orbit.begin(), orbit.end(), pool[j]) != orbit.end();
            EXPECT_EQ(canon.key(pool[i]) == canon.key(pool[j]), related)
                << "box " << &box - boxes.data() << " rows " << rows
                << " spaces " << i << ", " << j;
          }
        }
      }
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

// The enumerator's machine-word rank equals the exact BigInt rank on
// every two- and three-row combination of the candidate-row pools: the
// max_entry 1 pools for n <= 5, and the max_entry 2 pools for n <= 4 with
// two rows and n <= 3 with three (n = 5 with max_entry 2 would be
// C(1441, 3) combinations).
TEST(SpaceEnumeratorTest, RawRankMatchesBigIntRank) {
  struct Pool {
    std::size_t n;
    Int max_entry;
    std::size_t max_dims;
  };
  const std::vector<Pool> pools = {{2, 1, 3}, {3, 1, 3}, {4, 1, 3},
                                   {5, 1, 3}, {2, 2, 3}, {3, 2, 3},
                                   {4, 2, 2}};
  for (const Pool& p : pools) {
    SpaceSearchOptions options;
    options.max_entry = p.max_entry;
    const std::vector<MatI> rows = candidate_spaces(p.n, options);
    std::uint64_t checked = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = i + 1; j < rows.size(); ++j) {
        MatI two(2, p.n);
        for (std::size_t c = 0; c < p.n; ++c) {
          two(0, c) = rows[i](0, c);
          two(1, c) = rows[j](0, c);
        }
        ASSERT_EQ(space_rank(two), linalg::rank(to_bigint(two)))
            << "n " << p.n << " rows " << i << ", " << j;
        ++checked;
        for (std::size_t l = j + 1; p.max_dims >= 3 && l < rows.size(); ++l) {
          MatI three(3, p.n);
          for (std::size_t c = 0; c < p.n; ++c) {
            three(0, c) = rows[i](0, c);
            three(1, c) = rows[j](0, c);
            three(2, c) = rows[l](0, c);
          }
          ASSERT_EQ(space_rank(three), linalg::rank(to_bigint(three)))
              << "n " << p.n << " rows " << i << ", " << j << ", " << l;
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 0u);
  }
  // Entries at the int64 edge: the 128-bit minors and the BigInt restart.
  const Int big = std::numeric_limits<Int>::max();
  const Int low = std::numeric_limits<Int>::min();
  for (const MatI& edge :
       {MatI{{big, low}, {low, big}}, MatI{{big, big}, {big, big}},
        MatI{{low, 1}, {low, 1}},
        MatI{{big, 1, 0}, {1, big, 1}, {big, big, 1}},
        MatI{{big, big, 0}, {big, big, 0}, {0, 0, low}},
        MatI{{0, 0, 0}, {0, 0, 0}}}) {
    EXPECT_EQ(space_rank(edge), linalg::rank(to_bigint(edge)));
  }
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
