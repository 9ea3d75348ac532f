// Tests for the fixed-S incremental search engine: warm-started HNF,
// Proposition 3.2 cofactor closed form, echelon rank replay, golden
// candidate counts for the schedule enumeration, and bit-identical
// FixedSpaceContext-vs-from-scratch parity across the gallery and all
// oracles.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "exact/bigint.hpp"
#include "lattice/hnf_impl.hpp"
#include "mapping/theorems.hpp"
#include "mapping/verdicts_impl.hpp"
#include "model/gallery.hpp"
#include "search/fixed_space.hpp"
#include "reference_scan.hpp"

namespace sysmap::search {
namespace {

using exact::BigInt;

// ---------------------------------------------------------------------------
// Golden candidate counts for enumerate_schedules_at
// ---------------------------------------------------------------------------

std::uint64_t count_candidates(const model::IndexSet& set, Int f) {
  std::uint64_t count = 0;
  enumerate_schedules_at(set, f, [&](const VecI&) {
    ++count;
    return true;
  });
  return count;
}

// Independent reference: scan the full box [-f, f]^n for sum |pi_i| mu_i
// == f.  Exercised only at small f.
std::uint64_t count_candidates_by_scan(const model::IndexSet& set, Int f) {
  const std::size_t n = set.dimension();
  VecI pi(n, -f);
  std::uint64_t count = 0;
  for (;;) {
    Int obj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      obj += (pi[i] < 0 ? -pi[i] : pi[i]) * set.mu(i);
    }
    if (obj == f) ++count;
    std::size_t i = 0;
    for (; i < n; ++i) {
      if (pi[i] < f) {
        ++pi[i];
        break;
      }
      pi[i] = -f;
    }
    if (i == n) break;
  }
  return count;
}

TEST(ScheduleEnumeration, GoldenCountsUniformCube) {
  // mu = (4,4,4): f must be a multiple of 4; the counts are the L1-sphere
  // sizes |{pi in Z^3 : |pi|_1 = m}| = 6, 18, 38 for m = 1, 2, 3.
  model::IndexSet set = model::IndexSet::cube(3, 4);
  EXPECT_EQ(count_candidates(set, 1), 0u);
  EXPECT_EQ(count_candidates(set, 2), 0u);
  EXPECT_EQ(count_candidates(set, 3), 0u);
  EXPECT_EQ(count_candidates(set, 4), 6u);
  EXPECT_EQ(count_candidates(set, 8), 18u);
  EXPECT_EQ(count_candidates(set, 12), 38u);
}

TEST(ScheduleEnumeration, CountsMatchFullBoxScanOnGallery) {
  const std::vector<model::UniformDependenceAlgorithm> algos = {
      model::matmul(3),
      model::convolution(4, 3),
      model::transitive_closure(2),
      model::unit_cube_algorithm(4, 2),
  };
  for (const auto& algo : algos) {
    const model::IndexSet& set = algo.index_set();
    for (Int f = 1; f <= 8; ++f) {
      SCOPED_TRACE(algo.name() + " f=" + std::to_string(f));
      EXPECT_EQ(count_candidates(set, f), count_candidates_by_scan(set, f));
    }
  }
}

TEST(ScheduleEnumeration, VisitsAreUniqueAndOnObjective) {
  model::IndexSet set = model::IndexSet::cube(3, 2);
  for (Int f = 1; f <= 10; ++f) {
    std::set<VecI> seen;
    enumerate_schedules_at(set, f, [&](const VecI& pi) {
      Int obj = 0;
      for (std::size_t i = 0; i < pi.size(); ++i) {
        obj += (pi[i] < 0 ? -pi[i] : pi[i]) * set.mu(i);
      }
      EXPECT_EQ(obj, f);
      EXPECT_TRUE(seen.insert(pi).second) << "duplicate candidate";
      return true;
    });
  }
}

// ---------------------------------------------------------------------------
// Warm-started HNF == from-scratch HNF (bit-identical h, u, v)
// ---------------------------------------------------------------------------

// Deterministic LCG so the test is reproducible.
struct Lcg {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  Int next(Int lo, Int hi) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return lo + static_cast<Int>((state >> 33) % (hi - lo + 1));
  }
};

template <typename T>
void expect_matrices_equal(const linalg::Matrix<T>& a,
                           const linalg::Matrix<T>& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_TRUE(a(i, j) == b(i, j))
          << what << " differs at (" << i << ", " << j << ")";
    }
  }
}

TEST(HnfWarmStart, ExtendRowMatchesFromScratchOnRandomStacks) {
  Lcg rng;
  for (lattice::HnfStrategy strategy :
       {lattice::HnfStrategy::kExtendedGcd,
        lattice::HnfStrategy::kEuclidean}) {
    lattice::HnfOptions options;
    options.strategy = strategy;
    int tested = 0;
    while (tested < 40) {
      const std::size_t n = static_cast<std::size_t>(rng.next(2, 5));
      const std::size_t rows = static_cast<std::size_t>(
          rng.next(0, static_cast<Int>(n) - 1));
      linalg::Matrix<BigInt> s(rows, n);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < n; ++j) s(i, j) = BigInt(rng.next(-9, 9));
      }
      linalg::Vector<BigInt> last(n);
      for (std::size_t j = 0; j < n; ++j) last[j] = BigInt(rng.next(-9, 9));

      linalg::Matrix<BigInt> stacked(rows + 1, n);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < n; ++j) stacked(i, j) = s(i, j);
      }
      for (std::size_t j = 0; j < n; ++j) stacked(rows, j) = last[j];

      lattice::detail::HnfPrefix<BigInt> prefix;
      lattice::BasicHnfResult<BigInt> scratch;
      try {
        prefix = lattice::detail::hermite_prefix_t(s, options);
        scratch = lattice::detail::hermite_normal_form_t(stacked, options);
      } catch (const std::domain_error&) {
        continue;  // rank-deficient draw; both paths refuse identically
      }
      lattice::BasicHnfResult<BigInt> warm =
          lattice::detail::hermite_extend_row_t(prefix, last);
      expect_matrices_equal(warm.h, scratch.h, "h");
      expect_matrices_equal(warm.u, scratch.u, "u");
      expect_matrices_equal(warm.v, scratch.v, "v");
      ++tested;
    }
  }
}

// ---------------------------------------------------------------------------
// Proposition 3.2: cross([S; pi]) == C * pi
// ---------------------------------------------------------------------------

TEST(CofactorClosedForm, MatchesMinorExpansionOnRandomInputs) {
  Lcg rng;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next(2, 5));
    linalg::Matrix<BigInt> s(n - 2, n);
    for (std::size_t i = 0; i + 2 < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) s(i, j) = BigInt(rng.next(-6, 6));
    }
    linalg::Matrix<BigInt> cof =
        mapping::detail::conflict_cofactor_matrix_t(s);

    linalg::Matrix<BigInt> t(n - 1, n);
    for (std::size_t i = 0; i + 2 < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) t(i, j) = s(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) t(n - 2, j) = BigInt(rng.next(-6, 6));

    linalg::Vector<BigInt> direct = mapping::detail::conflict_cross_raw_t(t);
    for (std::size_t i = 0; i < n; ++i) {
      BigInt acc(0);
      for (std::size_t j = 0; j < n; ++j) acc += cof(i, j) * t(n - 2, j);
      EXPECT_TRUE(acc == direct[i]) << "entry " << i;
    }
  }
}

TEST(CofactorClosedForm, PublicApiRequiresNMinus2Rows) {
  EXPECT_THROW(
      mapping::conflict_cofactor_matrix(MatI{{1, 0, 0}, {0, 1, 0}}),
      std::domain_error);
  MatZ c = mapping::conflict_cofactor_matrix(MatI{{1, 1, -1}});
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 3u);
  // Sanity: every column is in the kernel of S.
  for (std::size_t j = 0; j < 3; ++j) {
    BigInt dot(0);
    for (std::size_t r = 0; r < 3; ++r) {
      dot += BigInt(MatI{{1, 1, -1}}(0, r)) * c(r, j);
    }
    EXPECT_TRUE(dot.is_zero());
  }
}

// ---------------------------------------------------------------------------
// Per-candidate parity: context vs seed (rank, status, rule, witness)
// ---------------------------------------------------------------------------

struct ParityCase {
  model::UniformDependenceAlgorithm algo;
  MatI space;
  Int max_f;
  bool include_brute_force;
};

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  // k = n-1 (Theorem 3.1 closed form), the gallery hot path.
  cases.push_back({model::matmul(3), MatI{{1, 1, -1}}, 9, true});
  cases.push_back({model::transitive_closure(3), MatI{{0, 0, 1}}, 9, false});
  // k = n (square rank rule).
  cases.push_back(
      {model::matmul(3), MatI{{1, 0, 0}, {0, 1, 0}}, 6, true});
  // k = n-2 (Theorem 4.7 / exact ladder over the warm-started HNF; brute
  // force through the context's echelon replay).
  cases.push_back(
      {model::unit_cube_algorithm(4, 2), MatI{{1, 0, 0, 0}}, 6, true});
  // k = n-3 (Theorem 4.8 path; empty space part).
  cases.push_back(
      {model::unit_cube_algorithm(4, 2), MatI(0, 4), 4, false});
  // k = n-1 with a 2-D index set (degenerate small n).
  cases.push_back({model::convolution(4, 3), MatI(0, 2), 8, false});
  return cases;
}

TEST(FixedSpaceParity, PerCandidateAgainstSeedAcrossOracles) {
  for (const ParityCase& c : parity_cases()) {
    const model::IndexSet& set = c.algo.index_set();
    FixedSpaceContext ctx(set, c.space);
    EXPECT_EQ(ctx.k(), c.space.rows() + 1);
    EXPECT_EQ(ctx.n(), set.dimension());
    std::vector<ConflictOracle> oracles = {ConflictOracle::kPaperTheorems,
                                           ConflictOracle::kExact};
    if (c.include_brute_force) {
      oracles.push_back(ConflictOracle::kBruteForce);
    }
    for (Int f = 1; f <= c.max_f; ++f) {
      enumerate_schedules_at(set, f, [&](const VecI& pi) {
        SCOPED_TRACE(c.algo.name() + " f=" + std::to_string(f));
        mapping::MappingMatrix t(c.space, pi);
        const bool seed_rank = t.has_full_rank();
        EXPECT_EQ(ctx.has_full_rank(pi), seed_rank);
        if (!seed_rank) {
          // The fused screen must reject exactly where the seed's rank
          // test does (for k = n-1 it detects this as gamma = C pi = 0).
          for (ConflictOracle oracle : oracles) {
            EXPECT_FALSE(ctx.screen(oracle, pi).has_value());
          }
          return true;  // seed search never consults oracles
        }
        for (ConflictOracle oracle : oracles) {
          mapping::ConflictVerdict seed =
              run_conflict_oracle(oracle, t, set);
          mapping::ConflictVerdict fast = ctx.verdict(oracle, pi);
          EXPECT_EQ(seed.status, fast.status);
          EXPECT_EQ(seed.rule, fast.rule);
          EXPECT_EQ(seed.witness.has_value(), fast.witness.has_value());
          if (seed.witness && fast.witness) {
            EXPECT_EQ(seed.witness->size(), fast.witness->size());
            for (std::size_t i = 0; i < seed.witness->size(); ++i) {
              EXPECT_TRUE((*seed.witness)[i] == (*fast.witness)[i]);
            }
          }
          // screen() is the search's only Step 5(2)+(3) decision: with
          // rank passed it engages exactly on conflict-free verdicts, and
          // then with the same status and rule.
          std::optional<mapping::ConflictVerdict> screened =
              ctx.screen(oracle, pi);
          EXPECT_EQ(screened.has_value(),
                    seed.status ==
                        mapping::ConflictVerdict::Status::kConflictFree);
          if (screened) {
            EXPECT_EQ(screened->status, seed.status);
            EXPECT_EQ(screened->rule, seed.rule);
          }
        }
        return true;
      });
    }
  }
}

TEST(FixedSpaceParity, RankDeficientSpaceRejectsEverything) {
  model::UniformDependenceAlgorithm algo = model::matmul(3);
  MatI space{{1, 1, -1}, {2, 2, -2}};  // rank 1, k = 3
  FixedSpaceContext ctx(algo.index_set(), space);
  for (Int f = 1; f <= 6; ++f) {
    enumerate_schedules_at(algo.index_set(), f, [&](const VecI& pi) {
      EXPECT_FALSE(ctx.has_full_rank(pi));
      EXPECT_EQ(ctx.has_full_rank(pi),
                mapping::MappingMatrix(space, pi).has_full_rank());
      EXPECT_FALSE(ctx.screen(ConflictOracle::kExact, pi).has_value());
      return true;
    });
  }
}

TEST(FixedSpaceParity, ValidatesShapes) {
  model::UniformDependenceAlgorithm algo = model::matmul(3);
  EXPECT_THROW(FixedSpaceContext(algo.index_set(), MatI{{1, 1}}),
               std::invalid_argument);
  EXPECT_THROW(FixedSpaceContext(algo.index_set(),
                                 MatI{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: procedure_5_1 (always through the context) against the
// from-scratch reference scan, identical results
// ---------------------------------------------------------------------------

void expect_identical(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.found, b.found);
  EXPECT_EQ(a.candidates_tested, b.candidates_tested);
  EXPECT_EQ(a.candidates_passed_dependence, b.candidates_passed_dependence);
  EXPECT_TRUE(a == b);  // every field, witness and routing included
  if (!a.found) return;
  EXPECT_EQ(a.pi, b.pi);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.verdict.status, b.verdict.status);
  EXPECT_EQ(a.verdict.rule, b.verdict.rule);
}

TEST(FixedSpaceParity, Procedure51ContextOnOffBitIdentical) {
  for (const ParityCase& c : parity_cases()) {
    std::vector<ConflictOracle> oracles = {ConflictOracle::kPaperTheorems,
                                           ConflictOracle::kExact};
    if (c.include_brute_force) {
      oracles.push_back(ConflictOracle::kBruteForce);
    }
    for (ConflictOracle oracle : oracles) {
      SCOPED_TRACE(c.algo.name());
      SearchOptions opts;
      opts.oracle = oracle;
      const SearchResult fast = procedure_5_1(c.algo, c.space, opts);
      const SearchResult seed = reference_scan(
          c.algo, c.space, default_max_objective(c.algo.index_set()), oracle);
      expect_identical(seed, fast);
    }
  }
}

TEST(FixedSpaceParity, RoutingTargetWorksThroughContext) {
  model::UniformDependenceAlgorithm algo = model::matmul(4);
  SearchOptions opts;
  opts.target = schedule::Interconnect::nearest_neighbor(1);
  SearchResult fast = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
  SearchResult seed = reference_scan(
      algo, MatI{{1, 1, -1}}, default_max_objective(algo.index_set()),
      opts.oracle, opts.target);
  expect_identical(seed, fast);
  ASSERT_TRUE(fast.routing.has_value());
  EXPECT_EQ(fast.routing->total_buffers(), seed.routing->total_buffers());
}

// ---------------------------------------------------------------------------
// k <= n-2 raw witness screen: screen(kExact) == rank && exact ladder
// ---------------------------------------------------------------------------

struct WitnessCase {
  model::UniformDependenceAlgorithm algo;
  MatI space;
};

// Seeded (J, D, S) with n in 3..6 and k <= n-2 (kernels of dimension
// 2..4), extents 1..5 and mixed-sign dependences, plus two spaces whose
// HNF multipliers sit near the int64 limit, so pi U_free overflows and
// the raw screen must fall through to the exact path, and two spaces
// with rank-deficient candidates.
std::vector<WitnessCase> witness_cases() {
  Lcg rng;
  rng.state = 0x2545f4914f6cdd1dull;
  std::vector<WitnessCase> cases;
  for (int trial = 0; trial < 36; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next(3, 6));
    const Int lowest_k = std::max<Int>(1, static_cast<Int>(n) - 4);
    const std::size_t k = static_cast<std::size_t>(
        rng.next(lowest_k, static_cast<Int>(n) - 2));
    VecI mu(n);
    for (Int& m : mu) m = rng.next(1, 5);
    const std::size_t deps = static_cast<std::size_t>(rng.next(1, 3));
    MatI d(n, deps);
    for (std::size_t c = 0; c < deps; ++c) {
      bool nonzero = false;
      for (std::size_t r = 0; r < n; ++r) {
        d(r, c) = rng.next(-1, 2);
        nonzero = nonzero || d(r, c) != 0;
      }
      if (!nonzero) d(c % n, c) = 1;
    }
    MatI space(k - 1, n);
    for (std::size_t r = 0; r + 1 < k; ++r) {
      for (std::size_t c = 0; c < n; ++c) space(r, c) = rng.next(-3, 3);
    }
    cases.push_back({model::UniformDependenceAlgorithm(
                         "witness" + std::to_string(trial),
                         model::IndexSet(mu), d),
                     space});
  }
  // Candidates parallel to S (rank([S; pi]) < k), and an S without full
  // row rank, whose every candidate the rank screen rejects.
  cases.push_back({model::UniformDependenceAlgorithm(
                       "rank_drop", model::IndexSet(VecI{1, 2, 1, 2}),
                       MatI{{1, 0, 1}, {0, 1, 0}, {1, -1, 0}, {0, 0, 1}}),
                   MatI{{1, 0, 0, 0}}});
  cases.push_back({model::UniformDependenceAlgorithm(
                       "rank_deficient_s", model::IndexSet(VecI{1, 1, 2, 1, 1}),
                       MatI{{1}, {1}, {1}, {1}, {1}}),
                   MatI{{1, -1, 0, 2, 0}, {-2, 2, 0, -4, 0}}});
  const Int big = (Int{1} << 62) - 1;
  cases.push_back({model::UniformDependenceAlgorithm(
                       "near_limit_4", model::IndexSet(VecI{2, 1, 3, 2}),
                       MatI{{1, 0}, {0, 1}, {1, -1}, {0, 1}}),
                   MatI{{1, big, 0, 0}}});
  cases.push_back({model::UniformDependenceAlgorithm(
                       "near_limit_5", model::IndexSet(VecI{1, 2, 1, 3, 2}),
                       MatI{{1}, {1}, {-1}, {1}, {1}}),
                   MatI{{0, 1, -big, 0, 1}, {1, 0, 0, 1, 0}}});
  return cases;
}

TEST(FixedSpace, RawWitnessScreenMatchesLadder) {
  constexpr std::uint64_t kCandidatesPerCase = 500;
  std::uint64_t accepted = 0;
  std::uint64_t conflicted = 0;
  std::uint64_t rank_rejected = 0;
  for (const WitnessCase& c : witness_cases()) {
    SCOPED_TRACE(c.algo.name());
    const model::IndexSet& set = c.algo.index_set();
    const FixedSpaceContext ctx(set, c.space);
    std::uint64_t seen = 0;
    Int level = 0;
    for (Int f = 1; seen < kCandidatesPerCase; ++f) {
      level = f;
      enumerate_schedules_at(set, f, [&](const VecI& pi) {
        ++seen;
        const bool rank = mapping::MappingMatrix(c.space, pi).has_full_rank();
        std::optional<mapping::ConflictVerdict> ladder;
        if (rank) {
          ladder = ctx.verdict(ConflictOracle::kExact, pi);
        }
        const bool expected = rank && ladder->conflict_free();
        const std::optional<mapping::ConflictVerdict> screened =
            ctx.screen(ConflictOracle::kExact, pi);
        EXPECT_EQ(screened.has_value(), expected);
        if (screened && expected) {
          EXPECT_EQ(screened->status, ladder->status);
          EXPECT_EQ(screened->rule, ladder->rule);
        }
        if (expected) ++accepted;
        if (rank && !expected) ++conflicted;
        if (!rank) ++rank_rejected;
        return seen < kCandidatesPerCase;
      });
    }

    SearchOptions opts;
    opts.max_objective = level;
    EXPECT_TRUE(procedure_5_1(c.algo, c.space, opts) ==
                reference_scan(c.algo, c.space, level,
                               ConflictOracle::kExact));
  }
  // Both outcomes occur, so the parity above is not vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(conflicted, 0u);
  EXPECT_GT(rank_rejected, 0u);
}

}  // namespace
}  // namespace sysmap::search
