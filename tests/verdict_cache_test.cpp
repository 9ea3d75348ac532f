// Canonical-form verdict cache: key canonicalization, cache mechanics,
// cached-vs-scalar screen parity and (the point of the exercise) verdict
// reuse across Pi and S candidates without perturbing a single result bit.
// The cache is an opt-in memo for k <= n-2; the k = n-1 screen and the
// library's own callers (fused pipeline, space sweeps) never touch it.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "mapping/canonical_key.hpp"
#include "model/gallery.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "search/procedure51.hpp"
#include "search/verdict_cache.hpp"
#include "reference_scan.hpp"

namespace sysmap::search {
namespace {

using mapping::ConflictKey;

TEST(CanonicalKey, KernelKeyInvariantUnderBasisPresentation) {
  model::IndexSet set(VecI{3, 3, 3, 3});
  // A fake HNF transform whose kernel basis is columns 2..3.
  MatZ u(4, 4);
  const Int cols[4][4] = {{1, 0, 2, 0},
                          {0, 1, -1, 3},
                          {0, 0, 1, 1},
                          {0, 0, 0, 2}};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) u(i, j) = exact::BigInt(cols[i][j]);
  }
  std::optional<ConflictKey> base =
      mapping::canonical_kernel_key(u, 2, set, 2, 1);
  ASSERT_TRUE(base.has_value());
  // Negate one basis column and swap the two: same lattice, same key.
  MatZ v(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    v(i, 2) = u(i, 3);
    v(i, 3) = exact::BigInt(0) - u(i, 2);
  }
  std::optional<ConflictKey> same =
      mapping::canonical_kernel_key(v, 2, set, 2, 1);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(*base, *same);
  // A column scaled by 2 is normalized back to the same primitive ray --
  // by construction the keys only ever see primitive columns (kernel
  // bases come from unimodular transforms), so this is the safe side of
  // the canonicalization.
  MatZ w = u;
  for (std::size_t i = 0; i < 4; ++i) w(i, 2) = u(i, 2) * exact::BigInt(2);
  std::optional<ConflictKey> scaled =
      mapping::canonical_kernel_key(w, 2, set, 2, 1);
  ASSERT_TRUE(scaled.has_value());
  EXPECT_EQ(*base, *scaled);
  // A genuinely different basis vector must produce a different key.
  MatZ x = u;
  x(0, 2) = exact::BigInt(5);
  std::optional<ConflictKey> different =
      mapping::canonical_kernel_key(x, 2, set, 2, 1);
  ASSERT_TRUE(different.has_value());
  EXPECT_FALSE(*base == *different);
}

TEST(VerdictCache, FirstWriterWinsAndCountersTrack) {
  ConflictKey key;
  key.oracle_tag = 1;
  key.n = 3;
  key.k = 1;
  key.payload = {4, 5, 6, 1, -2, 3};
  VerdictCache cache(4);
  EXPECT_FALSE(cache.lookup(key).has_value());  // miss
  cache.insert(key, true, "rule A");
  cache.insert(key, false, "rule B");  // dropped: first writer wins
  std::optional<VerdictCache::Outcome> out = cache.lookup(key);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->conflict_free);
  EXPECT_EQ(out->rule, "rule A");
  const VerdictCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(VerdictCache, ExactAcceptAdmissionIsRestrictedToSignPattern) {
  EXPECT_TRUE(exact_accept_rule_cacheable(
      "sign-pattern: every beta sign class certified"));
  EXPECT_FALSE(exact_accept_rule_cacheable(
      "sign-pattern: every beta sign class certified (LLL-reduced basis)"));
  EXPECT_FALSE(
      exact_accept_rule_cacheable("Theorem 4.5: gcd rows with nonsingular "
                                  "minor"));
}

struct GalleryCase {
  model::UniformDependenceAlgorithm algo;
  MatI space;
};

std::vector<GalleryCase> gallery_cases() {
  std::vector<GalleryCase> cases;
  cases.push_back({model::matmul(3), MatI{{1, 1, -1}}});
  cases.push_back({model::transitive_closure(3), MatI{{0, 0, 1}}});
  cases.push_back({model::convolution(4, 3), MatI(0, 2)});
  cases.push_back({model::unit_cube_algorithm(4, 2), MatI{{1, 0, 0, 0}}});
  cases.push_back({model::unit_cube_algorithm(4, 2), MatI(0, 4)});
  return cases;
}

void expect_same_result(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.found, b.found);
  EXPECT_EQ(a.candidates_tested, b.candidates_tested);
  EXPECT_EQ(a.candidates_passed_dependence, b.candidates_passed_dependence);
  if (!a.found) return;
  EXPECT_EQ(a.pi, b.pi);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.verdict.status, b.verdict.status);
  EXPECT_EQ(a.verdict.rule, b.verdict.rule);
}

// The cache must be invisible in every result bit, under both oracles it
// serves, serial and repeated.
TEST(VerdictCache, SerialSearchBitIdenticalWithAndWithoutCache) {
  for (const GalleryCase& c : gallery_cases()) {
    for (ConflictOracle oracle :
         {ConflictOracle::kExact, ConflictOracle::kPaperTheorems}) {
      SCOPED_TRACE(c.algo.name());
      SearchOptions plain;
      plain.oracle = oracle;
      const SearchResult uncached = procedure_5_1(c.algo, c.space, plain);
      VerdictCache cache;
      SearchOptions with_cache = plain;
      with_cache.verdict_cache = &cache;
      const SearchResult cold = procedure_5_1(c.algo, c.space, with_cache);
      const VerdictCache::Stats after_cold = cache.stats();
      expect_same_result(uncached, cold);
      const SearchResult warm = procedure_5_1(c.algo, c.space, with_cache);
      const VerdictCache::Stats after_warm = cache.stats();
      expect_same_result(uncached, warm);
      if (after_cold.misses > 0) {
        EXPECT_GT(after_warm.hits - after_cold.hits, 0u) << c.algo.name();
      }
    }
  }
}

// Cross-S reuse: a scaled or sign-flipped one-row space part leaves the
// kernel lattice of [S; Pi] unchanged, so a search that shares the cache
// with an earlier one must run hot -- fewer misses than the same search
// on a fresh cache -- and still answer identically to its uncached run.
TEST(VerdictCache, HitsAccumulateAcrossScaledSpaces) {
  model::UniformDependenceAlgorithm algo = model::unit_cube_algorithm(4, 2);
  const MatI s1{{1, 0, 0, 0}};
  for (const MatI& s2 : {MatI{{2, 0, 0, 0}}, MatI{{-1, 0, 0, 0}}}) {
    VerdictCache cache;
    SearchOptions opts;
    opts.verdict_cache = &cache;
    procedure_5_1(algo, s1, opts);
    const VerdictCache::Stats after_first = cache.stats();
    const SearchResult second = procedure_5_1(algo, s2, opts);
    EXPECT_GT(after_first.misses, 0u);
    EXPECT_GT(cache.stats().hits - after_first.hits, 0u);

    VerdictCache fresh;
    SearchOptions fresh_opts;
    fresh_opts.verdict_cache = &fresh;
    procedure_5_1(algo, s2, fresh_opts);
    EXPECT_LT(cache.stats().misses - after_first.misses,
              fresh.stats().misses);
    expect_same_result(procedure_5_1(algo, s2, {}), second);
  }
}

// Brute force is screened through the same FixedSpaceContext as the other
// oracles but must never read or write the cache, both where k = n-1
// (the cofactor branch is bypassed) and where k <= n-2 (the HNF prefix is
// built but the cached HNF tail is bypassed).  The result still equals
// the from-scratch brute-force scan.
TEST(VerdictCache, BruteForceThroughContextNeverTouchesCache) {
  const std::vector<GalleryCase> cases = {
      {model::matmul(4), MatI{{1, 1, -1}}},
      {model::unit_cube_algorithm(4, 2), MatI{{1, 0, 0, 0}}},
  };
  for (const GalleryCase& c : cases) {
    SCOPED_TRACE(c.algo.name());
    VerdictCache cache;
    SearchOptions opts;
    opts.oracle = ConflictOracle::kBruteForce;
    opts.verdict_cache = &cache;
    const SearchResult result = procedure_5_1(c.algo, c.space, opts);
    const VerdictCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_TRUE(result.found);
    EXPECT_TRUE(result ==
                reference_scan(c.algo, c.space,
                               default_max_objective(c.algo.index_set()),
                               ConflictOracle::kBruteForce));
  }
}

// Screens every candidate of the given levels with and without `cache`
// under both oracles the cache serves; the two must agree on
// accept/reject and on the accepting verdict.
void expect_cached_screen_matches(const model::UniformDependenceAlgorithm& algo,
                                  const MatI& space,
                                  const std::vector<Int>& levels,
                                  VerdictCache& cache) {
  FixedSpaceContext ctx(algo.index_set(), space);
  for (Int f : levels) {
    std::vector<VecI> pis;
    for_each_schedule_at(algo.index_set(), f, [&](const VecI& pi) {
      pis.push_back(pi);
      return true;
    });
    ASSERT_FALSE(pis.empty());
    for (ConflictOracle oracle :
         {ConflictOracle::kExact, ConflictOracle::kPaperTheorems}) {
      for (std::size_t j = 0; j < pis.size(); ++j) {
        const std::optional<mapping::ConflictVerdict> scalar =
            ctx.screen(oracle, pis[j]);
        const std::optional<mapping::ConflictVerdict> cached =
            ctx.screen(oracle, pis[j], &cache);
        ASSERT_EQ(cached.has_value(), scalar.has_value()) << "col " << j;
        if (scalar) {
          EXPECT_EQ(cached->status, scalar->status);
          EXPECT_EQ(cached->rule, scalar->rule);
        }
      }
    }
  }
}

// Cached screen parity, per candidate: memoizing by canonical kernel
// form must reproduce the uncached screen's accept/reject and verdict on
// every candidate of a level, not only on the search's winner.
TEST(VerdictCache, CachedScreenMatchesScalarScreen) {
  VerdictCache cache;
  expect_cached_screen_matches(model::unit_cube_algorithm(4, 2),
                               MatI{{1, 0, 0, 0}}, {2, 4, 6}, cache);
  EXPECT_GT(cache.stats().entries, 0u);
}

// k = n-1 has no cached screen: Theorem 3.1 decides each candidate in
// O(n), so a cache handed to screen() is ignored -- every verdict equals
// the uncached one and the cache's counters never move.
TEST(VerdictCache, ConflictRayScreenIgnoresCache) {
  VerdictCache cache;
  expect_cached_screen_matches(model::matmul(4), MatI{{1, 1, -1}},
                               {4, 8, 12}, cache);
  const VerdictCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

}  // namespace
}  // namespace sysmap::search
