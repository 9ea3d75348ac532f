// Fast-path parity of the exact LP/ILP layer.
//
// solve_lp, solve_ilp and enumerate_vertices run on CheckedRational and
// restart on Rational when an operation would overflow int64.  Both
// substrates are exact and follow the same pivot and subset order, so every
// answer must be equal field for field (vertex order included) to the
// Rational-only run forced with FastpathGuard(false).  Inputs are the
// branch programs of formulation (5.1)-(5.2) that the pipeline solves, in
// both sign modes, plus LPs whose numbers force the Rational restart.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "exact/fastpath.hpp"
#include "model/gallery.hpp"
#include "opt/ilp.hpp"
#include "opt/simplex.hpp"
#include "opt/vertex_enum.hpp"
#include "search/ilp_formulation.hpp"
#include "search/space_optimal.hpp"

namespace sysmap {
namespace {

using exact::BigInt;
using exact::FastpathGuard;
using exact::Rational;
using search::SignMode;

struct Answers {
  opt::LpSolution lp;
  opt::IlpSolution ilp;
  std::vector<VecQ> vertices;
};

Answers solve_all(const opt::LinearProgram& lp) {
  return {opt::solve_lp(lp), opt::solve_ilp({lp}), opt::enumerate_vertices(lp)};
}

void expect_parity(const opt::LinearProgram& lp, const std::string& where) {
  const Answers fast = solve_all(lp);
  Answers slow;
  {
    FastpathGuard off(false);
    slow = solve_all(lp);
  }
  EXPECT_TRUE(fast.lp == slow.lp) << where << ": solve_lp";
  EXPECT_TRUE(fast.ilp == slow.ilp) << where << ": solve_ilp";
  EXPECT_TRUE(fast.vertices == slow.vertices) << where << ": vertices";
}

std::vector<MatI> spaces(std::size_t n, std::size_t array_dims,
                         std::size_t stride) {
  search::SpaceSearchOptions options;
  options.max_entry = 1;
  options.array_dims = array_dims;
  std::vector<MatI> all = search::candidate_spaces(n, options);
  std::vector<MatI> picked;
  for (std::size_t i = 0; i < all.size(); i += stride) picked.push_back(all[i]);
  return picked;
}

// Every branch program of every (algorithm, S) pair in both sign modes,
// then the whole k = n-1 route on the same pairs.
void check_family(const std::string& name,
                  const model::UniformDependenceAlgorithm& algo,
                  const std::vector<MatI>& candidates) {
  for (std::size_t s = 0; s < candidates.size(); ++s) {
    const MatI& space = candidates[s];
    const MatZ f = search::conflict_coefficients(space);
    for (SignMode mode : {SignMode::kPositive, SignMode::kOrthants}) {
      const std::string where = name + " S#" + std::to_string(s) +
                                (mode == SignMode::kPositive ? " positive"
                                                             : " orthants");
      std::size_t branch = 0;
      search::for_each_branch(algo, f, mode,
                              [&](const opt::LinearProgram& lp) {
                                expect_parity(lp, where + " branch " +
                                                      std::to_string(branch++));
                              });
      const search::IlpMappingResult fast =
          search::solve_k_equals_n_minus_1(algo, space, mode);
      search::IlpMappingResult slow;
      {
        FastpathGuard off(false);
        slow = search::solve_k_equals_n_minus_1(algo, space, mode);
      }
      EXPECT_TRUE(fast == slow) << where << ": IlpMappingResult";
    }
  }
}

TEST(OptFastpathParity, Matmul) {
  check_family("matmul(5)", model::matmul(5), spaces(3, 1, 1));
}

TEST(OptFastpathParity, TransitiveClosure) {
  check_family("transitive_closure(5)", model::transitive_closure(5),
               spaces(3, 1, 1));
}

TEST(OptFastpathParity, UnitCube3) {
  check_family("unit_cube(3, 4)", model::unit_cube_algorithm(3, 4),
               spaces(3, 1, 1));
}

// The 780 four-dimensional candidates are sampled with a fixed stride
// (three spaces) to keep the suite fast under sanitizers.
TEST(OptFastpathParity, UnitCube4) {
  check_family("unit_cube(4, 3)", model::unit_cube_algorithm(4, 3),
               spaces(4, 2, 260));
}

TEST(OptFastpathParity, Convolution2d) {
  check_family("convolution_2d(3,3,2,2)", model::convolution_2d(3, 3, 2, 2),
               spaces(4, 2, 260));
}

// An LP whose pivots multiply numbers near 2^40: the fast path must trap,
// restart on Rational, and still match the Rational-only run.
TEST(OptFastpathParity, NearTwoToFortyTakesRestart) {
  const Rational big(Int{1} << 40);
  opt::LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {big + Rational(3), big - Rational(5)};
  lp.add({big + Rational(1), big - Rational(1)}, opt::Relation::kGe,
         big * Rational(3) + Rational(7));
  lp.add({big - Rational(7), big + Rational(11)}, opt::Relation::kGe,
         big * Rational(2) + Rational(1));
  lp.add({Rational(1), Rational(-1)}, opt::Relation::kLe, Rational(5));
  lp.add_bound(0, opt::Relation::kGe, Rational(0));
  lp.add_bound(1, opt::Relation::kGe, Rational(0));

  exact::reset_fastpath_stats();
  const Answers fast = solve_all(lp);
  const exact::FastpathStats stats = exact::fastpath_stats();
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.fallbacks, 3u) << "fixture failed to force the restart";
  Answers slow;
  {
    FastpathGuard off(false);
    slow = solve_all(lp);
  }
  ASSERT_EQ(fast.lp.status, opt::LpStatus::kOptimal);
  EXPECT_TRUE(fast.lp == slow.lp);
  EXPECT_TRUE(fast.ilp == slow.ilp);
  EXPECT_TRUE(fast.vertices == slow.vertices);
  EXPECT_FALSE(fast.vertices.empty());
}

// An input entry beyond int64 traps in the conversion itself.
TEST(OptFastpathParity, WideInputTakesRestart) {
  const Rational wide(BigInt(Int{1} << 40) * BigInt(Int{1} << 40));
  opt::LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {Rational(1)};
  lp.add_bound(0, opt::Relation::kGe, wide);
  lp.add_bound(0, opt::Relation::kLe, wide + Rational(1));

  exact::reset_fastpath_stats();
  const Answers fast = solve_all(lp);
  EXPECT_EQ(exact::fastpath_stats().fallbacks, 3u);
  ASSERT_EQ(fast.lp.status, opt::LpStatus::kOptimal);
  EXPECT_EQ(fast.lp.x, VecQ{wide});
  expect_parity(lp, "wide input");
}

}  // namespace
}  // namespace sysmap
