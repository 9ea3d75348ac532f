// Tests for Section 5: Procedure 5.1, the ILP formulation (5.1)-(5.2), the
// appendix's extreme-point method, and Proposition 8.1 -- with the paper's
// Examples 5.1 and 5.2 as golden results.
#include <gtest/gtest.h>

#include "baseline/prior_work.hpp"
#include "lattice/hnf.hpp"
#include "linalg/ops.hpp"
#include "lattice/kernel.hpp"
#include "model/gallery.hpp"
#include "schedule/linear_schedule.hpp"
#include "search/extreme_points.hpp"
#include "search/ilp_formulation.hpp"
#include "search/procedure51.hpp"
#include "search/prop81.hpp"

namespace sysmap::search {
namespace {

using exact::BigInt;
using exact::Rational;

// ---------------------------------------------------------------------------
// Candidate enumeration
// ---------------------------------------------------------------------------

TEST(Enumerate, CountsAndOrder) {
  model::IndexSet set({1, 1});  // weights (1, 1)
  std::vector<VecI> at2;
  enumerate_schedules_at(set, 2, [&](const VecI& pi) {
    at2.push_back(pi);
    return true;
  });
  // |pi1| + |pi2| = 2: (0,±2), (±1,±1), (±2,0) -> 2 + 4 + 2 = 8.
  EXPECT_EQ(at2.size(), 8u);
  // Deterministic: repeated runs give identical order.
  std::vector<VecI> again;
  enumerate_schedules_at(set, 2, [&](const VecI& pi) {
    again.push_back(pi);
    return true;
  });
  EXPECT_EQ(at2, again);
}

TEST(Enumerate, WeightsScaleByMu) {
  model::IndexSet set({2, 3});
  std::vector<VecI> found;
  enumerate_schedules_at(set, 6, [&](const VecI& pi) {
    found.push_back(pi);
    schedule::LinearSchedule s(pi);
    EXPECT_EQ(s.objective(set), 6);
    return true;
  });
  // 2|a| + 3|b| = 6: (0,±2), (±3,0) -> 4 candidates.
  EXPECT_EQ(found.size(), 4u);
}

TEST(Enumerate, AbortPropagates) {
  model::IndexSet set({1, 1});
  int count = 0;
  bool completed = enumerate_schedules_at(set, 2, [&](const VecI&) {
    return ++count < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

// ---------------------------------------------------------------------------
// Example 5.1: matrix multiplication onto a linear array
// ---------------------------------------------------------------------------

TEST(Example51, OptimalScheduleEvenMu) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  MatI s{{1, 1, -1}};
  SearchResult r = procedure_5_1(algo, s);
  ASSERT_TRUE(r.found);
  // f = mu(mu+2) = 24.  The paper reports the extreme points [1,mu,1] /
  // [mu,1,1]; interior optima like [1,2,3] share the same objective, and
  // the enumeration returns the lexicographically first of them.
  EXPECT_EQ(r.objective, mu * (mu + 2));
  EXPECT_EQ(r.makespan, mu * (mu + 2) + 1);  // t = 25
  // The paper's Pi_2 = [1, mu, 1] is indeed conflict-free at even mu, and
  // no strictly better objective exists (r.objective is the certified
  // minimum).
  mapping::MappingMatrix pi2(s, VecI{1, mu, 1});
  EXPECT_TRUE(
      mapping::decide_conflict_free(pi2, algo.index_set()).conflict_free());
  schedule::LinearSchedule found_sched(r.pi);
  EXPECT_EQ(found_sched.objective(algo.index_set()), r.objective);
}

TEST(Example51, BeatsRef23Schedule) {
  const Int mu = 4;
  baseline::PriorMapping prior = baseline::ref23_matmul(mu);
  schedule::LinearSchedule prior_sched(prior.pi);
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  EXPECT_EQ(prior_sched.makespan(algo.index_set()), prior.published_makespan);
  SearchResult r = procedure_5_1(algo, prior.space);
  ASSERT_TRUE(r.found);
  EXPECT_LT(r.makespan, prior.published_makespan);  // 25 < 29
}

TEST(Example51, Mu3BeatsThePaperSideRemark) {
  // The paper remarks that [23]'s Pi' = [2,1,mu] is optimal when mu = 3
  // (t = 19).  Under the paper's own Problem 2.2, however, Pi = [2,1,2] is
  // conflict-free -- gamma = (-3, 4, 1) has |4| > mu -- with t = 16.
  // ([23] additionally required data to arrive exactly at use time, i.e.
  // equality in (2.3), which excludes [2,1,2]; see EXPERIMENTS.md.)
  const Int mu = 3;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  SearchResult r = procedure_5_1(algo, MatI{{1, 1, -1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.objective, 15);
  EXPECT_EQ(r.makespan, 16);
  // Cross-check with the theory-free brute-force oracle.
  SearchOptions brute;
  brute.oracle = ConflictOracle::kBruteForce;
  SearchResult b = procedure_5_1(algo, MatI{{1, 1, -1}}, brute);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(b.objective, 15);
}

TEST(Example51, OddMuGcdCaveat) {
  // For odd mu, Pi = [1, mu, 1] is NOT conflict-free (its raw conflict
  // vector has gcd 2 and scales down to a non-feasible one), but the
  // optimal objective is still mu(mu+2): Pi = [2, 1, mu-1] achieves it
  // with gamma = (-mu, mu+1, 1), feasible for every mu.
  const Int mu = 5;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  SearchResult r = procedure_5_1(algo, MatI{{1, 1, -1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.objective, mu * (mu + 2));
  EXPECT_NE(r.pi, (VecI{1, mu, 1}));
  EXPECT_NE(r.pi, (VecI{mu, 1, 1}));
  // The [2, 1, mu-1] family is valid at every mu.
  mapping::MappingMatrix t(MatI{{1, 1, -1}}, VecI{2, 1, mu - 1});
  EXPECT_TRUE(mapping::decide_conflict_free(t, algo.index_set())
                  .conflict_free());
}

TEST(Example51, PaperTheoremOracleAgrees) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  SearchOptions opts;
  opts.oracle = ConflictOracle::kPaperTheorems;
  SearchResult paper = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
  opts.oracle = ConflictOracle::kBruteForce;
  SearchResult brute = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
  ASSERT_TRUE(paper.found);
  ASSERT_TRUE(brute.found);
  EXPECT_EQ(paper.objective, brute.objective);
  EXPECT_EQ(paper.pi, brute.pi);
}

TEST(Example51, FixedInterconnectAddsRoutingCheck) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  SearchOptions opts;
  opts.target = schedule::Interconnect::nearest_neighbor(1);
  SearchResult r = procedure_5_1(algo, MatI{{1, 1, -1}}, opts);
  ASSERT_TRUE(r.found);
  ASSERT_TRUE(r.routing.has_value());
  EXPECT_EQ(r.objective, mu * (mu + 2));
  EXPECT_EQ(r.routing->total_buffers(), 3);
}

// ---------------------------------------------------------------------------
// Example 5.2: transitive closure
// ---------------------------------------------------------------------------

TEST(Example52, OptimalSchedule) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
  SearchResult r = procedure_5_1(algo, MatI{{0, 0, 1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.pi, (VecI{mu + 1, 1, 1}));
  EXPECT_EQ(r.makespan, mu * (mu + 3) + 1);
}

TEST(Example52, ImprovesOnRef22) {
  for (Int mu : {2, 3, 4, 6}) {
    model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
    baseline::PriorMapping prior = baseline::ref22_transitive_closure(mu);
    schedule::LinearSchedule prior_sched(prior.pi);
    EXPECT_EQ(prior_sched.makespan(algo.index_set()),
              prior.published_makespan);
    EXPECT_TRUE(prior_sched.respects_dependences(algo.dependence_matrix()));
    SearchResult r = procedure_5_1(algo, prior.space);
    ASSERT_TRUE(r.found) << "mu=" << mu;
    EXPECT_EQ(r.makespan, mu * (mu + 3) + 1) << "mu=" << mu;
    EXPECT_LT(r.makespan, prior.published_makespan) << "mu=" << mu;
  }
}

// ---------------------------------------------------------------------------
// ILP formulation (5.1)-(5.2)
// ---------------------------------------------------------------------------

TEST(IlpFormulation, ConflictCoefficientsMatmul) {
  // S = [1,1,-1]: gamma(Pi) = (pi2+pi3, -(pi1+pi3), -(pi1-pi2)) up to the
  // global cross-product sign; check F rows against Equation 3.5.
  MatZ f = conflict_coefficients(MatI{{1, 1, -1}});
  // Row 0: coefficient of pi2 and pi3 must be equal (pi2 + pi3 pattern).
  EXPECT_TRUE(f(0, 0).is_zero());
  EXPECT_EQ(f(0, 1), f(0, 2));
  EXPECT_FALSE(f(0, 1).is_zero());
  // gamma(Pi) for Pi = [1,4,1] must be parallel to (5, -2, 3).
  VecZ pi = to_bigint(VecI{1, 4, 1});
  VecZ gamma = f * pi;
  EXPECT_TRUE((gamma[0] * BigInt(-2) == gamma[1] * BigInt(5)));
  EXPECT_TRUE((gamma[1] * BigInt(3) == gamma[2] * BigInt(-2)));
}

TEST(IlpFormulation, RejectsWrongShape) {
  EXPECT_THROW(conflict_coefficients(MatI{{1, 0, 0}, {0, 1, 0}}),
               std::invalid_argument);
}

TEST(IlpFormulation, MatmulEvenMuBoundTight) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  IlpMappingResult r =
      solve_k_equals_n_minus_1(algo, MatI{{1, 1, -1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.objective, mu * (mu + 2));
  EXPECT_EQ(r.lower_bound, mu * (mu + 2));
}

TEST(IlpFormulation, MatmulOddMuRejectsGcdCandidates) {
  const Int mu = 5;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  IlpMappingResult r =
      solve_k_equals_n_minus_1(algo, MatI{{1, 1, -1}});
  // At least one branch optimum (the [1,5,1]-type gcd trap) must fail
  // verification and be recorded; whatever survives can be no better than
  // the true optimum mu(mu+2) = 35.
  EXPECT_FALSE(r.rejected.empty());
  EXPECT_LE(r.lower_bound, mu * (mu + 2));
  if (r.found) {
    EXPECT_GE(r.objective, mu * (mu + 2));
  }
}

TEST(IlpFormulation, TransitiveClosure) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
  IlpMappingResult r = solve_k_equals_n_minus_1(algo, MatI{{0, 0, 1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.objective, mu * (mu + 3));
  EXPECT_EQ(r.pi, (VecI{mu + 1, 1, 1}));
}

TEST(IlpFormulation, BranchLowerBoundRule) {
  using opt::IlpSolution;
  using opt::IlpStatus;
  IlpSolution optimal;
  optimal.status = IlpStatus::kOptimal;
  optimal.objective = Rational(7);
  optimal.root_objective = Rational(BigInt(13), BigInt(2));
  EXPECT_EQ(branch_lower_bound(optimal), std::optional<Int>(7));

  // Truncated: the unexplored tree is bounded by the root relaxation's
  // ceiling, not by the incumbent.
  IlpSolution truncated = optimal;
  truncated.status = IlpStatus::kNodeLimit;
  truncated.objective = Rational(9);
  EXPECT_EQ(branch_lower_bound(truncated), std::optional<Int>(7));
  truncated.root_objective = Rational(BigInt(-5), BigInt(2));
  EXPECT_EQ(branch_lower_bound(truncated), std::optional<Int>(-2));
  truncated.root_objective.reset();  // node_limit 0: only f >= 0 is known
  EXPECT_EQ(branch_lower_bound(truncated), std::optional<Int>(0));

  IlpSolution infeasible;
  EXPECT_EQ(branch_lower_bound(infeasible), std::nullopt);

  // An optimum beyond int64 cannot lower any representable minimum.
  IlpSolution huge = optimal;
  huge.objective = Rational(BigInt(Int{1} << 40) * BigInt(Int{1} << 40));
  EXPECT_EQ(branch_lower_bound(huge), std::nullopt);
  huge.status = IlpStatus::kNodeLimit;
  huge.root_objective = huge.objective;
  EXPECT_EQ(branch_lower_bound(huge), std::nullopt);
}

TEST(IlpFormulation, HugeMuBoxDoesNotThrow) {
  // Every branch optimum is about mu^2 > int64: each branch is skipped
  // rather than letting an OverflowError escape, and the route reports
  // not-found so the pipeline falls through to Procedure 5.1.
  const Int mu = Int{1} << 40;
  model::UniformDependenceAlgorithm algo = model::unit_cube_algorithm(3, mu);
  for (SignMode mode : {SignMode::kPositive, SignMode::kOrthants}) {
    IlpMappingResult r;
    EXPECT_NO_THROW(r = solve_k_equals_n_minus_1(algo, MatI{{1, 1, -1}},
                                                 mode));
    EXPECT_FALSE(r.found);
    EXPECT_GT(r.ilp_nodes, 0u);
  }
}

TEST(IlpFormulation, AgreesWithProcedure51) {
  // Even mu: the ILP route finds the optimum outright (bound-tight).
  // Odd mu: every branch vertex hits the gcd trap, so the ILP route finds
  // NOTHING verified -- the true optima (e.g. [2,1,mu-1]) are interior
  // points of the branch polytopes.  The lower bound remains valid and the
  // Mapper's Procedure-5.1 certification sweep recovers the optimum (see
  // integration tests and EXPERIMENTS.md).
  for (Int mu : {2, 3, 4, 5, 6}) {
    model::UniformDependenceAlgorithm algo = model::matmul(mu);
    SearchResult proc = procedure_5_1(algo, MatI{{1, 1, -1}});
    IlpMappingResult ilp = solve_k_equals_n_minus_1(algo, MatI{{1, 1, -1}});
    ASSERT_TRUE(proc.found);
    EXPECT_LE(ilp.lower_bound, proc.objective) << "mu=" << mu;
    if (mu % 2 == 0) {
      ASSERT_TRUE(ilp.found) << "mu=" << mu;
      EXPECT_EQ(ilp.objective, proc.objective) << "mu=" << mu;
    } else {
      EXPECT_FALSE(ilp.found) << "mu=" << mu;
      EXPECT_FALSE(ilp.rejected.empty()) << "mu=" << mu;
    }
  }
}

// ---------------------------------------------------------------------------
// Appendix extreme-point method
// ---------------------------------------------------------------------------

TEST(ExtremePoints, ReproducesAppendixExample51) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::matmul(mu);
  ExtremePointResult r = appendix_extreme_point_method(algo, MatI{{1, 1, -1}});
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(r.best_objective, mu * (mu + 2));
  // The appendix's extreme points Pi_1, Pi_2, Pi_4 of formulation I must
  // all be examined.
  auto examined = [&](const VecI& pi) {
    for (const auto& e : r.examined) {
      if (e.pi == pi) return true;
    }
    return false;
  };
  EXPECT_TRUE(examined(VecI{1, 1, mu}));      // Pi_1 (rejected)
  EXPECT_TRUE(examined(VecI{1, mu, 1}));      // Pi_2 (accepted, mu even)
  EXPECT_TRUE(examined(VecI{mu, 1, 1}));      // Pi_3
  EXPECT_TRUE(examined(VecI{1, mu + 2, 1}));  // Pi_4
  EXPECT_TRUE(examined(VecI{mu + 2, 1, 1}));  // Pi_5
  // Pi_1's rejection reason: conflict vector [1,1,0]-direction non-feasible.
  for (const auto& e : r.examined) {
    if (e.pi == VecI{1, 1, mu}) {
      EXPECT_FALSE(e.conflict_free);
    }
    if (e.pi == VecI{1, mu, 1}) {
      EXPECT_TRUE(e.conflict_free);
    }
  }
}

TEST(ExtremePoints, Example52Vertices) {
  const Int mu = 4;
  model::UniformDependenceAlgorithm algo = model::transitive_closure(mu);
  ExtremePointResult r = appendix_extreme_point_method(algo, MatI{{0, 0, 1}});
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(*r.best, (VecI{mu + 1, 1, 1}));
  EXPECT_EQ(r.best_objective, mu * (mu + 3));
}

// ---------------------------------------------------------------------------
// Proposition 8.1
// ---------------------------------------------------------------------------

TEST(Prop81, KernelColumnsAnnihilateT) {
  MatI s{{1, 0, 1, -1, 0}, {0, 1, -1, 0, 1}};  // s11=1, s22-s21*s12=1
  VecI pi{1, 2, 3, 4, 5};
  std::optional<Prop81Result> r = proposition_8_1(s, pi);
  ASSERT_TRUE(r.has_value());
  MatZ t = to_bigint(MatI::vstack(s, MatI::row(pi)));
  EXPECT_TRUE(linalg::is_zero_vector(t * r->u4));
  EXPECT_TRUE(linalg::is_zero_vector(t * r->u5));
  // u4, u5 must be linearly independent.
  MatZ pair(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    pair(i, 0) = r->u4[i];
    pair(i, 1) = r->u5[i];
  }
  EXPECT_EQ(linalg::rank(pair), 2u);
}

TEST(Prop81, SpansTheFullKernelLattice) {
  // The columns must form a *basis* of ker(T) (not a proper sublattice):
  // every HNF kernel column must be an integral combination of u4, u5 and
  // vice versa.
  MatI s{{1, 2, 0, 1, 1}, {1, 3, 1, 0, 2}};  // s22 - s21 s12 = 3-2 = 1
  VecI pi{2, 1, 4, 1, 3};
  std::optional<Prop81Result> r = proposition_8_1(s, pi);
  ASSERT_TRUE(r.has_value());
  MatI t = MatI::vstack(s, MatI::row(pi));
  MatZ hnf_kernel = lattice::kernel_basis(to_bigint(t));
  MatZ prop_kernel(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    prop_kernel(i, 0) = r->u4[i];
    prop_kernel(i, 1) = r->u5[i];
  }
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(lattice::lattice_contains(hnf_kernel,
                                          prop_kernel.column_vector(c)));
    EXPECT_TRUE(lattice::lattice_contains(prop_kernel,
                                          hnf_kernel.column_vector(c)));
  }
}

TEST(Prop81, ValidatesPreconditions) {
  MatI bad{{2, 0, 1, -1, 0}, {0, 1, -1, 0, 1}};  // s11 != 1
  EXPECT_THROW(proposition_8_1(bad, VecI{1, 1, 1, 1, 1}),
               std::invalid_argument);
  MatI wrong_shape{{1, 0, 0}, {0, 1, 0}};
  EXPECT_THROW(proposition_8_1(wrong_shape, VecI{1, 1, 1}),
               std::invalid_argument);
}

TEST(Prop81, DegenerateHChain) {
  // Pi orthogonal to w3 and w4 (h33 = h34 = 0) but not w5.
  MatI s{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}};
  // w3 = e3, w4 = e4, w5 = e5 here (c constants vanish).
  VecI pi{1, 1, 0, 0, 7};
  std::optional<Prop81Result> r = proposition_8_1(s, pi);
  ASSERT_TRUE(r.has_value());
  MatZ t = to_bigint(MatI::vstack(s, MatI::row(pi)));
  EXPECT_TRUE(linalg::is_zero_vector(t * r->u4));
  EXPECT_TRUE(linalg::is_zero_vector(t * r->u5));
  // Fully degenerate: rank(T) < 3.
  VecI pi0{1, 1, 0, 0, 0};
  EXPECT_FALSE(proposition_8_1(s, pi0).has_value());
}

}  // namespace
}  // namespace sysmap::search
