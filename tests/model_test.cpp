// Tests for the algorithm model: index sets (Equation 2.5), uniform
// dependence algorithms (Definition 2.1), the gallery, and reference
// evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "model/algorithm.hpp"
#include "model/gallery.hpp"
#include "model/index_set.hpp"

namespace sysmap::model {
namespace {

TEST(IndexSet, ConstructionValidation) {
  EXPECT_NO_THROW(IndexSet({1, 2, 3}));
  EXPECT_THROW(IndexSet({}), std::invalid_argument);
  EXPECT_THROW(IndexSet({0}), std::invalid_argument);   // mu_i in N+
  EXPECT_THROW(IndexSet({2, -1}), std::invalid_argument);
}

TEST(IndexSet, CubeFactory) {
  IndexSet c = IndexSet::cube(3, 4);
  EXPECT_EQ(c.dimension(), 3u);
  EXPECT_EQ(c.mu(0), 4);
  EXPECT_EQ(c.mu(2), 4);
  EXPECT_EQ(c.bounds(), (VecI{4, 4, 4}));
}

TEST(IndexSet, Membership) {
  IndexSet s({2, 3});
  EXPECT_TRUE(s.contains({0, 0}));
  EXPECT_TRUE(s.contains({2, 3}));
  EXPECT_FALSE(s.contains({3, 0}));
  EXPECT_FALSE(s.contains({0, -1}));
  EXPECT_FALSE(s.contains({0}));       // wrong dimension
  EXPECT_FALSE(s.contains({0, 0, 0}));
}

TEST(IndexSet, SizeExactAndNarrow) {
  IndexSet s({2, 3});
  EXPECT_EQ(s.size().to_int64(), 12);
  EXPECT_EQ(s.size_u64(), 12u);
  IndexSet cube = IndexSet::cube(4, 6);  // Example 2.1: 7^4
  EXPECT_EQ(cube.size().to_int64(), 2401);
}

TEST(IndexSet, ForEachVisitsAllLexicographically) {
  IndexSet s({1, 2});
  std::vector<VecI> visited;
  s.for_each([&](const VecI& j) { visited.push_back(j); });
  ASSERT_EQ(visited.size(), 6u);
  EXPECT_EQ(visited.front(), (VecI{0, 0}));
  EXPECT_EQ(visited[1], (VecI{0, 1}));
  EXPECT_EQ(visited.back(), (VecI{1, 2}));
  for (std::size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i - 1], visited[i]);  // strictly increasing
  }
}

TEST(IndexSet, ForEachWhileAborts) {
  IndexSet s({3, 3});
  int count = 0;
  bool completed = s.for_each_while([&](const VecI&) {
    return ++count < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 5);
}

TEST(IndexSet, OrdinalMatchesEnumerationOrder) {
  IndexSet s({2, 1, 2});
  std::size_t expected = 0;
  s.for_each([&](const VecI& j) {
    EXPECT_EQ(lexicographic_ordinal(s, j), expected);
    ++expected;
  });
}

TEST(Algorithm, ValidatesShapes) {
  EXPECT_THROW(
      UniformDependenceAlgorithm("bad", IndexSet::cube(2, 3), MatI::identity(3)),
      std::invalid_argument);
  // Zero dependence column rejected.
  MatI zero_dep(2, 1);
  EXPECT_THROW(
      UniformDependenceAlgorithm("bad", IndexSet::cube(2, 3), zero_dep),
      std::invalid_argument);
}

TEST(Gallery, MatmulStructure) {
  UniformDependenceAlgorithm a = matmul(4);
  EXPECT_EQ(a.dimension(), 3u);
  EXPECT_EQ(a.num_dependences(), 3u);
  EXPECT_EQ(a.dependence_matrix(), MatI::identity(3));
  EXPECT_EQ(a.dependence(2), (VecI{0, 0, 1}));
  EXPECT_EQ(a.index_set().mu(0), 4);
}

TEST(Gallery, TransitiveClosureStructure) {
  UniformDependenceAlgorithm a = transitive_closure(4);
  EXPECT_EQ(a.dimension(), 3u);
  EXPECT_EQ(a.num_dependences(), 5u);
  // Equation 3.6, column by column.
  EXPECT_EQ(a.dependence(0), (VecI{0, 0, 1}));
  EXPECT_EQ(a.dependence(1), (VecI{0, 1, 0}));
  EXPECT_EQ(a.dependence(2), (VecI{1, -1, -1}));
  EXPECT_EQ(a.dependence(3), (VecI{1, -1, 0}));
  EXPECT_EQ(a.dependence(4), (VecI{1, 0, -1}));
}

TEST(Gallery, ConvolutionAndLu) {
  UniformDependenceAlgorithm c = convolution(5, 3);
  EXPECT_EQ(c.dimension(), 2u);
  EXPECT_EQ(c.num_dependences(), 3u);
  EXPECT_EQ(c.index_set().bounds(), (VecI{5, 3}));
  UniformDependenceAlgorithm l = lu_decomposition(3);
  EXPECT_EQ(l.dependence_matrix(), MatI::identity(3));
  UniformDependenceAlgorithm u = unit_cube_algorithm(5, 2);
  EXPECT_EQ(u.dimension(), 5u);
}

TEST(Reference, MatmulComputesProduct) {
  const Int mu = 2;
  MatI a{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  MatI b{{9, 8, 7}, {6, 5, 4}, {3, 2, 1}};
  SemanticAlgorithm algo = semantic_matmul(mu, a, b);
  std::vector<Int> values = evaluate_reference(algo);
  MatI c = matmul_result(algo.structure.index_set(), values);
  MatI expected = a * b;
  EXPECT_EQ(c, expected);
}

TEST(Reference, MatmulRejectsWrongOperandShape) {
  EXPECT_THROW(semantic_matmul(2, MatI::identity(2), MatI::identity(3)),
               std::invalid_argument);
}

TEST(Reference, ConvolutionComputesSum) {
  const Int mu_i = 4, mu_k = 2;
  VecI w{2, -1, 3};          // w(0..2)
  VecI x{1, 0, 2, 5, -3, 4, 1};  // x(-2..4)
  SemanticAlgorithm algo = semantic_convolution(mu_i, mu_k, w, x);
  std::vector<Int> values = evaluate_reference(algo);
  VecI y = convolution_result(algo.structure.index_set(), values);
  ASSERT_EQ(y.size(), 5u);
  for (Int i = 0; i <= mu_i; ++i) {
    Int expect = 0;
    for (Int k = 0; k <= mu_k; ++k) {
      expect += w[static_cast<std::size_t>(k)] *
                x[static_cast<std::size_t>(i - k + mu_k)];
    }
    EXPECT_EQ(y[static_cast<std::size_t>(i)], expect) << "i=" << i;
  }
}

TEST(Reference, ConvolutionValidatesShapes) {
  EXPECT_THROW(semantic_convolution(4, 2, VecI{1}, VecI(7, 0)),
               std::invalid_argument);
  EXPECT_THROW(semantic_convolution(4, 2, VecI{1, 2, 3}, VecI{1}),
               std::invalid_argument);
}

TEST(Gallery, Convolution2dStructure) {
  UniformDependenceAlgorithm a = convolution_2d(3, 4, 1, 2);
  EXPECT_EQ(a.dimension(), 4u);
  EXPECT_EQ(a.num_dependences(), 7u);
  EXPECT_EQ(a.index_set().bounds(), (VecI{3, 4, 1, 2}));
  EXPECT_EQ(a.dependence(0), (VecI{0, 0, 1, 0}));
  EXPECT_EQ(a.dependence(2), (VecI{0, 0, 1, 1}));
  EXPECT_EQ(a.dependence(4), (VecI{0, 1, 0, 1}));
}

TEST(Reference, Convolution2dComputesWindowedSum) {
  const Int mu_i1 = 2, mu_i2 = 3, mu_k1 = 1, mu_k2 = 2;
  MatI w(2, 3), x(4, 6);
  for (std::size_t a = 0; a < w.rows(); ++a) {
    for (std::size_t b = 0; b < w.cols(); ++b) {
      w(a, b) = static_cast<Int>(a + 1) * static_cast<Int>(b + 2) - 3;
    }
  }
  for (std::size_t a = 0; a < x.rows(); ++a) {
    for (std::size_t b = 0; b < x.cols(); ++b) {
      x(a, b) = static_cast<Int>(2 * a) - static_cast<Int>(b) + 1;
    }
  }
  SemanticAlgorithm algo =
      semantic_convolution_2d(mu_i1, mu_i2, mu_k1, mu_k2, w, x);
  std::vector<Int> values = evaluate_reference(algo);
  MatI y = convolution_2d_result(algo.structure.index_set(), values);
  for (Int i1 = 0; i1 <= mu_i1; ++i1) {
    for (Int i2 = 0; i2 <= mu_i2; ++i2) {
      Int expect = 0;
      for (Int k1 = 0; k1 <= mu_k1; ++k1) {
        for (Int k2 = 0; k2 <= mu_k2; ++k2) {
          expect += w(static_cast<std::size_t>(k1),
                      static_cast<std::size_t>(k2)) *
                    x(static_cast<std::size_t>(i1 - k1 + mu_k1),
                      static_cast<std::size_t>(i2 - k2 + mu_k2));
        }
      }
      EXPECT_EQ(y(static_cast<std::size_t>(i1), static_cast<std::size_t>(i2)),
                expect)
          << i1 << "," << i2;
    }
  }
}

TEST(Reference, Convolution2dValidatesShapes) {
  EXPECT_THROW(
      semantic_convolution_2d(2, 2, 1, 1, MatI(1, 1), MatI(4, 4)),
      std::invalid_argument);
  EXPECT_THROW(
      semantic_convolution_2d(2, 2, 1, 1, MatI(2, 2), MatI(3, 4)),
      std::invalid_argument);
}

TEST(Reference, MatvecComputesProduct) {
  const Int mu = 3;
  MatI a(4, 4);
  VecI x{1, -2, 3, 5};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      a(i, j) = static_cast<Int>(i * 4 + j) - 7;
    }
  }
  SemanticAlgorithm algo = semantic_matvec(mu, a, x);
  std::vector<Int> values = evaluate_reference(algo);
  VecI y = matvec_result(algo.structure.index_set(), values);
  for (std::size_t i = 0; i < 4; ++i) {
    Int expect = 0;
    for (std::size_t j = 0; j < 4; ++j) expect += a(i, j) * x[j];
    EXPECT_EQ(y[i], expect);
  }
  EXPECT_THROW(semantic_matvec(3, MatI(2, 2), x), std::invalid_argument);
}

// An evaluator written from the definition, independent of the library's
// depth-first walk: visit J sorted by (Pi j, lexicographic j).  Pi D > 0
// puts every in-set operand j - d_i strictly earlier in that order, so each
// operand is computed before its use.
std::vector<Int> evaluate_in_schedule_order(const SemanticAlgorithm& algo,
                                            const VecI& pi) {
  const IndexSet& set = algo.structure.index_set();
  const MatI& d = algo.structure.dependence_matrix();
  std::vector<VecI> points;
  set.for_each([&](const VecI& j) { points.push_back(j); });
  auto time = [&](const VecI& j) {
    Int t = 0;
    for (std::size_t r = 0; r < j.size(); ++r) t += pi[r] * j[r];
    return t;
  };
  std::stable_sort(points.begin(), points.end(),
                   [&](const VecI& a, const VecI& b) {
                     return time(a) < time(b);
                   });
  std::map<VecI, Int> value;
  for (const VecI& j : points) {
    std::vector<Int> inputs(d.cols(), 0);
    for (std::size_t i = 0; i < d.cols(); ++i) {
      VecI src(j.size());
      for (std::size_t r = 0; r < j.size(); ++r) src[r] = j[r] - d(r, i);
      if (set.contains(src)) {
        const auto it = value.find(src);
        EXPECT_NE(it, value.end()) << "operand used before it was computed";
        if (it != value.end()) inputs[i] = it->second;
      } else {
        inputs[i] = algo.boundary(j, i);
      }
    }
    value[j] = algo.compute(j, inputs);
  }
  std::vector<Int> out;
  set.for_each([&](const VecI& j) { out.push_back(value[j]); });
  return out;
}

// A body whose result depends on j and on every operand in its position,
// so a swapped or misplaced operand changes the value.
constexpr Int kModulus = 1000003;

SemanticAlgorithm mixing_body(UniformDependenceAlgorithm structure) {
  return SemanticAlgorithm{
      std::move(structure),
      [](const VecI& j, const std::vector<Int>& in) {
        Int v = 1;
        for (Int x : j) v = (v * 31 + x) % kModulus;
        for (Int x : in) v = (v * 37 + x) % kModulus;
        return v;
      },
      [](const VecI& j, std::size_t dep) {
        Int v = 7 + 11 * static_cast<Int>(dep);
        for (std::size_t r = 0; r < j.size(); ++r) {
          v += 5 * static_cast<Int>(r + 1) * j[r];
        }
        return v % kModulus;
      }};
}

TEST(Reference, LexNegativeAndOutOfBoxColumnsMatchScheduleOrder) {
  // d_1 = (-1, 2) is lexicographically negative but Pi d_1 = 1 > 0 for
  // Pi = (1, 1), so the walk must evaluate j - d_1 (a lexicographically
  // later point) first; d_3 = (0, 4) leaves the box (|4| > mu_2 = 3), so
  // its operand is always the boundary value.
  const VecI pi{1, 1};
  const SemanticAlgorithm algo = mixing_body(UniformDependenceAlgorithm(
      "lex-negative", IndexSet(VecI{3, 3}), MatI{{-1, 1, 0}, {2, 0, 4}}));
  EXPECT_EQ(evaluate_reference(algo), evaluate_in_schedule_order(algo, pi));
}

TEST(Reference, RandomAlgorithmsMatchScheduleOrderEvaluator) {
  // Seeded small (J, D, Pi) with Pi D > 0.  Entries of D range over
  // [-3, 3] and bounds over [1, 3], so the draws include columns that are
  // lexicographically negative yet in reach (the walk pushes their
  // operands), columns with |d_ri| > mu_r (never an in-set operand), and
  // dimensions at the smallest bound mu_r = 1 (IndexSet rejects mu_r = 0,
  // Equation 2.5).
  std::mt19937 rng(20261018);
  std::uniform_int_distribution<int> dim_dist(1, 3);
  std::uniform_int_distribution<Int> mu_dist(1, 3);
  std::uniform_int_distribution<Int> dep_dist(-3, 3);
  std::uniform_int_distribution<Int> pi_dist(0, 3);
  std::size_t accepted = 0;
  std::size_t lex_negative_in_reach = 0;
  std::size_t out_of_box = 0;
  std::size_t unit_bound = 0;
  for (std::size_t attempt = 0; accepted < 60 && attempt < 20000; ++attempt) {
    const auto n = static_cast<std::size_t>(dim_dist(rng));
    const auto m = static_cast<std::size_t>(dim_dist(rng));
    VecI mu(n);
    VecI pi(n);
    for (std::size_t r = 0; r < n; ++r) {
      mu[r] = mu_dist(rng);
      pi[r] = pi_dist(rng);
    }
    MatI d(n, m);
    bool valid = true;
    for (std::size_t i = 0; i < m && valid; ++i) {
      Int dot = 0;
      for (std::size_t r = 0; r < n; ++r) {
        d(r, i) = dep_dist(rng);
        dot += pi[r] * d(r, i);
      }
      valid = dot > 0;  // also rules out a zero column
    }
    if (!valid) continue;
    ++accepted;
    for (std::size_t i = 0; i < m; ++i) {
      bool in_reach = true;
      Int leading = 0;
      for (std::size_t r = 0; r < n; ++r) {
        if (d(r, i) < -mu[r] || d(r, i) > mu[r]) in_reach = false;
        if (leading == 0) leading = d(r, i);
      }
      if (!in_reach) ++out_of_box;
      if (in_reach && leading < 0) ++lex_negative_in_reach;
    }
    if (std::find(mu.begin(), mu.end(), 1) != mu.end()) ++unit_bound;
    const SemanticAlgorithm algo = mixing_body(
        UniformDependenceAlgorithm("random", IndexSet(mu), d));
    EXPECT_EQ(evaluate_reference(algo), evaluate_in_schedule_order(algo, pi))
        << "random algorithm " << accepted << " (attempt " << attempt << ")";
  }
  EXPECT_EQ(accepted, 60u);
  EXPECT_GT(lex_negative_in_reach, 0u);
  EXPECT_GT(out_of_box, 0u);
  EXPECT_GT(unit_bound, 0u);
}

TEST(Reference, DetectsCyclicDependences) {
  // D = [e1, -e1]: j depends on j-e1 and j+e1 -> cycle.
  MatI d{{1, -1}, {0, 0}};
  SemanticAlgorithm algo{
      UniformDependenceAlgorithm("cyclic", IndexSet::cube(2, 2), d),
      [](const VecI&, const std::vector<Int>& in) { return in[0] + in[1]; },
      [](const VecI&, std::size_t) { return Int{0}; }};
  EXPECT_THROW(evaluate_reference(algo), std::domain_error);
}

}  // namespace
}  // namespace sysmap::model
