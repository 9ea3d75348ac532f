// Exercises the debug contract layer (exact/contracts.hpp) in both build
// modes.  Under -DSYSMAP_CONTRACTS=ON the macro must throw ContractViolation
// with a useful message and every contract-instrumented API must run its
// postconditions silently on representative inputs; in default builds the
// macro must compile to nothing (even for a false condition with side
// effects in the message).
#include "exact/contracts.hpp"

#include <gtest/gtest.h>

#include <string>

#include "lattice/hnf.hpp"
#include "lattice/kernel.hpp"
#include "lattice/smith.hpp"
#include "mapping/conflict.hpp"
#include "mapping/mapping_matrix.hpp"
#include "mapping/theorems.hpp"
#include "model/gallery.hpp"
#include "search/fixed_space.hpp"
#include "search/procedure51.hpp"

namespace sysmap {
namespace {

#if SYSMAP_CONTRACTS_ACTIVE

TEST(ContractsTest, MacroThrowsWithLocationAndDetail) {
  try {
    SYSMAP_CONTRACT(1 + 1 == 3, "arithmetic detail " << 42);
    FAIL() << "contract did not throw";
  } catch (const exact::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic detail 42"), std::string::npos) << what;
    EXPECT_NE(what.find("contracts_test.cpp"), std::string::npos) << what;
  }
}

TEST(ContractsTest, MacroPassesSilently) {
  EXPECT_NO_THROW(SYSMAP_CONTRACT(2 + 2 == 4, "never evaluated"));
}

TEST(ContractsTest, ViolationIsALogicError) {
  EXPECT_THROW(SYSMAP_CONTRACT(false), std::logic_error);
}

#else  // !SYSMAP_CONTRACTS_ACTIVE

TEST(ContractsTest, MacroIsANoOpWhenDisabled) {
  // A false condition must not throw, and the message expression must not
  // be evaluated at all.
  EXPECT_NO_THROW(SYSMAP_CONTRACT(false, "unused detail"));
}

#endif  // SYSMAP_CONTRACTS_ACTIVE

// The remaining tests run in BOTH modes.  In contract builds they prove the
// instrumented APIs satisfy their own postconditions on gallery-style
// inputs (a violation would throw and fail the test); in default builds
// they are plain smoke tests of the same call paths.

TEST(ContractsTest, HnfPostconditionsHoldOnGalleryMatrices) {
  MatI t(2, 3);
  t(0, 0) = 4;  t(0, 1) = 7;  t(0, 2) = 2;
  t(1, 0) = -3; t(1, 1) = 5;  t(1, 2) = 9;
  EXPECT_NO_THROW(lattice::hermite_normal_form(t));

  MatZ z = to_bigint(t);
  EXPECT_NO_THROW(lattice::hermite_normal_form(z));
}

TEST(ContractsTest, SmithPostconditionsHoldIncludingRankDeficiency) {
  MatI a(3, 3);
  a(0, 0) = 2; a(0, 1) = 4;  a(0, 2) = 4;
  a(1, 0) = -6; a(1, 1) = 6; a(1, 2) = 12;
  a(2, 0) = 10; a(2, 1) = 4; a(2, 2) = 16;
  EXPECT_NO_THROW(lattice::smith_normal_form(a));

  // Rank-deficient: zero invariant factors must satisfy the divisibility
  // contract (zero divides zero, nonzero never follows zero).
  MatI b(2, 2);
  b(0, 0) = 2; b(0, 1) = 4;
  b(1, 0) = 1; b(1, 1) = 2;
  EXPECT_NO_THROW(lattice::smith_normal_form(b));
}

TEST(ContractsTest, MakePrimitiveContractHolds) {
  EXPECT_NO_THROW(lattice::make_primitive(VecI{6, -9, 15}));
  EXPECT_NO_THROW(lattice::make_primitive(VecI{0, 0, 0}));
  EXPECT_NO_THROW(
      lattice::make_primitive(VecZ{exact::BigInt(14), exact::BigInt(-21)}));
}

TEST(ContractsTest, ConflictVectorAndVerdictContractsHold) {
  const model::UniformDependenceAlgorithm algo = model::matmul(3);
  const MatI space{{1, 1, -1}};

  // Sweep enough Pi to hit both has-conflict (witness contract) and
  // conflict-free outcomes.
  for (Int a = -2; a <= 2; ++a) {
    for (Int b = -2; b <= 2; ++b) {
      for (Int c = -2; c <= 2; ++c) {
        VecI pi{a, b, c};
        mapping::MappingMatrix t(space, pi);
        if (!t.has_full_rank()) continue;
        EXPECT_NO_THROW(mapping::unique_conflict_vector(t));
        EXPECT_NO_THROW(mapping::theorem_3_1(t, algo.index_set()));
        EXPECT_NO_THROW(
            mapping::decide_conflict_free_exact(t, algo.index_set()));
      }
    }
  }
}

TEST(ContractsTest, SearchContractsHoldOnMatmul) {
  const model::UniformDependenceAlgorithm algo = model::matmul(3);
  const MatI space{{1, 1, -1}};

  search::SearchResult r = search::procedure_5_1(algo, space);
  EXPECT_TRUE(r.found);

  // The screen-parity contract sits inside FixedSpaceContext::screen's raw
  // branch; drive it directly across a Pi sweep.
  search::FixedSpaceContext ctx(algo.index_set(), space);
  for (Int a = -3; a <= 3; ++a) {
    for (Int b = -3; b <= 3; ++b) {
      for (Int c = -3; c <= 3; ++c) {
        if (a == 0 && b == 0 && c == 0) continue;
        EXPECT_NO_THROW(
            ctx.screen(search::ConflictOracle::kPaperTheorems, VecI{a, b, c}));
      }
    }
  }
}

}  // namespace
}  // namespace sysmap
