// Seed-vs-engine parity for the systolic simulator.
//
// systolic::simulate (the flat, time-bucketed engine) and
// systolic::simulate_seed (the original sort-and-map implementation) must
// produce BIT-IDENTICAL SimulationReports: every scalar field, the stored
// event lists in order, buffer high-water marks, and the value check.
// This suite holds the pair equal case by case across
//  - the gallery designs (clean, conflict-rich, multi-hop, 2-D arrays),
//  - the packed flat path and, through a design whose cycle range exceeds
//    the flat engine's cap, the seed fallback inside simulate(),
// plus randomized small-case sweeps (dedicated arrays, and multi-hop
// routes on a nearest-neighbour line) against an independent brute-force
// recount of PE/time conflicts and wire collisions written directly in
// this file (so engine and seed cannot share a bug with the oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "model/gallery.hpp"
#include "obs/obs.hpp"
#include "schedule/interconnect.hpp"
#include "systolic/array.hpp"
#include "systolic/simulator.hpp"

namespace sysmap::systolic {
namespace {

void expect_reports_equal(const SimulationReport& seed,
                          const SimulationReport& fast,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(seed.first_cycle, fast.first_cycle);
  EXPECT_EQ(seed.last_cycle, fast.last_cycle);
  EXPECT_EQ(seed.makespan, fast.makespan);
  EXPECT_EQ(seed.computations, fast.computations);
  EXPECT_EQ(seed.num_processors, fast.num_processors);
  EXPECT_EQ(seed.total_conflicts, fast.total_conflicts);
  EXPECT_EQ(seed.total_collisions, fast.total_collisions);
  EXPECT_EQ(seed.truncated_events, fast.truncated_events);
  EXPECT_EQ(seed.buffer_high_water, fast.buffer_high_water);
  EXPECT_EQ(seed.values_checked, fast.values_checked);
  EXPECT_EQ(seed.values_match, fast.values_match);
  ASSERT_EQ(seed.conflicts.size(), fast.conflicts.size());
  for (std::size_t e = 0; e < seed.conflicts.size(); ++e) {
    SCOPED_TRACE("conflict event " + std::to_string(e));
    EXPECT_EQ(seed.conflicts[e].j1, fast.conflicts[e].j1);
    EXPECT_EQ(seed.conflicts[e].j2, fast.conflicts[e].j2);
    EXPECT_EQ(seed.conflicts[e].pe, fast.conflicts[e].pe);
    EXPECT_EQ(seed.conflicts[e].time, fast.conflicts[e].time);
  }
  ASSERT_EQ(seed.collisions.size(), fast.collisions.size());
  for (std::size_t e = 0; e < seed.collisions.size(); ++e) {
    SCOPED_TRACE("collision event " + std::to_string(e));
    EXPECT_EQ(seed.collisions[e].wire_from, fast.collisions[e].wire_from);
    EXPECT_EQ(seed.collisions[e].primitive, fast.collisions[e].primitive);
    EXPECT_EQ(seed.collisions[e].dep, fast.collisions[e].dep);
    EXPECT_EQ(seed.collisions[e].cycle, fast.collisions[e].cycle);
  }
  EXPECT_EQ(seed.summary(), fast.summary());
  EXPECT_EQ(seed, fast);
}

struct ParityCase {
  std::string name;
  model::UniformDependenceAlgorithm algo;
  ArrayDesign design;
};

std::vector<ParityCase> gallery_cases() {
  std::vector<ParityCase> cases;
  {
    model::UniformDependenceAlgorithm algo = model::matmul(4);
    cases.push_back({"matmul-figure3", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                      VecI{1, 4, 1}))});
  }
  {
    // Conflict-rich: far more PE/time duplicates than the event cap.
    model::UniformDependenceAlgorithm algo = model::matmul(3);
    cases.push_back({"matmul-conflicting", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                      VecI{1, 1, 1}))});
  }
  {
    model::UniformDependenceAlgorithm algo = model::transitive_closure(4);
    cases.push_back({"transitive-closure-ex52", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{0, 0, 1}},
                                                      VecI{5, 1, 1}))});
  }
  {
    model::UniformDependenceAlgorithm algo = model::convolution(5, 3);
    cases.push_back({"convolution-linear", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{1, 0}},
                                                      VecI{1, 6}))});
  }
  {
    // Multi-hop routing on a nearest-neighbour line: S d_1 = 2.
    model::UniformDependenceAlgorithm algo = model::matmul(3);
    std::optional<ArrayDesign> d = design_on_interconnect(
        algo, mapping::MappingMatrix(MatI{{2, 1, -1}}, VecI{3, 1, 2}),
        schedule::Interconnect::nearest_neighbor(1));
    if (d.has_value()) cases.push_back({"matmul-multihop", algo, *d});
  }
  {
    // 2-D processor array (k = 3 projection onto the (i, j) plane).
    model::UniformDependenceAlgorithm algo = model::matmul(3);
    cases.push_back(
        {"matmul-2d-array", algo,
         design_dedicated_array(
             algo, mapping::MappingMatrix(MatI{{1, 0, 0}, {0, 1, 0}},
                                          VecI{1, 1, 1}))});
  }
  {
    model::UniformDependenceAlgorithm algo = model::lu_decomposition(3);
    cases.push_back({"lu-decomposition", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                      VecI{2, 1, 2}))});
  }
  return cases;
}

TEST(SimulatorParity, GalleryDesignsAcrossThreadCountsAndPaths) {
  for (const ParityCase& pc : gallery_cases()) {
    expect_reports_equal(simulate_seed(pc.algo, pc.design),
                         simulate(pc.algo, pc.design), pc.name);
  }
}

std::uint64_t seed_fallbacks() {
  for (const obs::Metric& m : obs::snapshot()) {
    if (m.name == "systolic.seed_fallbacks") return m.total;
  }
  return 0;
}

TEST(SimulatorParity, SeedFallbackBeyondTheFlatCycleCap) {
  // Pi = (1, 1, 2^21) spreads matmul(2)'s 27 points over 4,194,309
  // cycles, past the flat engine's 2^20 cycle cap: FlatPlan::build
  // declines, so simulate() runs its seed fallback, which must agree with
  // simulate_seed.
  const model::UniformDependenceAlgorithm algo = model::matmul(2);
  const ArrayDesign design = design_dedicated_array(
      algo, mapping::MappingMatrix(MatI{{1, 1, -1}}, VecI{1, 1, Int{1} << 21}));
  const SimulationReport seed = simulate_seed(algo, design);
  EXPECT_EQ(seed.makespan, 4194309);
  EXPECT_EQ(seed.total_conflicts, 12u);
  EXPECT_EQ(seed.total_collisions, 18u);
  const std::uint64_t before = seed_fallbacks();
  expect_reports_equal(seed, simulate(algo, design), "seed fallback");
  if (obs::kEnabled) {
    EXPECT_EQ(seed_fallbacks(), before + 1);
  }
}

TEST(SimulatorParity, ValueExecutionMatchesSeed) {
  struct SemCase {
    std::string name;
    model::SemanticAlgorithm sem;
    mapping::MappingMatrix t;
  };
  std::vector<SemCase> cases;
  {
    const Int mu = 3;
    MatI a(4, 4), b(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        a(i, j) = static_cast<Int>(3 * i + j + 1);
        b(i, j) = static_cast<Int>(7 * i) - static_cast<Int>(2 * j);
      }
    }
    cases.push_back({"semantic-matmul-clean", model::semantic_matmul(mu, a, b),
                     mapping::MappingMatrix(MatI{{1, 1, -1}}, VecI{2, 1, 2})});
    // Same workload on a conflicting mapping: the value verdict (and the
    // causality flag feeding it) must still agree bit-for-bit.
    cases.push_back({"semantic-matmul-conflicting",
                     model::semantic_matmul(mu, a, b),
                     mapping::MappingMatrix(MatI{{1, 1, -1}}, VecI{1, 1, 1})});
  }
  {
    const Int mu_i = 5, mu_k = 3;
    VecI w{1, -2, 3, 4};
    VecI x(static_cast<std::size_t>(mu_i + mu_k) + 1);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<Int>(i * i) - 7;
    }
    cases.push_back({"semantic-convolution",
                     model::semantic_convolution(mu_i, mu_k, w, x),
                     mapping::MappingMatrix(MatI{{1, 0}}, VecI{1, mu_i + 1})});
  }
  for (const SemCase& sc : cases) {
    const ArrayDesign design = design_dedicated_array(sc.sem.structure, sc.t);
    const SimulationReport seed = simulate_seed(sc.sem, design);
    EXPECT_TRUE(seed.values_checked);
    expect_reports_equal(seed, simulate(sc.sem, design), sc.name);
  }
}

TEST(SimulatorParity, EventTotalsKeepCountingPastTheCap) {
  // Pi = [1, 1, 1] on matmul(3) collapses whole anti-diagonals: far more
  // conflicts than the 16-event diagnostic cap.
  model::UniformDependenceAlgorithm algo = model::matmul(3);
  ArrayDesign design = design_dedicated_array(
      algo, mapping::MappingMatrix(MatI{{1, 1, -1}}, VecI{1, 1, 1}));
  const SimulationReport r = simulate(algo, design);
  EXPECT_EQ(r.conflicts.size(), 16u);
  EXPECT_GT(r.total_conflicts, r.conflicts.size());
  EXPECT_TRUE(r.truncated_events);
  EXPECT_FALSE(r.clean());
  // summary() reports the true totals, not the capped list size.
  EXPECT_NE(r.summary().find(std::to_string(r.total_conflicts) + " conflicts"),
            std::string::npos);
  EXPECT_NE(r.summary().find("events stored"), std::string::npos);
  // The 16 stored events are the seed's first 16, in the seed's order.
  expect_reports_equal(simulate_seed(algo, design), r, "capped events");
}

// Independent brute-force recount: PE/time conflict duplicates and
// wire-cycle collisions via plain std::map bookkeeping, written here from
// the definitions (not by calling the seed).
struct BruteCounts {
  std::uint64_t conflicts = 0;
  std::uint64_t collisions = 0;
};

BruteCounts brute_force_counts(const model::UniformDependenceAlgorithm& algo,
                               const ArrayDesign& design) {
  BruteCounts counts;
  const MatI& d = algo.dependence_matrix();
  const std::size_t n = algo.index_set().dimension();
  std::map<std::pair<VecI, Int>, int> pe_time;
  std::map<std::tuple<VecI, std::size_t, std::size_t, Int>, int> wires;
  algo.index_set().for_each([&](const VecI& j) {
    ++pe_time[{design.t.processor(j), design.t.time(j)}];
    for (std::size_t i = 0; i < d.cols(); ++i) {
      VecI src(n);
      for (std::size_t r = 0; r < n; ++r) src[r] = j[r] - d(r, i);
      if (!algo.index_set().contains(src)) continue;
      // Hop sequence: primitive r repeated k(r, i) times, last h cycles.
      std::vector<std::size_t> route;
      for (std::size_t r = 0; r < design.k.rows(); ++r) {
        for (Int c = 0; c < design.k(r, i); ++c) route.push_back(r);
      }
      VecI pos = design.t.processor(src);
      const Int t1 = design.t.time(j);
      const Int h = static_cast<Int>(route.size());
      for (Int hop = 0; hop < h; ++hop) {
        const std::size_t prim = route[static_cast<std::size_t>(hop)];
        ++wires[{pos, prim, i, t1 - h + 1 + hop}];
        for (std::size_t r = 0; r < design.p.rows(); ++r) {
          pos[r] += design.p(r, prim);
        }
      }
    }
  });
  for (const auto& [key, cnt] : pe_time) {
    counts.conflicts += static_cast<std::uint64_t>(cnt - 1);
  }
  for (const auto& [key, cnt] : wires) {
    if (cnt >= 2) ++counts.collisions;
  }
  return counts;
}

// Checks one design against the seed and the brute-force oracle.
void expect_matches_seed_and_oracle(
    const model::UniformDependenceAlgorithm& algo, const ArrayDesign& design,
    const std::string& label) {
  const SimulationReport seed = simulate_seed(algo, design);
  const BruteCounts oracle = brute_force_counts(algo, design);
  EXPECT_EQ(seed.total_conflicts, oracle.conflicts) << label;
  EXPECT_EQ(seed.total_collisions, oracle.collisions) << label;
  const SimulationReport fast = simulate(algo, design);
  expect_reports_equal(seed, fast, label);
  EXPECT_EQ(fast.total_conflicts, oracle.conflicts) << label;
  EXPECT_EQ(fast.total_collisions, oracle.collisions) << label;
}

TEST(SimulatorParity, RandomizedSmallCasesAgainstBruteForceOracle) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> dim_dist(2, 3);
  std::uniform_int_distribution<Int> mu_dist(1, 3);
  std::uniform_int_distribution<Int> dep_dist(-1, 2);
  std::uniform_int_distribution<Int> s_dist(-2, 2);
  std::uniform_int_distribution<Int> pi_dist(0, 3);
  std::size_t accepted = 0;
  std::size_t attempts = 0;
  while (accepted < 25 && attempts < 4000) {
    ++attempts;
    const std::size_t n = static_cast<std::size_t>(dim_dist(rng));
    const std::size_t m = static_cast<std::size_t>(dim_dist(rng)) - 1;
    VecI mu(n);
    for (std::size_t r = 0; r < n; ++r) mu[r] = mu_dist(rng);
    MatI d(n, m);
    MatI s(1, n);
    VecI pi(n);
    for (std::size_t r = 0; r < n; ++r) {
      s(0, r) = s_dist(rng);
      pi[r] = pi_dist(rng);
    }
    bool valid = true;
    for (std::size_t i = 0; i < m && valid; ++i) {
      Int dot = 0;
      bool nonzero = false;
      for (std::size_t r = 0; r < n; ++r) {
        d(r, i) = dep_dist(rng);
        if (d(r, i) != 0) nonzero = true;
        dot += pi[r] * d(r, i);
      }
      valid = nonzero && dot > 0;
    }
    if (!valid) continue;
    model::UniformDependenceAlgorithm algo("random", model::IndexSet(mu), d);
    std::optional<ArrayDesign> design;
    try {
      design.emplace(
          design_dedicated_array(algo, mapping::MappingMatrix(s, pi)));
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++accepted;
    std::ostringstream label;
    label << "random case " << accepted << " (attempt " << attempts << ")";
    expect_matches_seed_and_oracle(algo, *design, label.str());
  }
  EXPECT_EQ(accepted, 25u) << "random design generator starved after "
                           << attempts << " attempts";
}

std::uint64_t wire_table_growths() {
  for (const obs::Metric& m : obs::snapshot()) {
    if (m.name == "systolic.wire_table_growths") return m.total;
  }
  return 0;
}

TEST(SimulatorParity, RandomMultiHopRoutesAgainstBruteForceOracle) {
  // Designs routed on a nearest-neighbour line, so a dependence with
  // |S d| >= 2 takes several hops and one computation's datum occupies
  // several wire cycles; the engine then keeps several wire cycles live
  // at once.  Some of the drawn designs collide, and at least one past the
  // event cap, so the capped collision list is held to the seed's order.
  std::mt19937 rng(20261018);
  std::uniform_int_distribution<int> dim_dist(2, 3);
  std::uniform_int_distribution<Int> mu_dist(1, 3);
  std::uniform_int_distribution<Int> dep_dist(-1, 2);
  std::uniform_int_distribution<Int> s_dist(-2, 2);
  std::uniform_int_distribution<Int> pi_dist(0, 4);
  const schedule::Interconnect line =
      schedule::Interconnect::nearest_neighbor(1);
  std::size_t accepted = 0;
  std::size_t colliding = 0;
  std::size_t capped = 0;
  std::size_t attempts = 0;
  while (accepted < 25 && attempts < 20000) {
    ++attempts;
    const std::size_t n = static_cast<std::size_t>(dim_dist(rng));
    const std::size_t m = static_cast<std::size_t>(dim_dist(rng)) - 1;
    VecI mu(n);
    MatI d(n, m);
    MatI s(1, n);
    VecI pi(n);
    for (std::size_t r = 0; r < n; ++r) {
      mu[r] = mu_dist(rng);
      s(0, r) = s_dist(rng);
      pi[r] = pi_dist(rng);
    }
    bool nonzero = true;
    for (std::size_t i = 0; i < m; ++i) {
      bool any = false;
      for (std::size_t r = 0; r < n; ++r) {
        d(r, i) = dep_dist(rng);
        any = any || d(r, i) != 0;
      }
      nonzero = nonzero && any;
    }
    if (!nonzero) continue;
    model::UniformDependenceAlgorithm algo("random", model::IndexSet(mu), d);
    std::optional<ArrayDesign> design;
    try {
      design = design_on_interconnect(algo, mapping::MappingMatrix(s, pi),
                                      line);
    } catch (const std::invalid_argument&) {
      continue;
    }
    if (!design) continue;
    Int h_max = 0;
    for (Int h : design->hops) h_max = std::max(h_max, h);
    if (h_max < 2) continue;
    ++accepted;
    const std::string label = "multi-hop case " + std::to_string(accepted) +
                              " (attempt " + std::to_string(attempts) + ")";
    const SimulationReport seed = simulate_seed(algo, *design);
    if (seed.total_collisions > 0) ++colliding;
    if (seed.total_collisions > seed.collisions.size()) ++capped;
    expect_matches_seed_and_oracle(algo, *design, label);
  }
  EXPECT_EQ(accepted, 25u) << "multi-hop generator starved after "
                           << attempts << " attempts";
  EXPECT_GT(colliding, 0u);
  EXPECT_GT(capped, 0u);
}

TEST(SimulatorParity, WireCyclePopulationBeyondTheInitialTableSize) {
  // S = (5, 0, 1), Pi = (6, 1, 1), d = (1, 0, 0) on a nearest-neighbour
  // line: every datum takes 5 hops, so a wire cycle carries the data of
  // five consecutive cycles, at position -(j_1 + j_2) + const.  A bucket
  // holds at most 14 computations, and the engine sizes each wire table
  // for one bucket per routed dependence (32 slots, doubling past 22
  // keys), while a wire cycle holds up to 31 distinct wires.  The data of
  // (j_1, j_2, 0) and (j_1, j_2, 1) share their wires one cycle apart, so
  // the collisions pair keys claimed before a doubling with hits after it.
  const model::UniformDependenceAlgorithm algo(
      "five-hop", model::IndexSet(VecI{6, 40, 1}), MatI{{1}, {0}, {0}});
  const std::optional<ArrayDesign> design = design_on_interconnect(
      algo, mapping::MappingMatrix(MatI{{5, 0, 1}}, VecI{6, 1, 1}),
      schedule::Interconnect::nearest_neighbor(1));
  ASSERT_TRUE(design.has_value());
  ASSERT_EQ(design->hops, VecI{5});
  const std::uint64_t before = wire_table_growths();
  const SimulationReport single = simulate(algo, *design);
  if (obs::kEnabled) {
    EXPECT_GT(wire_table_growths(), before);
  }
  EXPECT_GT(single.total_collisions, 0u);
  EXPECT_EQ(single, simulate_seed(algo, *design));
  expect_matches_seed_and_oracle(algo, *design, "five-hop");
}

}  // namespace
}  // namespace sysmap::systolic
