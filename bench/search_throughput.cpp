// SEARCH-THROUGHPUT -- Procedure 5.1 end to end.
//
// Runs Procedure 5.1 END TO END (cone walk, dependence screen, fixed-S
// context screen, conflict oracle, first-hit-optimal abort) for each
// gallery workload and oracle, as shipped (mode "ctx": every candidate
// goes through the FixedSpaceContext screen).  Every rep must return the
// first rep's SearchResult (operator==) before any number is reported.
//
// Output: a human-readable table on stdout and JSON lines (one object per
// case/oracle with the median time of its reps and their range, and the
// cone-walk leaves a search visits, candidates_tested) written
// to $SYSMAP_BENCH_JSON or BENCH_search.json.  Set SYSMAP_BENCH_SMOKE=1
// for a single-rep quick pass (CI smoke).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sysmap.hpp"

using namespace sysmap;

namespace {

struct Case {
  std::string name;
  model::UniformDependenceAlgorithm algo;
  MatI space;
  bool brute_force_ok;  // brute force rescans J per candidate: small J only
};

std::string oracle_name(search::ConflictOracle oracle) {
  switch (oracle) {
    case search::ConflictOracle::kPaperTheorems:
      return "kPaperTheorems";
    case search::ConflictOracle::kExact:
      return "kExact";
    case search::ConflictOracle::kBruteForce:
      return "kBruteForce";
  }
  return "?";
}

struct Timing {
  double ms = 0;  ///< median over the reps
  double ms_min = 0;
  double ms_max = 0;
  int reps = 0;
  search::SearchResult result;
};

/// Times `reps` runs and reports their median (with the range): a best-of
/// row would favor whichever rep the host happened to leave alone.  Every
/// rep must return the first rep's result.
Timing run_search(const Case& c, search::ConflictOracle oracle, int reps) {
  search::SearchOptions opts;
  opts.oracle = oracle;
  Timing out;
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    search::SearchResult r = search::procedure_5_1(c.algo, c.space, opts);
    auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (rep == 0) {
      out.result = std::move(r);
    } else if (r != out.result) {
      std::cerr << "PARITY VIOLATION across reps in " << c.name << "\n";
      std::exit(1);
    }
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  out.ms = samples.size() % 2 == 1 ? samples[mid]
                                   : (samples[mid - 1] + samples[mid]) / 2;
  out.ms_min = samples.front();
  out.ms_max = samples.back();
  out.reps = reps;
  return out;
}

void emit_json(std::ostream& json, const Case& c,
               search::ConflictOracle oracle, const Timing& t) {
  double cps =
      t.ms > 0
          ? 1000.0 * static_cast<double>(t.result.candidates_tested) / t.ms
          : 0;
  json << "{\"case\":\"" << c.name << "\""
       << ",\"n\":" << c.algo.index_set().dimension()
       << ",\"k\":" << (c.space.rows() + 1) << ",\"oracle\":\""
       << oracle_name(oracle) << "\""
       // "mode" completes tools/check_bench_regression.py's row key.
       << ",\"mode\":\"ctx\""
       << ",\"ms\":" << t.ms << ",\"ms_min\":" << t.ms_min
       << ",\"ms_max\":" << t.ms_max << ",\"reps\":" << t.reps
       << ",\"candidates_tested\":" << t.result.candidates_tested
       << ",\"candidates_per_sec\":" << cps
       << ",\"found\":" << (t.result.found ? "true" : "false")
       << ",\"objective\":" << t.result.objective << "}\n";
}

}  // namespace

int main(int argc, char** /*argv*/) {
  const bool smoke = std::getenv("SYSMAP_BENCH_SMOKE") != nullptr;
  if (argc > 1) {
    std::cerr << "usage: search_throughput\n";
    return 2;
  }
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  std::ofstream json(path ? path : "BENCH_search.json");

  // k = n-1 cases hit the Prop 3.2 closed form; the unit-cube cases keep
  // k <= n-2 so the raw kernel-witness screen, the HNF warm start and the
  // exact ladder are exercised.  The larger-mu cases push the first
  // feasible conflict vector to higher objective levels, so many more
  // candidates reach the oracle before the optimum -- the regime every
  // path here targets.  The mu=4 cases are deliberately tiny: there the
  // sweep is enumeration-bound and the paths can at best break even
  // (Amdahl), which the table reports honestly.
  std::vector<Case> cases;
  cases.push_back({"matmul_mu4", model::matmul(4), MatI{{1, 1, -1}}, true});
  cases.push_back({"transitive_closure_mu4", model::transitive_closure(4),
                   MatI{{0, 0, 1}}, true});
  cases.push_back({"lu_decomposition_mu4", model::lu_decomposition(4),
                   MatI{{1, 1, -1}}, true});
  cases.push_back({"convolution_mu24_k1", model::convolution(24, 3),
                   MatI(0, 2), true});
  cases.push_back({"unit_cube_4d_mu3_k2", model::unit_cube_algorithm(4, 3),
                   MatI{{1, 0, 0, 0}}, false});
  if (!smoke) {
    cases.push_back(
        {"matmul_mu16", model::matmul(16), MatI{{1, 1, -1}}, false});
    cases.push_back({"lu_decomposition_mu16", model::lu_decomposition(16),
                     MatI{{1, 1, -1}}, false});
    cases.push_back({"convolution_2d_mu4_k3", model::convolution_2d(4, 4, 4, 4),
                     MatI{{1, 0, 0, 0}, {0, 1, 0, 0}}, false});
    cases.push_back({"unit_cube_5d_mu2_k3", model::unit_cube_algorithm(5, 2),
                     MatI{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}}, false});
  }

  const std::vector<search::ConflictOracle> oracles = {
      search::ConflictOracle::kPaperTheorems,
      search::ConflictOracle::kExact,
      search::ConflictOracle::kBruteForce,
  };

  std::cout << "SEARCH-THROUGHPUT: end-to-end procedure_5_1 search\n";
  std::cout << "case                      oracle          cands     "
               "median_ms  (min-max)\n";

  for (const Case& c : cases) {
    for (search::ConflictOracle oracle : oracles) {
      if (oracle == search::ConflictOracle::kBruteForce && !c.brute_force_ok) {
        continue;
      }
      int reps = 1;
      if (!smoke) {
        // Calibrate on one run so the timed reps last long enough to time
        // stably.
        Timing probe = run_search(c, oracle, 1);
        reps = probe.ms >= 50
                   ? 3
                   : static_cast<int>(50 / (probe.ms + 0.01)) + 3;
      }
      const Timing t = run_search(c, oracle, reps);

      std::ostringstream row;
      row.setf(std::ios::fixed);
      row.precision(3);
      row << c.name;
      for (std::size_t p = c.name.size(); p < 26; ++p) row << ' ';
      row << oracle_name(oracle);
      for (std::size_t p = oracle_name(oracle).size(); p < 16; ++p) row << ' ';
      row << t.result.candidates_tested << "  " << t.ms << "  ("
          << t.ms_min << "-" << t.ms_max << ")";
      std::cout << row.str() << "\n";

      emit_json(json, c, oracle, t);
      json.flush();
    }
  }
  json << sysmap::obs::snapshot_json() << "\n";
  json.flush();
  return 0;
}
