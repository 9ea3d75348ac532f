// SYSTOLIC-THROUGHPUT -- ablation of the simulator execution engines.
//
// Runs the full systolic simulation (conflict, link-collision and buffer
// passes) for each gallery design at a mu large enough that the seed's
// tree-map bookkeeping dominates, in two modes:
//   seed  the original sort-and-map implementation, verbatim
//   flat  the flat-indexed, time-bucketed engine
// The engine is bit-identical to the seed by construction (every report
// field, the stored event lists in order, buffer high-water marks) -- this
// harness asserts that before reporting any number and exits non-zero on
// any divergence.
//
// Output: a human-readable table on stdout and JSON lines (one object per
// case/mode with the median time of its reps and their range, plus
// per-case speedup summaries) written to
// $SYSMAP_BENCH_JSON or BENCH_sim.json.  Set SYSMAP_BENCH_SMOKE=1 for a
// single-rep quick pass over the two cheapest cases (CI smoke).  Takes no
// arguments.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "model/gallery.hpp"
#include "systolic/array.hpp"
#include "systolic/simulator.hpp"
#include "sysmap.hpp"

using namespace sysmap;
using namespace sysmap::systolic;

namespace {

struct Case {
  std::string name;
  model::UniformDependenceAlgorithm algo;
  ArrayDesign design;
};

struct Timing {
  double ms = 0;  ///< median over the reps
  double ms_min = 0;
  double ms_max = 0;
  int reps = 0;
  SimulationReport report;
};

enum class Mode { kSeed, kFlat };

const char* mode_name(Mode m) { return m == Mode::kSeed ? "seed" : "flat"; }

// Times `reps` runs and reports their median (with the range): a best-of
// row would favor whichever rep the host happened to leave alone.  Every
// rep must return the first rep's report.
Timing run_mode(const Case& c, Mode mode, int reps) {
  Timing out;
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    SimulationReport r = mode == Mode::kSeed
                             ? simulate_seed(c.algo, c.design)
                             : simulate(c.algo, c.design);
    auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (rep == 0) {
      out.report = std::move(r);
    } else if (!(r == out.report)) {
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

void emit_json(std::ostream& json, const Case& c, Mode mode,
               const Timing& t) {
  double pps =
      t.ms > 0 ? 1000.0 * static_cast<double>(t.report.computations) / t.ms
               : 0;
  json << "{\"case\":\"" << c.name << "\""
       << ",\"oracle\":\"sim\""
       << ",\"mode\":\"" << mode_name(mode) << "\""
       << ",\"ms\":" << t.ms << ",\"ms_min\":" << t.ms_min
       << ",\"ms_max\":" << t.ms_max << ",\"reps\":" << t.reps
       << ",\"points\":" << t.report.computations
       << ",\"points_per_sec\":" << pps
       << ",\"conflicts\":" << t.report.total_conflicts
       << ",\"collisions\":" << t.report.total_collisions
       << ",\"makespan\":" << t.report.makespan << "}\n";
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::cerr << "usage: systolic_throughput\n";
    return 2;
  }
  const bool smoke = std::getenv("SYSMAP_BENCH_SMOKE") != nullptr;
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  std::ofstream json(path ? path : "BENCH_sim.json");

  // At these sizes the seed spends nearly all its time in tree-map
  // insertions keyed by VecI (one wire entry per dependence hop, one
  // conflict entry per computation), which is exactly the bookkeeping the
  // flat engine replaces with packed-uint64 open addressing.  The
  // conflicting and transitive-closure cases drown a single PE column in
  // duplicates; the clean case is conflict-free end to end; convolution is
  // the long skewed 2-D box.  Smoke keeps the two cheapest cases only.
  const Int mu = smoke ? 6 : 28;
  std::vector<Case> cases;
  {
    model::UniformDependenceAlgorithm algo = model::matmul(mu);
    cases.push_back({"matmul_clean", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                      VecI{1, mu, 1}))});
  }
  {
    model::UniformDependenceAlgorithm algo = model::matmul(smoke ? 4 : 20);
    cases.push_back({"matmul_conflicting", algo,
                     design_dedicated_array(
                         algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                      VecI{1, 1, 1}))});
  }
  if (!smoke) {
    {
      model::UniformDependenceAlgorithm algo = model::transitive_closure(20);
      cases.push_back({"transitive_closure", algo,
                       design_dedicated_array(
                           algo, mapping::MappingMatrix(MatI{{0, 0, 1}},
                                                        VecI{5, 1, 1}))});
    }
    {
      model::UniformDependenceAlgorithm algo = model::convolution(192, 96);
      cases.push_back({"convolution", algo,
                       design_dedicated_array(
                           algo, mapping::MappingMatrix(MatI{{1, 0}},
                                                        VecI{1, 193}))});
    }
    {
      model::UniformDependenceAlgorithm algo = model::lu_decomposition(24);
      cases.push_back({"lu_decomposition", algo,
                       design_dedicated_array(
                           algo, mapping::MappingMatrix(MatI{{1, 1, -1}},
                                                        VecI{2, 1, 2}))});
    }
  }

  std::cout << "SYSTOLIC-THROUGHPUT: simulator engines\n";
  std::cout << "case                 points   seed_ms   flat_ms   flat/seed\n";

  bool all_parity_ok = true;
  for (const Case& c : cases) {
    int reps = 1;
    if (!smoke) {
      // Calibrate on one flat run so the fast modes repeat long enough to
      // time stably; the seed stays at 3 reps (it is the slow mode).
      Timing probe = run_mode(c, Mode::kFlat, 1);
      reps = probe.ms >= 50 ? 3 : static_cast<int>(50 / (probe.ms + 0.01)) + 3;
    }
    Timing seed = run_mode(c, Mode::kSeed, smoke ? 1 : 3);
    Timing flat = run_mode(c, Mode::kFlat, reps);
    if (!(seed.report == flat.report)) {
      std::cerr << "PARITY VIOLATION in " << c.name << "\n";
      all_parity_ok = false;
      continue;
    }
    double flat_speedup = flat.ms > 0 ? seed.ms / flat.ms : 0;

    std::ostringstream row;
    row.setf(std::ios::fixed);
    row.precision(3);
    row << c.name;
    for (std::size_t p = c.name.size(); p < 21; ++p) row << ' ';
    row << seed.report.computations << "  " << seed.ms << "  " << flat.ms
        << "  ";
    row.precision(2);
    row << flat_speedup << "x";
    std::cout << row.str() << "\n";

    emit_json(json, c, Mode::kSeed, seed);
    emit_json(json, c, Mode::kFlat, flat);
    json << "{\"case\":\"" << c.name << "\""
         << ",\"flat_vs_seed\":" << flat_speedup << "}\n";
    json.flush();
  }
  json << sysmap::obs::snapshot_json() << "\n";
  json.flush();
  return all_parity_ok ? 0 : 1;
}
