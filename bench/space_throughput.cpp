// SPACE-THROUGHPUT -- ablation of the Problem 6.1/6.2 sweep engines.
//
// Runs the space-optimal search (fixed Pi, sweep all candidate S) end to
// end for each gallery workload, across three modes:
//   seed      the original serial std::set engine, verbatim
//   serial    the fast engine (packed-image counting, orbit-canonical
//             count reuse, wire-first branch-and-bound) on one thread
//   parallel  the fast engine fanned over the thread pool
// All modes are bit-identical by construction in every field of
// SpaceSearchResult -- this harness asserts that (operator==) before
// reporting any number.  A final Problem 6.2 section holds the fast
// Pareto sweep equal to its seed the same way.
//
// Output: a human-readable table on stdout and JSON lines (one object per
// case/mode with the median time of its reps and their range, plus
// per-case speedup summaries, then one obs snapshot whose
// search.space.* counters report how often each shortcut fired) written
// to $SYSMAP_BENCH_JSON or BENCH_space.json.  Set SYSMAP_BENCH_SMOKE=1
// for a single-rep quick pass (CI smoke); pass --threads N to size the
// parallel mode (default 4).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "search/space_optimal.hpp"
#include "sysmap.hpp"

using namespace sysmap;

namespace {

struct Case {
  std::string name;
  model::UniformDependenceAlgorithm algo;
  VecI pi;
  Int max_entry;
  std::size_t array_dims;
};

struct Timing {
  double ms = 0;  ///< median over the reps
  double ms_min = 0;
  double ms_max = 0;
  int reps = 0;
  search::SpaceSearchResult result;
};

enum class Mode { kSeed, kSerial, kParallel };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSeed:
      return "seed";
    case Mode::kSerial:
      return "serial";
    case Mode::kParallel:
      return "parallel";
  }
  return "?";
}

search::SpaceSearchOptions mode_options(const Case& c, Mode mode,
                                        std::size_t threads) {
  search::SpaceSearchOptions opts;
  opts.max_entry = c.max_entry;
  opts.array_dims = c.array_dims;
  if (mode == Mode::kParallel) opts.num_threads = threads;
  return opts;
}

// Times `reps` runs and reports their median (with the range): a best-of
// row would favor whichever rep the host happened to leave alone.  Every
// rep must return the first rep's result.
Timing run_mode(const Case& c, Mode mode, int reps, std::size_t threads) {
  const search::SpaceSearchOptions opts = mode_options(c, mode, threads);
  Timing out;
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    search::SpaceSearchResult r =
        mode == Mode::kSeed ? search::space_optimal_mapping_seed(c.algo, c.pi, opts)
                            : search::space_optimal_mapping(c.algo, c.pi, opts);
    auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (rep == 0) {
      out.result = std::move(r);
    } else if (!(r == out.result)) {
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

void emit_json(std::ostream& json, const Case& c, Mode mode, const Timing& t,
               std::size_t threads) {
  double cps =
      t.ms > 0
          ? 1000.0 * static_cast<double>(t.result.candidates_tested) / t.ms
          : 0;
  json << "{\"case\":\"" << c.name << "\""
       << ",\"n\":" << c.algo.index_set().dimension()
       << ",\"k\":" << (c.array_dims + 1)
       << ",\"oracle\":\"kExact\""
       << ",\"mode\":\"" << mode_name(mode) << "\""
       << ",\"threads\":" << (mode == Mode::kParallel ? threads : 1)
       << ",\"ms\":" << t.ms << ",\"ms_min\":" << t.ms_min
       << ",\"ms_max\":" << t.ms_max << ",\"reps\":" << t.reps
       << ",\"candidates_tested\":" << t.result.candidates_tested
       << ",\"candidates_per_sec\":" << cps
       << ",\"found\":" << (t.result.found ? "true" : "false")
       << ",\"cost\":"
       << (t.result.found ? t.result.cost.total() : Int{0}) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("SYSMAP_BENCH_SMOKE") != nullptr;
  std::size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (threads == 0) threads = 1;
    } else {
      std::cerr << "usage: space_throughput [--threads N]\n";
      return 2;
    }
  }
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  std::ofstream json(path ? path : "BENCH_space.json");

  // The mu=12..16 cases make the per-candidate image walk the dominant
  // cost (|J| = mu^3 points per candidate, hundreds of candidates), which
  // is the regime the incremental counter and the orbit cache target.
  // The k=2 case exercises rank filtering plus two-row packing; the
  // convolution case is 2-D with a long skewed box.  Smoke keeps the two
  // cheapest cases only.
  std::vector<Case> cases;
  cases.push_back({"matmul_mu12_e2", model::matmul(12), VecI{1, 12, 1}, 2, 1});
  cases.push_back({"transitive_closure_mu12_e2", model::transitive_closure(12),
                   VecI{5, 2, 1}, 2, 1});
  if (!smoke) {
    cases.push_back(
        {"lu_decomposition_mu12_e2", model::lu_decomposition(12),
         VecI{1, 12, 1}, 2, 1});
    cases.push_back({"matmul_mu16_e3", model::matmul(16), VecI{1, 16, 1}, 3, 1});
    cases.push_back({"convolution_mu96_e3", model::convolution(96, 64),
                     VecI{1, 1}, 3, 1});
    cases.push_back(
        {"matmul_mu10_k2_e1", model::matmul(10), VecI{1, 10, 1}, 1, 2});
  }

  std::cout << "SPACE-THROUGHPUT: Problem 6.1 sweep engines (" << threads
            << " parallel threads)\n";
  std::cout << "case                        cands   seed_ms   serial_ms  "
               "par_ms   serial/seed  par/seed\n";

  bool all_parity_ok = true;
  for (const Case& c : cases) {
    int reps = 1;
    if (!smoke) {
      // Calibrate on one serial run so every fast mode repeats long
      // enough to time stably, then keep the count identical across
      // them.  The seed mode is the slow one, so this stays affordable.
      Timing probe = run_mode(c, Mode::kSerial, 1, threads);
      reps = probe.ms >= 50 ? 3 : static_cast<int>(50 / (probe.ms + 0.01)) + 3;
    }
    Timing seed = run_mode(c, Mode::kSeed, smoke ? 1 : 3, threads);
    Timing serial = run_mode(c, Mode::kSerial, reps, threads);
    Timing par = run_mode(c, Mode::kParallel, reps, threads);
    bool ok = seed.result == serial.result && seed.result == par.result;
    if (!ok) {
      std::cerr << "PARITY VIOLATION in " << c.name << "\n";
      all_parity_ok = false;
      continue;
    }
    double serial_speedup = serial.ms > 0 ? seed.ms / serial.ms : 0;
    double par_speedup = par.ms > 0 ? seed.ms / par.ms : 0;

    std::ostringstream row;
    row.setf(std::ios::fixed);
    row.precision(3);
    row << c.name;
    for (std::size_t p = c.name.size(); p < 28; ++p) row << ' ';
    row << seed.result.candidates_tested << "  " << seed.ms << "  "
        << serial.ms << "  " << par.ms << "  ";
    row.precision(2);
    row << serial_speedup << "x  " << par_speedup << "x";
    std::cout << row.str() << "\n";

    emit_json(json, c, Mode::kSeed, seed, threads);
    emit_json(json, c, Mode::kSerial, serial, threads);
    emit_json(json, c, Mode::kParallel, par, threads);
    json << "{\"case\":\"" << c.name << "\",\"threads\":" << threads
         << ",\"serial_vs_seed\":" << serial_speedup
         << ",\"parallel_vs_seed\":" << par_speedup << "}\n";
    json.flush();
  }

  // Problem 6.2: the fast Pareto sweep against its seed.  One modest case
  // -- each candidate S costs a full Procedure 5.1 run here, so the sweep
  // is schedule-search-bound and the win is the parallel fan plus the
  // fast cost evaluation, not the counter.
  {
    model::UniformDependenceAlgorithm algo =
        smoke ? model::matmul(3) : model::matmul(6);
    search::SpaceSearchOptions opts;
    opts.max_entry = 1;
    auto t0 = std::chrono::steady_clock::now();
    search::DesignSpaceResult slow = search::explore_design_space_seed(algo, opts);
    auto t1 = std::chrono::steady_clock::now();
    opts.num_threads = threads;
    search::DesignSpaceResult fast = search::explore_design_space(algo, opts);
    auto t2 = std::chrono::steady_clock::now();
    double seed_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    double fast_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    bool ok = slow == fast;
    std::cout << "pareto_matmul               " << slow.spaces_tested
              << " spaces, " << slow.pareto.size() << " frontier points, seed "
              << seed_ms << " ms, fast " << fast_ms << " ms\n";
    json << "{\"case\":\"pareto_matmul\",\"oracle\":\"kExact\""
         << ",\"mode\":\"pareto\",\"threads\":" << threads
         << ",\"seed_ms\":" << seed_ms << ",\"fast_ms\":" << fast_ms
         << ",\"spaces_tested\":" << slow.spaces_tested
         << ",\"frontier\":" << slow.pareto.size()
         << ",\"parity\":" << (ok ? "true" : "false") << "}\n";
    if (!ok) {
      std::cerr << "PARITY VIOLATION in pareto_matmul\n";
      all_parity_ok = false;
    }
  }
  json << sysmap::obs::snapshot_json() << "\n";
  json.flush();
  return all_parity_ok ? 0 : 1;
}
