// E2E-THROUGHPUT -- the fused Pi x S co-search against cold-start scoring.
//
// Runs the joint Problem 6.2 single-winner query (sweep every candidate
// space S, find each one's certified time-optimal conflict-free Pi, keep
// the best (objective, cost) point) end to end for each gallery workload,
// across three modes:
//   cold            joint_time_optimal_mapping_seed: one stateless
//                   MappingPipeline cold call per space, full search and
//                   std::set cost walk each time -- the seed oracle
//   fused           joint_time_optimal_mapping, one thread: one pipeline
//                   persists across spaces (shared verdict cache,
//                   schedule-orbit objective reuse, per-space contexts),
//                   the best objective so far truncates hopeless spaces,
//                   fast packed-image costing
//   fused_parallel  the same, fanned over the thread pool with the
//                   deterministic (objective, total, procs, pos) reduction
// All modes are bit-identical by construction in every field of
// JointMappingResult; this harness asserts that (operator==), and that the
// winner's space rescored cold and fused gives equal MappingSolutions,
// before reporting any number, and exits nonzero on violation.
//
// Output: a human-readable table on stdout and JSON lines (one object per
// case/mode with the median time of its reps and their range, plus
// per-case speedup summaries) written to
// $SYSMAP_BENCH_JSON or BENCH_e2e.json.  Set SYSMAP_BENCH_SMOKE=1 for a
// single-rep quick pass (CI smoke); pass --threads N to size the parallel
// mode (default 4).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "search/pipeline.hpp"
#include "search/space_optimal.hpp"
#include "sysmap.hpp"

using namespace sysmap;

namespace {

struct Case {
  std::string name;
  model::UniformDependenceAlgorithm algo;
  Int max_entry;
  std::size_t array_dims;
};

struct Timing {
  double ms = 0;  ///< median over the reps
  double ms_min = 0;
  double ms_max = 0;
  int reps = 0;
  search::JointMappingResult result;
};

enum class Mode { kCold, kFused, kFusedParallel };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kCold:
      return "cold";
    case Mode::kFused:
      return "fused";
    case Mode::kFusedParallel:
      return "fused_parallel";
  }
  return "?";
}

search::SpaceSearchOptions mode_options(const Case& c, Mode mode,
                                        std::size_t threads) {
  search::SpaceSearchOptions opts;
  opts.max_entry = c.max_entry;
  opts.array_dims = c.array_dims;
  opts.num_threads = mode == Mode::kFusedParallel ? threads : 1;
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
    search::JointMappingResult r =
        mode == Mode::kCold
            ? search::joint_time_optimal_mapping_seed(c.algo, opts)
            : search::joint_time_optimal_mapping(c.algo, opts);
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

// The joint winner's space scored once cold and once through a fused
// pipeline: both must return the same MappingSolution (operator==), and
// its schedule must be the winner's.
bool winner_rescores_identically(const Case& c,
                                 const search::JointMappingResult& r) {
  if (!r.found) return true;
  search::PipelineOptions options;
  options.design_array = false;
  const search::MappingPipeline cold(options);
  search::MappingPipeline fused(options);
  fused.enable_fusion({});
  const search::MappingSolution a = cold.find_time_optimal(c.algo, r.space);
  return a == fused.score(c.algo, r.space) && a.found && a.pi == r.pi &&
         a.objective == r.objective && a.verdict == r.verdict;
}

void emit_json(std::ostream& json, const Case& c, Mode mode, const Timing& t,
               std::size_t threads) {
  double sps =
      t.ms > 0
          ? 1000.0 * static_cast<double>(t.result.spaces_tested) / t.ms
          : 0;
  json << "{\"case\":\"" << c.name << "\""
       << ",\"n\":" << c.algo.index_set().dimension()
       << ",\"k\":" << (c.array_dims + 1)
       << ",\"oracle\":\"kExact\""
       << ",\"mode\":\"" << mode_name(mode) << "\""
       << ",\"threads\":" << (mode == Mode::kFusedParallel ? threads : 1)
       << ",\"ms\":" << t.ms << ",\"ms_min\":" << t.ms_min
       << ",\"ms_max\":" << t.ms_max << ",\"reps\":" << t.reps
       << ",\"spaces_tested\":" << t.result.spaces_tested
       << ",\"candidates_per_sec\":" << sps
       << ",\"found\":" << (t.result.found ? "true" : "false")
       << ",\"objective\":" << (t.result.found ? t.result.objective : Int{0})
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
      std::cerr << "usage: e2e_throughput [--threads N]\n";
      return 2;
    }
  }
  const char* path = std::getenv("SYSMAP_BENCH_JSON");
  std::ofstream json(path ? path : "BENCH_e2e.json");

  // Case mix: square-T sweeps (dims = n-1) are schedule-search-bound --
  // every infeasible space makes the cold path scan the full heuristic
  // objective range, which is exactly what the cross-space incumbent
  // truncates; the unit cube's equal extents give the richest
  // schedule-orbit reuse; the dims = n-2 matmul case takes the ILP +
  // certification route per space, where the fused win comes from the
  // certification sweeps and the packed cost walks only.  Smoke keeps the
  // two cheapest cases.
  std::vector<Case> cases;
  cases.push_back({"matmul_mu12_k3", model::matmul(12), 1, 2});
  cases.push_back({"unit_cube4_mu3_k2", model::unit_cube_algorithm(4, 3), 1, 1});
  if (!smoke) {
    cases.push_back({"transitive_closure_mu12_k3",
                     model::transitive_closure(12), 1, 2});
    cases.push_back({"matmul_mu8_k3_e2", model::matmul(8), 2, 2});
    cases.push_back({"matmul_mu16_k2", model::matmul(16), 1, 1});
  }

  std::cout << "E2E-THROUGHPUT: fused Pi x S co-search vs cold-start scoring ("
            << threads << " parallel threads)\n";
  std::cout << "case                        spaces  cold_ms   fused_ms  "
               "par_ms   fused/cold\n";

  bool all_parity_ok = true;
  for (const Case& c : cases) {
    int reps = 1;
    if (!smoke) {
      Timing probe = run_mode(c, Mode::kFused, 1, threads);
      reps = probe.ms >= 50 ? 3 : static_cast<int>(50 / (probe.ms + 0.01)) + 3;
    }
    Timing cold = run_mode(c, Mode::kCold, smoke ? 1 : 3, threads);
    Timing fused = run_mode(c, Mode::kFused, reps, threads);
    Timing par = run_mode(c, Mode::kFusedParallel, reps, threads);
    bool ok = cold.result == fused.result && cold.result == par.result &&
              winner_rescores_identically(c, cold.result);
    if (!ok) {
      std::cerr << "PARITY VIOLATION in " << c.name << "\n";
      all_parity_ok = false;
      continue;
    }
    double fused_speedup = fused.ms > 0 ? cold.ms / fused.ms : 0;
    double par_speedup = par.ms > 0 ? cold.ms / par.ms : 0;

    std::ostringstream row;
    row.setf(std::ios::fixed);
    row.precision(3);
    row << c.name;
    for (std::size_t p = c.name.size(); p < 28; ++p) row << ' ';
    row << cold.result.spaces_tested << "  " << cold.ms << "  " << fused.ms
        << "  " << par.ms << "  ";
    row.precision(2);
    row << fused_speedup << "x";
    std::cout << row.str() << "\n";

    emit_json(json, c, Mode::kCold, cold, threads);
    emit_json(json, c, Mode::kFused, fused, threads);
    emit_json(json, c, Mode::kFusedParallel, par, threads);
    json << "{\"case\":\"" << c.name << "\",\"threads\":" << threads
         << ",\"fused_vs_cold\":" << fused_speedup
         << ",\"fused_parallel_vs_cold\":" << par_speedup << "}\n";
    json.flush();
  }

  // One obs snapshot per run (obs_enabled:false when compiled out), so
  // BENCH_e2e.json carries the engine counters next to the timings.
  json << sysmap::obs::snapshot_json() << "\n";
  json.flush();

  if (!all_parity_ok) {
    std::cerr << "e2e_throughput: parity violations detected\n";
    return 1;
  }
  std::cout << "parity: all modes bit-identical to the cold oracle\n";
  return 0;
}
