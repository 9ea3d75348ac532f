// sysmap_cli -- command-line front end to the mapping library.
//
// Modes:
//   find the time-optimal conflict-free schedule for a given space mapping:
//     sysmap_cli --algo matmul --mu 4 --space "1 1 -1" [--simulate]
//                [--diagram] [--method auto|proc51|ilp]
//   verify a fully specified mapping:
//     sysmap_cli --algo matmul --mu 4 --space "1 1 -1" --pi "1 4 1"
//   custom algorithms:
//     sysmap_cli --bounds "4 4 4" --deps "1 0 0; 0 1 0; 0 0 1" --space ...
//   explore the joint (S, Pi) design space (Problem 6.2):
//     sysmap_cli --algo matmul --mu 4 --explore [--max-entry 1]
//
// With --metrics (human table) or --metrics=json (one JSON object, the
// final stdout line) the sysmap::obs snapshot is appended after the mode
// output, even when the mode fails.  Builds with SYSMAP_OBS=OFF still
// accept the flags and report {"obs_enabled": false}.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "sysmap.hpp"

namespace {

using namespace sysmap;

enum class MetricsFormat { kNone, kTable, kJson };

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--algo NAME [--mu N] [--mu2 N] [--bits N] |\n"
      "           --bounds \"m1 m2 ...\" --deps \"d11 d12; d21 d22; ...\")\n"
      "          [--space \"s1 s2 ...; ...\"] [--pi \"p1 p2 ...\"]\n"
      "          [--method auto|proc51|ilp] [--simulate] [--diagram]\n"
      "          [--report] [--target line|mesh|diag|\"P matrix\"]\n"
      "          [--explore] [--max-entry N] [--metrics[=json]]\n"
      "algorithms: matmul transitive_closure lu convolution unit_cube\n"
      "            bit_matmul bit_lu bit_convolution\n",
      argv0);
  return 2;
}

// One diagnostic line on stderr, then the usage block; every argv
// validation failure funnels through here so the exit code is pinned to 2.
int bad_args(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return usage(argv0);
}

int verify_mode(const model::UniformDependenceAlgorithm& algo,
                const MatI& space, const VecI& pi, bool simulate, bool report,
                bool diagram) {
  schedule::LinearSchedule sched(pi);
  if (!sched.respects_dependences(algo.dependence_matrix())) {
    std::printf("INVALID: Pi D > 0 violated\n");
    return 1;
  }
  mapping::MappingMatrix t(space, pi);
  if (!t.has_full_rank()) {
    std::printf("INVALID: rank(T) < k\n");
    return 1;
  }
  mapping::ConflictVerdict v =
      mapping::decide_conflict_free(t, algo.index_set());
  std::printf("T =\n%s\n", linalg::pretty(t.matrix()).c_str());
  std::printf("makespan t = %lld\n",
              (long long)sched.makespan(algo.index_set()));
  std::printf("conflict-freedom: %s [%s]\n",
              v.conflict_free() ? "conflict-free" : "HAS CONFLICT",
              v.rule.c_str());
  if (v.witness) {
    std::printf("witness conflict vector: %s\n",
                linalg::pretty(*v.witness).c_str());
  }
  if (!v.conflict_free()) return 1;
  systolic::ArrayDesign design = systolic::design_dedicated_array(algo, t);
  std::printf("\n%s", systolic::link_diagram(algo, design).c_str());
  std::optional<systolic::SimulationReport> sim;
  if (simulate || report) {
    sim = systolic::simulate(algo, design);
    std::printf("simulation: %s\n", sim->summary().c_str());
  }
  if (report) {
    // Package the verified mapping as a MappingSolution so the verify
    // path renders the same one-page report the optimizer does.
    search::MappingSolution s;
    s.found = true;
    s.pi = pi;
    s.makespan = sched.makespan(algo.index_set());
    s.objective = s.makespan - 1;
    s.verdict = v;
    s.method_used = "user-specified Pi (verified)";
    s.array = std::move(design);
    s.simulation = sim;
    core::ReportOptions ropt;
    ropt.include_frames = true;
    std::printf("\n%s", core::render_report(algo, s, ropt).c_str());
    return sim && !sim->clean() ? 1 : 0;
  }
  if (sim && !sim->clean()) return 1;
  if (diagram && t.k() == 2) {
    std::printf("\n%s", systolic::space_time_diagram(algo, design).c_str());
  }
  return 0;
}

// The mode dispatch, split out of main() so the --metrics snapshot prints
// after EVERY exit path (including failures) without goto gymnastics.
int run(const char* argv0, std::map<std::string, std::string>& args,
        std::map<std::string, bool>& flags) {
  // -- numeric option validation ---------------------------------------
  auto parse_int = [&](const char* key, Int fallback, Int& out) -> bool {
    auto it = args.find(key);
    if (it == args.end()) {
      out = fallback;
      return true;
    }
    try {
      std::size_t used = 0;
      out = std::stoll(it->second, &used);
      if (used != it->second.size()) throw std::invalid_argument(key);
    } catch (const std::exception&) {
      std::fprintf(stderr, "option '%s' expects an integer, got '%s'\n", key,
                   it->second.c_str());
      return false;
    }
    return true;
  };
  Int mu = 4, mu2 = -1, bits = 2, max_entry = 1;
  if (!parse_int("--mu", 4, mu) || !parse_int("--mu2", -1, mu2) ||
      !parse_int("--bits", 2, bits) ||
      !parse_int("--max-entry", 1, max_entry)) {
    return usage(argv0);
  }
  if (args.count("--mu") && mu <= 0) {
    return bad_args(argv0, "option '--mu' must be positive, got " +
                               std::to_string(mu));
  }
  if (args.count("--bits") && bits <= 0) {
    return bad_args(argv0, "option '--bits' must be positive, got " +
                               std::to_string(bits));
  }
  if (args.count("--max-entry") && max_entry <= 0) {
    return bad_args(argv0, "option '--max-entry' must be positive, got " +
                               std::to_string(max_entry));
  }

  try {
    // -- build the algorithm -------------------------------------------
    std::optional<model::UniformDependenceAlgorithm> algo;
    if (args.count("--algo")) {
      algo = core::make_gallery_algorithm(args["--algo"], mu, mu2, bits);
      if (!algo) {
        std::fprintf(stderr, "unknown algorithm '%s'\n",
                     args["--algo"].c_str());
        return usage(argv0);
      }
    } else if (args.count("--bounds") && args.count("--deps")) {
      algo = core::make_custom_algorithm(args["--bounds"], args["--deps"]);
    } else {
      return usage(argv0);
    }
    std::printf("algorithm: %s, n = %zu, m = %zu, |J| = %s\n",
                algo->name().c_str(), algo->dimension(),
                algo->num_dependences(),
                algo->index_set().size().to_string().c_str());

    // -- explore mode ----------------------------------------------------
    if (flags["--explore"]) {
      // Options that only steer the fixed-space modes are rejected, not
      // silently ignored: an explore sweep picks its own methods and
      // designs no target-constrained arrays.
      for (const char* key : {"--method", "--target", "--pi"}) {
        if (args.count(key)) {
          return bad_args(argv0, std::string("option '") + key +
                                     "' has no effect in --explore mode; "
                                     "remove it or drop --explore");
        }
      }
      search::SpaceSearchOptions options;
      options.max_entry = max_entry;
      search::DesignSpaceResult r =
          search::explore_design_space(*algo, options);
      std::printf("design space: %llu spaces tested, %llu feasible\n",
                  (unsigned long long)r.spaces_tested,
                  (unsigned long long)r.feasible_spaces);
      std::printf("%-16s | %-16s | t    | PEs + wire\n", "S", "Pi");
      for (const auto& p : r.pareto) {
        std::printf("%-16s | %-16s | %4lld | %lld + %lld\n",
                    linalg::pretty(p.space.row_vector(0)).c_str(),
                    linalg::pretty(p.pi).c_str(), (long long)p.makespan,
                    (long long)p.cost.processors,
                    (long long)p.cost.wire_length);
      }
      return r.pareto.empty() ? 1 : 0;
    }

    if (!args.count("--space")) return usage(argv0);
    MatI space = core::parse_matrix(args["--space"]);

    // -- verify mode -----------------------------------------------------
    if (args.count("--pi")) {
      if (args.count("--method")) {
        return bad_args(argv0,
                        "option '--method' has no effect when --pi is "
                        "given (nothing to search)");
      }
      return verify_mode(*algo, space, core::parse_vector(args["--pi"]),
                         flags["--simulate"], flags["--report"],
                         flags["--diagram"]);
    }

    // -- optimize mode ----------------------------------------------------
    core::MapperOptions options;
    options.simulate = flags["--simulate"];
    if (args.count("--target")) {
      options.target =
          core::make_interconnect(args["--target"], space.rows());
      if (!options.target) {
        std::fprintf(stderr, "unknown interconnect '%s'\n",
                     args["--target"].c_str());
        return usage(argv0);
      }
    }
    if (args.count("--method")) {
      const std::string& m = args["--method"];
      if (m == "proc51") {
        options.method = core::Method::kProcedure51;
      } else if (m == "ilp") {
        options.method = core::Method::kIlpCertified;
      } else if (m != "auto") {
        return bad_args(argv0, "option '--method' expects auto, proc51 or "
                               "ilp, got '" + m + "'");
      }
    }
    if (flags["--report"]) options.simulate = true;
    // The fused pipeline without a cap is bit-identical to the cold
    // Mapper path; running through it lets --metrics report the fused
    // solve's spans and search.pipeline.* counters even for one query.
    search::MappingPipeline pipeline(options);
    pipeline.enable_fusion({});
    search::MappingSolution s = pipeline.score(*algo, space);
    if (!s.found) {
      std::printf("no conflict-free schedule found\n");
      return 1;
    }
    if (flags["--report"]) {
      core::ReportOptions ropt;
      ropt.include_frames = true;
      std::printf("%s", core::render_report(*algo, s, ropt).c_str());
      return 0;
    }
    std::printf("optimal Pi = %s  (t = %lld, %s)\n",
                linalg::pretty(s.pi).c_str(), (long long)s.makespan,
                s.method_used.c_str());
    std::printf("certified: %s\n", s.verdict.rule.c_str());
    if (s.array) {
      std::printf("%s", systolic::link_diagram(*algo, *s.array).c_str());
    }
    if (s.simulation) {
      std::printf("simulation: %s\n", s.simulation->summary().c_str());
      if (!s.simulation->clean()) return 1;
    }
    if (flags["--diagram"] && s.array && s.array->t.k() == 2) {
      std::printf("\n%s",
                  systolic::space_time_diagram(*algo, *s.array).c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  static const std::set<std::string> value_opts{
      "--algo", "--mu",     "--mu2", "--bits",   "--bounds", "--deps",
      "--space", "--pi",    "--method", "--target", "--max-entry"};
  std::map<std::string, std::string> args;
  std::map<std::string, bool> flags{{"--simulate", false},
                                    {"--diagram", false},
                                    {"--explore", false},
                                    {"--report", false}};
  MetricsFormat metrics = MetricsFormat::kNone;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (flags.count(key)) {
      flags[key] = true;
      continue;
    }
    if (key == "--metrics") {
      metrics = MetricsFormat::kTable;
      continue;
    }
    if (key.rfind("--metrics=", 0) == 0) {
      const std::string fmt = key.substr(std::strlen("--metrics="));
      if (fmt != "json") {
        return bad_args(argv[0], "option '--metrics' accepts only '=json', "
                                 "got '" + fmt + "'");
      }
      metrics = MetricsFormat::kJson;
      continue;
    }
    if (!value_opts.count(key)) {
      return bad_args(argv[0], "unknown option '" + key + "'");
    }
    if (i + 1 >= argc) {
      return bad_args(argv[0], "option '" + key + "' requires a value");
    }
    const std::string value = argv[++i];
    // A following option token is NOT a value: "--space --pi" is a typo,
    // not a space matrix.  (Negative scalars like "-1 0 0" still pass --
    // only the double-dash prefix is reserved.)
    if (value.rfind("--", 0) == 0) {
      return bad_args(argv[0], "option '" + key + "' requires a value, but "
                               "the next token '" + value + "' is an option");
    }
    args[key] = value;
  }

  const int rc = run(argv[0], args, flags);
  if (metrics == MetricsFormat::kJson) {
    std::printf("%s\n", obs::snapshot_json().c_str());
  } else if (metrics == MetricsFormat::kTable) {
    std::printf("%s", obs::format_table(obs::snapshot()).c_str());
  }
  return rc;
}
