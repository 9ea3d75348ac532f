// sysbench -- the repository benchmark program.
//
//   sysbench --workload map_stream|design_sweep|simulate --seed N
//            --seconds S --trace 0|1 [--spans PATH]
//
// One process runs one workload as a closed loop with one client: each op
// is issued after the previous one returns, and every answer is checked by
// the benchmark's own code (checks.hpp) outside the timed region.  With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it replays
// each op through the layers' public functions under a span recorder and
// reports the per-layer metrics (build the library with SYSMAP_OBS=ON for
// the obs-derived ones).  The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit code is 0 when every answer checked out, 1 when one did not,
// and 2 on a usage error (no JSON line then).
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/obs.hpp"
#include "stats.hpp"

namespace {

using namespace sysbench;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// Peak resident set of this process.  getrusage's ru_maxrss also counts
// the launching process's pages from before exec (a python3 parent adds
// about 9 MiB), so the address space's own high-water mark is read first.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::vector<Metric> layer_metrics(const trace::Recorder& rec,
                                  const LayerCounters& c) {
  using trace::Layer;
  const double ops = static_cast<double>(rec.ops());
  const trace::LayerTotals& t = rec.totals();
  auto ms = [&](Layer l) {
    return ratio(static_cast<double>(t.self_ns[static_cast<std::size_t>(l)]) /
                     1e6,
                 ops);
  };
  auto calls = [&](Layer l) {
    return ratio(static_cast<double>(t.calls[static_cast<std::size_t>(l)]),
                 ops);
  };
  auto per_op = [&](std::uint64_t x) {
    return ratio(static_cast<double>(x), ops);
  };
  const double score_s =
      static_cast<double>(t.self_ns[static_cast<std::size_t>(
          Layer::kSearchScore)]) /
      1e9;
  const ObsCounters& o = c.obs;
  auto share = [](std::uint64_t a, std::uint64_t b) {
    return ratio(static_cast<double>(a), static_cast<double>(a + b));
  };
  return {
      {"search.ilp.time_ms", ms(Layer::kSearchIlp), "ms"},
      {"search.ilp.nodes", per_op(c.ilp_nodes), "1/op"},
      {"search.ilp.rejected", per_op(c.ilp_rejected), "1/op"},
      {"search.ilp.orthant_fallbacks", per_op(c.orthant_fallbacks), "1/op"},
      {"search.ilp.bound_tight_ratio",
       ratio(static_cast<double>(c.bound_tight),
             static_cast<double>(c.ilp_ops)),
       "ratio"},
      {"opt.lp.time_ms", ms(Layer::kOptLp), "ms"},
      {"opt.lp.calls", calls(Layer::kOptLp), "1/op"},
      {"opt.ilp.time_ms", ms(Layer::kOptIlp), "ms"},
      {"opt.ilp.nodes", per_op(c.branch_ilp_nodes), "1/op"},
      {"search.certify.time_ms", ms(Layer::kSearchCertify), "ms"},
      {"search.certify.candidates", per_op(c.certify_candidates), "1/op"},
      {"search.certify.ratio",
       ratio(static_cast<double>(c.certify_improved),
             static_cast<double>(c.certify_sweeps)),
       "ratio"},
      {"search.fixed_space.time_ms", ms(Layer::kFixedSpace), "ms"},
      {"search.pipeline.self_ms",
       ratio(c.serial_ms - (c.replay_ms - c.replay_probe_ms), ops),
       "ms"},
      {"search.space_enum.time_ms", ms(Layer::kSpaceEnum), "ms"},
      {"search.score.time_ms", ms(Layer::kSearchScore), "ms"},
      {"search.score.calls", calls(Layer::kSearchScore), "1/op"},
      {"search.procedure51.candidates_per_s",
       ratio(static_cast<double>(c.score_candidates), score_s), "1/s"},
      {"mapping.oracle.time_ms", ms(Layer::kMappingOracle), "ms"},
      {"lattice.hnf.time_ms", ms(Layer::kLatticeHnf), "ms"},
      {"support.image_count.time_ms", ms(Layer::kImageCount), "ms"},
      {"search.sweep.parallel_efficiency",
       ratio(c.serial_ms, static_cast<double>(c.op_threads) * c.oneshot_ms),
       "ratio"},
      {"support.thread_pool.pools_created", per_op(o.pools_created), "1/op"},
      {"search.verdict_cache.hit_ratio",
       share(o.verdict_hits, o.verdict_misses), "ratio"},
      {"search.pipeline.orbit_hit_ratio", share(o.orbit_hits, o.orbit_misses),
       "ratio"},
      {"exact.fastpath.restart_ratio",
       ratio(static_cast<double>(o.fastpath_restarts),
             static_cast<double>(o.fastpath_attempts)),
       "ratio"},
      {"systolic.design.time_ms", ms(Layer::kSystolicDesign), "ms"},
      {"systolic.simulate.time_ms", ms(Layer::kSystolicSimulate), "ms"},
      {"systolic.simulate.cycles", per_op(c.sim_cycles), "1/op"},
      {"systolic.flat_ratio", share(o.flat_runs, o.seed_fallbacks), "ratio"},
      {"systolic.conflict_probes", per_op(o.conflict_probes), "1/op"},
      {"trace.overhead_ratio",
       ratio(c.replay_ms - c.serial_ms, c.serial_ms), "ratio"},
      {"trace.replay_mismatch", static_cast<double>(c.replay_mismatch),
       "count"},
      {"trace.ops", ops, "count"},
      {"trace.oneshot_p50_ms", stats::median(c.oneshot_latencies_ms), "ms"},
      {"trace.obs_enabled", sysmap::obs::kEnabled ? 1.0 : 0.0, "bool"},
  };
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload map_stream|design_sweep|simulate "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int traced = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        seed = std::stoull(value, &used);
        have_seed = used == value.size() && value[0] != '-';
      } else if (key == "--seconds") {
        seconds = std::stod(value, &used);
        if (used != value.size()) seconds = 0.0;
      } else if (key == "--trace") {
        traced = value == "0" ? 0 : value == "1" ? 1 : -1;
      } else if (key == "--spans") {
        spans_path = value;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_seed || seconds <= 0.0 || traced < 0 ||
      make_workload(workload) == nullptr) {
    return usage(argv[0]);
  }

  // Set-up, timed on fresh objects several times; the last one runs.
  constexpr int kSetupReps = 31;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const std::int64_t t0 = trace::now_ns();
    w = make_workload(workload);
    w->setup(seed);
    setup_s.push_back(static_cast<double>(trace::now_ns() - t0) / 1e9);
  }

  std::printf("workload %s, seed %llu, %g s, trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced);
  Tally tally;
  trace::Recorder recorder(200'000);
  LayerCounters counters;
  const std::int64_t start = trace::now_ns();
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  while (trace::now_ns() - start < budget_ns || !w->at_boundary()) {
    tally.add(traced ? w->traced_step(recorder, counters) : w->step());
  }
  const double wall_s = static_cast<double>(trace::now_ns() - start) / 1e9;

  for (const std::string& why : tally.first_failures) {
    std::printf("FAILED: %s\n", why.c_str());
  }
  std::vector<Metric> metrics;
  if (!traced) {
    const stats::Tail tail = stats::tail(tally.latencies_ms, w->tail_target());
    const double loop_s = wall_s - tally.check_ms / 1e3;
    std::printf("  %llu ops in %.3f s (%.3f s of it in answer checks); "
                "latency tail is p%g with %zu of %zu ops beyond it; "
                "error_rate %s\n",
                static_cast<unsigned long long>(tally.attempted), wall_s,
                tally.check_ms / 1e3, tail.percentile, tail.beyond,
                tail.samples, number(tally.error_rate()).c_str());
    metrics = {
        {"setup_s", stats::median(setup_s), "s"},
        {"latency_p50_ms", stats::median(tally.latencies_ms), "ms"},
        {"latency_tail_ms", tail.value, "ms"},
        {"throughput_ops_s",
         ratio(static_cast<double>(tally.attempted), loop_s), "ops/s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"points_per_s",
         ratio(static_cast<double>(tally.points), tally.op_ms / 1e3),
         "points/s"},
    };
  } else {
    metrics = layer_metrics(recorder, counters);
    if (!spans_path.empty() && !recorder.write(spans_path)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   spans_path.c_str());
    }
    std::printf("  %llu ops traced, %zu spans kept%s%s\n",
                static_cast<unsigned long long>(recorder.ops()),
                recorder.kept(), spans_path.empty() ? "" : " in ",
                spans_path.c_str());
  }
  const bool correct = tally.failed == 0;
  print_result(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}
