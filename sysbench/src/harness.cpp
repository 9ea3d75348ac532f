#include "harness.hpp"

#include <string_view>

#include "obs/obs.hpp"

namespace sysbench {

void Tally::add(const OpOutcome& op) {
  latencies_ms.push_back(op.ms);
  op_ms += op.ms;
  check_ms += op.check_ms;
  points += op.points;
  ++attempted;
  if (op.failed) {
    ++failed;
    if (first_failures.size() < 5) first_failures.push_back(op.why);
  }
}

double Tally::error_rate() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

ObsCounters ObsCounters::read() {
  ObsCounters out;
  auto ends_with = [](std::string_view s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
  };
  for (const sysmap::obs::Metric& m : sysmap::obs::snapshot()) {
    const std::string_view name = m.name;
    if (name.rfind("search.verdict_cache.", 0) == 0) {
      if (ends_with(name, ".hits")) out.verdict_hits += m.total;
      if (ends_with(name, ".misses")) out.verdict_misses += m.total;
    } else if (name == "search.pipeline.orbit_hits") {
      out.orbit_hits = m.total;
    } else if (name == "search.pipeline.orbit_misses") {
      out.orbit_misses = m.total;
    } else if (name == "exact.fastpath.attempts") {
      out.fastpath_attempts = m.total;
    } else if (name == "exact.fastpath.bigint_restarts") {
      out.fastpath_restarts = m.total;
    } else if (name == "support.thread_pool.pools_created") {
      out.pools_created = m.total;
    } else if (name == "systolic.flat_runs") {
      out.flat_runs = m.total;
    } else if (name == "systolic.seed_fallbacks") {
      out.seed_fallbacks = m.total;
    } else if (name == "systolic.conflict_probes") {
      out.conflict_probes = m.total;
    }
  }
  return out;
}

ObsCounters& ObsCounters::operator+=(const ObsCounters& o) {
  verdict_hits += o.verdict_hits;
  verdict_misses += o.verdict_misses;
  orbit_hits += o.orbit_hits;
  orbit_misses += o.orbit_misses;
  fastpath_attempts += o.fastpath_attempts;
  fastpath_restarts += o.fastpath_restarts;
  pools_created += o.pools_created;
  flat_runs += o.flat_runs;
  seed_fallbacks += o.seed_fallbacks;
  conflict_probes += o.conflict_probes;
  return *this;
}

ObsCounters ObsCounters::operator-(const ObsCounters& o) const {
  ObsCounters out;
  out.verdict_hits = verdict_hits - o.verdict_hits;
  out.verdict_misses = verdict_misses - o.verdict_misses;
  out.orbit_hits = orbit_hits - o.orbit_hits;
  out.orbit_misses = orbit_misses - o.orbit_misses;
  out.fastpath_attempts = fastpath_attempts - o.fastpath_attempts;
  out.fastpath_restarts = fastpath_restarts - o.fastpath_restarts;
  out.pools_created = pools_created - o.pools_created;
  out.flat_runs = flat_runs - o.flat_runs;
  out.seed_fallbacks = seed_fallbacks - o.seed_fallbacks;
  out.conflict_probes = conflict_probes - o.conflict_probes;
  return out;
}

}  // namespace sysbench

namespace sysbench {

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "map_stream") return make_map_stream();
  if (name == "design_sweep") return make_design_sweep();
  if (name == "simulate") return make_simulate();
  return nullptr;
}

}  // namespace sysbench
