// Seed simulator and public entry points.  The original sort-and-map
// implementation lives here verbatim as simulate_seed (the parity oracle
// and the flat engine's fallback); the high-throughput engine itself is in
// systolic/engine.cpp.  The only changes to the seed since PR 0 are the
// event-total counters of SimulationReport (the stored event lists were
// capped at kMaxEvents while summary() printed their size as if it were
// the total -- the totals now keep counting past the cap) and the hoisting
// of the per-computation VecI scratch allocations out of the link and
// value loops (they allocated m * |J| times); neither changes any reported
// value.
#include "systolic/simulator.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "exact/checked.hpp"
#include "schedule/linear_schedule.hpp"

namespace sysmap::systolic {

namespace {

constexpr std::size_t kMaxEvents = 16;  // cap stored diagnostics

struct Computation {
  VecI j;
  VecI pe;
  Int time = 0;
};

std::vector<Computation> collect(const model::UniformDependenceAlgorithm& algo,
                                 const ArrayDesign& design) {
  std::vector<Computation> out;
  out.reserve(algo.index_set().size_u64());
  algo.index_set().for_each([&](const VecI& j) {
    out.push_back({j, design.t.processor(j), design.t.time(j)});
  });
  std::sort(out.begin(), out.end(),
            [](const Computation& a, const Computation& b) {
              return a.time < b.time || (a.time == b.time && a.j < b.j);
            });
  return out;
}

// Canonical hop sequence for dependence column i of K: primitives in index
// order, each repeated k(r, i) times.
std::vector<std::size_t> hop_sequence(const MatI& k, std::size_t dep) {
  std::vector<std::size_t> hops;
  for (std::size_t r = 0; r < k.rows(); ++r) {
    for (Int c = 0; c < k(r, dep); ++c) hops.push_back(r);
  }
  return hops;
}

}  // namespace

namespace detail {

// SYSMAP_RAW_FASTPATH(bounded: every time value is a schedule product
// Pi j over the enumeration-bounded box J, and the +-1 / +-h adjustments
// move it by at most the total hop count of one dependence, so all cycle
// arithmetic stays far inside int64 for any index set whose size fits the
// simulator's uint64 point count; level/usage counters are bounded by |J|)
SimulationReport simulate_seed_impl(
    const model::UniformDependenceAlgorithm& algo, const ArrayDesign& design,
    const model::SemanticAlgorithm* semantic) {
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  const std::size_t n = set.dimension();
  const std::size_t m = d.cols();

  SimulationReport report;
  std::vector<Computation> computations = collect(algo, design);
  report.computations = computations.size();
  report.num_processors = design.num_processors();
  if (!computations.empty()) {
    report.first_cycle = computations.front().time;
    report.last_cycle = computations.back().time;
    report.makespan = report.last_cycle - report.first_cycle + 1;
  }

  // Reusable per-computation scratch (hoisted out of the loops below; the
  // seed allocated a fresh VecI per operand).
  VecI src(n);

  // -- computational conflicts ------------------------------------------
  {
    std::map<std::pair<VecI, Int>, const Computation*> seen;
    for (const Computation& c : computations) {
      auto [it, inserted] = seen.emplace(std::make_pair(c.pe, c.time), &c);
      if (!inserted) {
        ++report.total_conflicts;
        if (report.conflicts.size() < kMaxEvents) {
          report.conflicts.push_back({it->second->j, c.j, c.pe, c.time});
        }
      }
    }
  }

  // -- link occupancy and buffer accounting -----------------------------
  {
    std::vector<std::vector<std::size_t>> routes(m);
    for (std::size_t i = 0; i < m; ++i) routes[i] = hop_sequence(design.k, i);

    // (wire source PE, primitive, dep, cycle) -> usage count
    std::map<std::tuple<VecI, std::size_t, std::size_t, Int>, int> wires;
    // (source PE, dep) -> buffer occupancy deltas keyed by cycle
    std::map<std::pair<VecI, std::size_t>, std::map<Int, Int>> buffer_deltas;

    for (const Computation& c : computations) {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t r = 0; r < n; ++r) src[r] = c.j[r] - d(r, i);
        if (!set.contains(src)) continue;  // boundary input, no on-array hop
        Int t0 = design.t.time(src);
        Int t1 = c.time;
        const auto& route = routes[i];
        const Int h = static_cast<Int>(route.size());
        // Buffered at the source link during [t0+1, t1-h].
        if (t1 - h >= t0 + 1) {
          VecI src_pe = design.t.processor(src);
          auto& deltas = buffer_deltas[{src_pe, i}];
          deltas[t0 + 1] += 1;
          deltas[t1 - h + 1] -= 1;
        }
        // Hops occupy wires during cycles t1-h+1 .. t1.
        VecI pos = design.t.processor(src);
        for (Int hop = 0; hop < h; ++hop) {
          std::size_t prim = route[static_cast<std::size_t>(hop)];
          Int cycle = t1 - h + 1 + hop;
          int& usage = wires[{pos, prim, i, cycle}];
          ++usage;
          if (usage == 2) {
            ++report.total_collisions;
            if (report.collisions.size() < kMaxEvents) {
              report.collisions.push_back({pos, prim, i, cycle});
            }
          }
          for (std::size_t r = 0; r < design.p.rows(); ++r) {
            pos[r] = exact::add_checked(pos[r], design.p(r, prim));
          }
        }
      }
    }

    report.buffer_high_water.assign(m, 0);
    for (const auto& [key, deltas] : buffer_deltas) {
      Int level = 0;
      for (const auto& [cycle, delta] : deltas) {
        level += delta;
        report.buffer_high_water[key.second] =
            std::max(report.buffer_high_water[key.second], level);
      }
    }
  }

  // -- value-level execution ---------------------------------------------
  if (semantic) {
    report.values_checked = true;
    std::vector<Int> reference = model::evaluate_reference(*semantic);
    std::vector<Int> value(reference.size(), 0);
    std::vector<char> done(reference.size(), 0);
    std::vector<Int> inputs(m, 0);
    bool causal = true;
    for (const Computation& c : computations) {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t r = 0; r < n; ++r) src[r] = c.j[r] - d(r, i);
        if (set.contains(src)) {
          std::size_t ord = model::lexicographic_ordinal(set, src);
          if (!done[ord]) causal = false;  // operand not produced yet
          inputs[i] = value[ord];
        } else {
          inputs[i] =
              semantic->boundary ? semantic->boundary(c.j, i) : Int{0};
        }
      }
      std::size_t ord = model::lexicographic_ordinal(set, c.j);
      value[ord] = semantic->compute(c.j, inputs);
      done[ord] = 1;
    }
    report.values_match = causal && value == reference;
  }
  report.truncated_events =
      report.total_conflicts > report.conflicts.size() ||
      report.total_collisions > report.collisions.size();
  return report;
}

}  // namespace detail

std::string SimulationReport::summary() const {
  std::ostringstream os;
  os << "cycles [" << first_cycle << ", " << last_cycle << "] makespan "
     << makespan << ", " << computations << " computations on "
     << num_processors << " PEs, " << total_conflicts << " conflicts, "
     << total_collisions << " link collisions";
  if (truncated_events) {
    os << " (" << conflicts.size() << "+" << collisions.size()
       << " events stored)";
  }
  if (values_checked) {
    os << ", values " << (values_match ? "MATCH" : "MISMATCH");
  }
  return os.str();
}

SimulationReport simulate(const model::UniformDependenceAlgorithm& algo,
                          const ArrayDesign& design) {
  return detail::simulate_engine(algo, design, nullptr);
}

SimulationReport simulate(const model::SemanticAlgorithm& algo,
                          const ArrayDesign& design) {
  return detail::simulate_engine(algo.structure, design, &algo);
}

SimulationReport simulate_seed(const model::UniformDependenceAlgorithm& algo,
                               const ArrayDesign& design) {
  return detail::simulate_seed_impl(algo, design, nullptr);
}

SimulationReport simulate_seed(const model::SemanticAlgorithm& algo,
                               const ArrayDesign& design) {
  return detail::simulate_seed_impl(algo.structure, design, &algo);
}

}  // namespace sysmap::systolic
