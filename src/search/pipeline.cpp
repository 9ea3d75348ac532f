#include "search/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exact/checked.hpp"
#include "exact/contracts.hpp"
#include "mapping/canonical_key.hpp"
#include "obs/obs.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "search/ilp_formulation.hpp"
#include "search/verdict_cache.hpp"

namespace sysmap::search {

namespace {

/// Dependence matrices whose positive-orthant verdict a fused pipeline
/// remembers.
constexpr std::size_t kOrthantMemoCapacity = 16;

// Completes a found schedule with array design and optional simulation.
void finalize(const model::UniformDependenceAlgorithm& algo,
              const MatI& space, const PipelineOptions& options,
              MappingSolution& solution) {
  if (!solution.found || !options.design_array) return;
  SYSMAP_SPAN("search.pipeline.finalize");
  mapping::MappingMatrix t(space, solution.pi);
  if (options.target) {
    std::optional<systolic::ArrayDesign> design =
        systolic::design_on_interconnect(algo, t, *options.target);
    if (!design) {
      throw std::logic_error(
          "MappingPipeline: accepted schedule is unroutable "
          "(search/target mismatch)");
    }
    solution.array = std::move(design);
  } else {
    solution.array = systolic::design_dedicated_array(algo, t);
  }
  if (options.simulate) {
    solution.simulation = systolic::simulate(algo, *solution.array);
  }
}

}  // namespace

// Everything the fused path shares across score() calls.  All mutable
// state sits behind one mutex (entries, prefix, signature) or in relaxed
// atomics (the advisory counters); the searches themselves run outside
// the lock, so workers serialize only on the map probes.
struct MappingPipeline::Fusion {
  VerdictCache* cache = nullptr;
  std::unique_ptr<VerdictCache> owned_cache;
  bool use_orbit = true;

  struct Entry {
    bool found = false;
    Int objective = 0;  ///< certified optimum f* when found
    Int bound = 0;      ///< exhausted scan bound when not found
  };

  std::mutex mu;
  bool ready = false;
  bool prefix_ok = false;
  std::vector<Int> sig;  ///< n, extents, dependence matrix -- resets state
  Int stride = 1;  ///< objective_level_stride of the anchored index set
  std::vector<std::uint64_t> cum;
  std::unordered_map<mapping::ConflictKey, Entry, mapping::ConflictKeyHash>
      entries;
  /// positive_orthant_forced per dependence matrix, so the fused ILP route
  /// pays its cone LPs once per D, not once per query.
  std::vector<std::pair<MatI, bool>> orthant_forced;

  std::atomic<std::uint64_t> orbit_hits{0};
  std::atomic<std::uint64_t> orbit_misses{0};
  std::atomic<std::uint64_t> seeded{0};
  std::atomic<std::uint64_t> truncated{0};

  /// (Re)anchors the per-algorithm state; true when the orbit cache (and
  /// its stats-reproducing prefix) is usable for this algorithm + bound.
  bool prepare(const model::UniformDependenceAlgorithm& algo,
               Int resolved_max) {
    const model::IndexSet& set = algo.index_set();
    const MatI& d = algo.dependence_matrix();
    std::vector<Int> fresh;
    fresh.reserve(1 + set.dimension() + d.rows() * d.cols() + 1);
    fresh.push_back(static_cast<Int>(set.dimension()));
    for (std::size_t i = 0; i < set.dimension(); ++i) {
      fresh.push_back(set.mu(i));
    }
    for (std::size_t r = 0; r < d.rows(); ++r) {
      for (std::size_t c = 0; c < d.cols(); ++c) fresh.push_back(d(r, c));
    }
    fresh.push_back(resolved_max);
    std::lock_guard<std::mutex> lock(mu);
    if (!ready || fresh != sig) {
      sig = std::move(fresh);
      entries.clear();
      // cum[k] = the candidates of levels 1..k * stride (every level that
      // is not a multiple of the stride is empty), summed from row 0 of
      // the suffix counts -- never by enumeration, which is what lets a
      // schedule-orbit hit reproduce the cold search's candidates_tested
      // without re-walking the skipped levels.  A count that overflows
      // uint64, or a bound the table does not fit, stands the cache down.
      SuffixCounts counts(set);
      stride = objective_level_stride(set);
      prefix_ok = counts.grow(resolved_max);
      const auto top = static_cast<std::size_t>(resolved_max / stride);
      cum.assign(prefix_ok ? top + 1 : 0, 0);
      for (std::size_t k = 1; prefix_ok && k <= top; ++k) {
        const std::uint64_t level =
            counts.at(0, static_cast<Int>(k) * stride);
        prefix_ok = !__builtin_add_overflow(cum[k - 1], level, &cum[k]) &&
                    cum[k] != SuffixCounts::kSaturated;
      }
      ready = true;
    }
    return prefix_ok;
  }

  /// Memoized positive_orthant_forced(d); the LPs run outside the lock.
  /// The memo is cleared when full -- only its hit rate depends on that.
  bool positive_orthant(const MatI& d) {
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [key, forced] : orthant_forced) {
        if (key == d) return forced;
      }
    }
    const bool forced = positive_orthant_forced(d);
    std::lock_guard<std::mutex> lock(mu);
    if (orthant_forced.size() >= kOrthantMemoCapacity) orthant_forced.clear();
    orthant_forced.emplace_back(d, forced);
    return forced;
  }

  std::optional<Entry> lookup(const mapping::ConflictKey& key) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it == entries.end()) {
      orbit_misses.fetch_add(1, std::memory_order_relaxed);
      SYSMAP_COUNT("search.pipeline.orbit_misses", 1);
      return std::nullopt;
    }
    orbit_hits.fetch_add(1, std::memory_order_relaxed);
    SYSMAP_COUNT("search.pipeline.orbit_hits", 1);
    return it->second;
  }

  /// First-writer-wins with monotone strengthening: a found entry (the
  /// certified optimum, identical for every writer in the orbit) replaces
  /// any not-found entry; not-found entries keep the largest exhausted
  /// bound.  Interleavings can only change WHICH valid fact is stored,
  /// never store an invalid one -- lookups re-validate against their own
  /// effective bound.
  void store(const mapping::ConflictKey& key, bool found, Int objective,
             Int bound) {
    Entry e;
    e.found = found;
    e.objective = objective;
    e.bound = bound;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = entries.emplace(key, e);
    if (inserted) return;
    Entry& cur = it->second;
    if (e.found) {
      cur = e;
    } else if (!cur.found && e.bound > cur.bound) {
      cur.bound = e.bound;
    }
  }

  /// Candidates the serial sweep visits at levels 1..f-1 / 1..f.  Callers
  /// guarantee prefix_ok and the argument within the built range.
  std::uint64_t below(Int f) const { return through(f - 1); }
  std::uint64_t through(Int f) const {
    return cum[static_cast<std::size_t>(f / stride)];
  }
};

MappingPipeline::MappingPipeline(PipelineOptions options)
    : options_(std::move(options)) {}

MappingPipeline::~MappingPipeline() = default;

void MappingPipeline::enable_fusion(const FusionOptions& fusion) {
  fusion_ = std::make_unique<Fusion>();
  if (fusion.verdict_cache != nullptr) {
    fusion_->cache = fusion.verdict_cache;
  } else {
    fusion_->owned_cache = std::make_unique<VerdictCache>();
    fusion_->cache = fusion_->owned_cache.get();
  }
  fusion_->use_orbit = fusion.use_schedule_orbit_cache;
}

MappingPipeline::FusionStats MappingPipeline::fusion_stats() const {
  FusionStats out;
  if (fusion_ == nullptr) return out;
  out.schedule_orbit_hits =
      fusion_->orbit_hits.load(std::memory_order_relaxed);
  out.schedule_orbit_misses =
      fusion_->orbit_misses.load(std::memory_order_relaxed);
  out.seeded_searches = fusion_->seeded.load(std::memory_order_relaxed);
  out.truncated_by_cap = fusion_->truncated.load(std::memory_order_relaxed);
  return out;
}

VerdictCache* MappingPipeline::shared_verdict_cache() const {
  return fusion_ != nullptr ? fusion_->cache : nullptr;
}

MappingSolution MappingPipeline::find_time_optimal(
    const model::UniformDependenceAlgorithm& algo, const MatI& space) const {
  return solve(algo, space, /*fusion=*/nullptr, kNoCap);
}

MappingSolution MappingPipeline::score(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    Int cap) const {
  return solve(algo, space, fusion_.get(), cap);
}

MappingSolution MappingPipeline::solve(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    Fusion* fusion, Int cap) const {
  SYSMAP_SPAN("search.pipeline.solve");
  SYSMAP_COUNT("search.pipeline.solves", 1);
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  const std::size_t n = algo.dimension();
  const std::size_t k = space.rows() + 1;
  if (space.cols() != n) {
    throw std::invalid_argument("MappingPipeline: S width must equal n");
  }

  MappingSolution solution;
  const bool ilp_applicable = (k + 1 == n);
  const bool use_ilp =
      options_.method == Method::kIlpCertified ||
      (options_.method == Method::kAuto && ilp_applicable);
  if (options_.method == Method::kIlpCertified && !ilp_applicable) {
    throw std::invalid_argument(
        "MappingPipeline: kIlpCertified requires S in Z^{(n-2) x n}");
  }

  const Int resolved_max = options_.max_objective > 0
                               ? options_.max_objective
                               : default_max_objective(set);
  const bool capped = cap > kNoCap;
  const Int eff_max = capped ? std::min(resolved_max, cap) : resolved_max;

  // Single site for the incumbent-cap verdict: marks the solution, bumps
  // the fusion stat when fused, and feeds the obs counter.  (A cap without
  // fusion is legal -- find_time_optimal callers never cap, but score() on
  // a pipeline without enable_fusion() may.)
  auto note_truncated = [&solution, fusion] {
    solution.truncated_by_cap = true;
    if (fusion != nullptr) {
      fusion->truncated.fetch_add(1, std::memory_order_relaxed);
    }
    SYSMAP_COUNT("search.pipeline.truncated_by_cap", 1);
  };

  SearchOptions search_options;
  search_options.target = options_.target;
  search_options.max_objective = eff_max;
  search_options.verdict_cache = fusion != nullptr ? fusion->cache : nullptr;

  // One fixed-S context per call, shared by the certification sweep and
  // the Procedure-5.1 route (each would otherwise rebuild it).  Built
  // lazily so the bound-tight ILP shortcut never pays for it, and skipped
  // when k > n so procedure_5_1 raises its own validation error.
  std::optional<FixedSpaceContext> ctx;
  auto shared_context = [&]() -> const FixedSpaceContext* {
    if (!ctx && k <= n) ctx.emplace(set, space);
    return ctx ? &*ctx : nullptr;
  };

  if (use_ilp && ilp_applicable && !options_.target) {
    // ILP candidate + lower bound, then certify with a bounded sweep.
    // (With a fixed target interconnect the routing constraint is not part
    // of the ILP, so fall through to pure Procedure 5.1 instead.)
    // The positive-orthant ILP is cheaper but sound only when Pi D > 0
    // forces every pi_i >= 1; otherwise go straight to the orthants.
    const bool positive = fusion != nullptr ? fusion->positive_orthant(d)
                                            : positive_orthant_forced(d);
    IlpMappingResult ilp;
    if (positive) {
      ilp = solve_k_equals_n_minus_1(algo, space, SignMode::kPositive);
    }
    if (!ilp.found) {
      ilp = solve_k_equals_n_minus_1(algo, space, SignMode::kOrthants);
    }
    solution.ilp_nodes = ilp.ilp_nodes;
    if (ilp.found) {
      if (ilp.objective == ilp.lower_bound) {
        // The verified candidate meets the relaxation bound: optimal.
        if (capped && ilp.objective > cap) {
          note_truncated();
          return solution;
        }
        solution.found = true;
        solution.pi = ilp.pi;
        solution.objective = ilp.objective;
        solution.makespan = ilp.objective + 1;
        solution.verdict = mapping::decide_conflict_free(
            mapping::MappingMatrix(space, ilp.pi), algo.index_set());
        solution.method_used = "ILP (5.1)-(5.2), bound-tight";
      } else {
        // Certify the gap [lower_bound, objective) by enumeration.  Under
        // an incumbent cap the sweep stops at the cap: a first hit at
        // g <= cap is the same first hit the full sweep finds, and no hit
        // with objective > cap proves the optimum (the smaller of the
        // first hit and the ILP objective) exceeds the cap.
        search_options.min_objective = ilp.lower_bound;
        search_options.max_objective =
            capped ? std::min(ilp.objective, cap) : ilp.objective;
        search_options.context = shared_context();
        SearchResult swept = procedure_5_1(algo, space, search_options);
        solution.candidates_tested = swept.candidates_tested;
        if (capped && !swept.found && ilp.objective > cap) {
          note_truncated();
          return solution;
        }
        solution.found = true;
        if (swept.found && swept.objective < ilp.objective) {
          solution.pi = swept.pi;
          solution.objective = swept.objective;
          solution.verdict = std::move(swept.verdict);
        } else {
          solution.pi = ilp.pi;
          solution.objective = ilp.objective;
          solution.verdict = mapping::decide_conflict_free(
              mapping::MappingMatrix(space, ilp.pi), algo.index_set());
        }
        solution.makespan = solution.objective + 1;
        solution.method_used = "ILP (5.1)-(5.2) + Procedure 5.1 certification";
      }
      finalize(algo, space, options_, solution);
      return solution;
    }
    // ILP found nothing verified; fall through to pure enumeration.
  }

  // Pure Procedure 5.1 (also the fall-through after an unverified ILP).
  // The schedule-orbit cache transfers one route-independent fact between
  // candidates with equal canonical_space_schedule_key: the certified
  // optimal objective f* of the full scan from level 1 (or its
  // nonexistence up to an exhausted bound).  A hit re-runs the search
  // seeded at min_objective = f* on the ACTUAL S -- same winner, verdict
  // and statistics as the cold scan, with every level below f* recovered
  // from the closed-form prefix counts instead of re-screened.
  search_options.context = shared_context();
  const bool orbit_usable = fusion != nullptr && fusion->use_orbit &&
                            !options_.target &&
                            fusion->prepare(algo, resolved_max);
  SearchResult result;
  bool resolved = false;
  std::optional<mapping::ConflictKey> orbit_key;
  if (orbit_usable) {
    orbit_key = mapping::canonical_space_schedule_key(space, set, d);
    const std::optional<Fusion::Entry> entry = fusion->lookup(*orbit_key);
    if (entry && entry->found) {
      if (entry->objective <= eff_max) {
        search_options.min_objective = entry->objective;
        SearchResult seeded = procedure_5_1(algo, space, search_options);
        SYSMAP_CONTRACT(seeded.found && seeded.objective == entry->objective,
                        "schedule-orbit entry promised an optimum at "
                            << entry->objective
                            << " but the seeded search disagreed");
        if (seeded.found && seeded.objective == entry->objective) {
          seeded.candidates_tested += fusion->below(entry->objective);
          result = std::move(seeded);
          resolved = true;
          fusion->seeded.fetch_add(1, std::memory_order_relaxed);
          SYSMAP_COUNT("search.pipeline.seeded_searches", 1);
        } else {
          // Defensive only (contract breach): fall back to the full scan.
          search_options.min_objective = 0;
        }
      } else {
        // The certified optimum lies beyond this call's bound: the cold
        // scan would exhaust every level up to eff_max and find nothing.
        result.candidates_tested = fusion->through(eff_max);
        resolved = true;
        if (capped && entry->objective > cap &&
            entry->objective <= resolved_max) {
          note_truncated();
        }
      }
    } else if (entry && !entry->found && eff_max <= entry->bound) {
      // Certified: no feasible Pi at any level <= entry->bound.
      result.candidates_tested = fusion->through(eff_max);
      resolved = true;
      if (capped && eff_max < resolved_max) {
        note_truncated();
      }
    }
  }
  if (!resolved) {
    result = procedure_5_1(algo, space, search_options);
    if (orbit_key) {
      fusion->store(*orbit_key, result.found, result.objective, eff_max);
    }
    if (capped && !result.found && eff_max < resolved_max) {
      note_truncated();
    }
  }

  solution.candidates_tested = result.candidates_tested;
  if (result.found) {
    solution.found = true;
    solution.pi = std::move(result.pi);
    solution.objective = result.objective;
    solution.makespan = result.makespan;
    solution.verdict = std::move(result.verdict);
    solution.method_used = "Procedure 5.1";
    finalize(algo, space, options_, solution);
  }
  return solution;
}

}  // namespace sysmap::search
