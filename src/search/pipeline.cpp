#include "search/pipeline.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
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
#include "support/flat_image_set.hpp"

namespace sysmap::search {

namespace {

/// Dependence matrices whose positive-orthant verdict a fused pipeline
/// remembers.
constexpr std::size_t kOrthantMemoCapacity = 16;

// cum[q] = the candidates of levels 1..q * stride (every level that is not
// a multiple of the stride is empty), q = 0..level / stride, summed from
// row 0 of the suffix counts -- never by enumeration, which is what lets
// a search that skips levels reproduce the cold scan's candidates_tested
// without walking them.  Empty when the table does not reach `level` or a
// sum saturates.
std::vector<std::uint64_t> level_prefix(const model::IndexSet& set,
                                        Int level) {
  SuffixCounts counts(set);
  if (!counts.grow(level)) return {};
  const Int stride = objective_level_stride(set);
  std::vector<std::uint64_t> cum(static_cast<std::size_t>(level / stride) + 1,
                                 0);
  for (std::size_t q = 1; q < cum.size(); ++q) {
    const std::uint64_t at = counts.at(0, static_cast<Int>(q) * stride);
    if (__builtin_add_overflow(cum[q - 1], at, &cum[q]) ||
        cum[q] == SuffixCounts::kSaturated) {
      return {};
    }
  }
  return cum;
}

// The pigeonhole start level of a full Procedure 5.1 scan: the first
// multiple of `stride` at or above F(S) - 1 (pipeline.hpp).  nullopt
// starts the scan at level 1: F(S) cannot lift it, the image box does not
// pack, |J| overflows a fiber count, the level lies beyond the count
// tables, or a candidate below it could overflow a delay Pi d_j -- there
// the cold scan's checked dependence test throws, and skipping the level
// must not hide that.  Every |Pi d_j| at a level <= f is at most
// sum_i floor(f / mu_i) |d_ij|.
std::optional<Int> pigeonhole_level(const model::IndexSet& set,
                                    const MatI& space, const MatI& d,
                                    Int stride) {
  // Walk J only when F(S) could lift the start above the first level.  A
  // fiber point is pinned by its coordinates outside a column basis of S,
  // so a full-row-rank S has F(S) <= the product of the n - rows(S)
  // largest mu_i + 1.  (A rank-deficient S admits no conflict-free T, so
  // its scan finds nothing from any start.)
  VecI extents = set.bounds();
  std::sort(extents.begin(), extents.end(), std::greater<>());
  Int most = 1;
  bool fits = true;
  for (std::size_t i = 0; fits && i + space.rows() < extents.size(); ++i) {
    Int factor = 0;
    fits = !__builtin_add_overflow(extents[i], 1, &factor) &&
           !__builtin_mul_overflow(most, factor, &most);
  }
  if (fits && most - 1 <= stride) return std::nullopt;
  const std::optional<Int> fiber = support::largest_fiber(set, space);
  if (!fiber || *fiber <= 1) return std::nullopt;
  const Int level = (*fiber - 2) / stride * stride + stride;
  if (level / stride > kMaxCountLevels) return std::nullopt;
  try {
    for (std::size_t c = 0; c < d.cols(); ++c) {
      Int delay = 0;
      for (std::size_t i = 0; i < set.dimension(); ++i) {
        delay = exact::add_checked(
            delay, exact::mul_checked((level - 1) / set.mu(i),
                                      exact::abs_checked(d(i, c))));
      }
    }
  } catch (const exact::OverflowError&) {
    return std::nullopt;
  }
  return level;
}

// Completes a found schedule with array design and optional simulation.
void finalize(const model::UniformDependenceAlgorithm& algo,
              const MatI& space, const PipelineOptions& options,
              MappingSolution& solution) {
  if (!solution.found) return;
#if SYSMAP_CONTRACTS_ACTIVE
  // Every route's winner honours the pigeonhole bound f* >= F(S) - 1.
  if (const std::optional<Int> fiber =
          support::largest_fiber(algo.index_set(), space)) {
    SYSMAP_CONTRACT(solution.objective >= *fiber - 1,
                    "objective " << solution.objective
                                 << " is below the pigeonhole bound F(S) - 1 = "
                                 << *fiber - 1);
  }
#endif
  if (!options.design_array) return;
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
// state sits behind one mutex (entries and their claims, prefix,
// signature); the searches themselves run outside the lock, so workers
// serialize only on the map probes.  Advisory counts go to the
// search.pipeline.* obs counters.
struct MappingPipeline::Fusion {
  struct Entry {
    bool found = false;
    Int objective = 0;  ///< certified optimum f* when found
    Int bound = 0;      ///< exhausted scan bound when not found
    bool scanning = false;  ///< a claim: the orbit's full scan is running
  };

  /// What a solve learns from the orbit map before it searches.
  struct Probe {
    std::optional<Entry> entry;  ///< the orbit's stored fact, if any
    bool claimed = false;        ///< no entry: this solve owns the scan
    bool busy = false;  ///< another solve is scanning the orbit (deferred)
  };

  /// Drops a claim whose scan ended without storing (a throw), and wakes
  /// every solve waiting on the orbit.
  class Claim {
   public:
    Claim(Fusion& fusion, const mapping::ConflictKey& key)
        : fusion_(&fusion), key_(&key) {}
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    ~Claim() {
      {
        std::lock_guard<std::mutex> lock(fusion_->mu);
        auto it = fusion_->entries.find(*key_);
        if (it != fusion_->entries.end() && it->second.scanning) {
          fusion_->entries.erase(it);
        }
      }
      fusion_->released.notify_all();
    }

   private:
    Fusion* fusion_;
    const mapping::ConflictKey* key_;
  };

  /// One solved rational row space, in a fixed-width record: the key is
  /// the row count and S's primitive RREF (mapping::row_space_key), the
  /// value the uncapped Procedure 5.1 answer that every S spanning it
  /// shares.  A space whose RREF or answer does not fit is not memoized.
  struct RowSpace {
    /// rows * n: two rows up to n = 6, three up to n = 4.
    static constexpr std::size_t kCells = 12;
    /// n, at most kCells / 2 since the memo serves two rows or more.
    static constexpr std::size_t kPi = kCells / 2;
    std::array<std::int8_t, kCells> cells{};  ///< RREF, row-major
    std::array<std::int8_t, kPi> pi{};
    std::uint8_t rows = 0;
    bool found = false;
    std::int32_t objective = 0;  ///< f* when found, else the bound
    std::uint32_t candidates = 0;

    bool same_space(const RowSpace& other) const {
      return rows == other.rows && cells == other.cells;
    }
    std::size_t hash() const {
      std::uint64_t h = 1469598103934665603ull ^ rows;  // FNV-1a
      for (std::int8_t v : cells) {
        h ^= static_cast<std::uint8_t>(v);
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };
  static_assert(sizeof(RowSpace) <= 28, "one memo record stays 28 bytes");

  /// Open-addressing set of RowSpace records: the records live in a
  /// chunked arena (std::deque, no per-entry heap node), the table holds
  /// their indices plus one, 0 marking an empty slot, at load <= 3/4.
  /// Measured on design_sweep, a std::unordered_map memo keyed by the
  /// RREF raised peak RSS by 17 % over the memo-free build, these records
  /// by 3-5 % (docs/PERF.md).
  class RowSpaceMemo {
   public:
    const RowSpace* find(const RowSpace& key) const {
      if (slots_.empty()) return nullptr;
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = key.hash() & mask; slots_[i] != 0;
           i = (i + 1) & mask) {
        const RowSpace& record = records_[slots_[i] - 1];
        if (record.same_space(key)) return &record;
      }
      return nullptr;
    }

    /// First writer wins: every writer of one row space stores the same
    /// answer.
    void insert(const RowSpace& record) {
      if (find(record) != nullptr) return;
      if (4 * (records_.size() + 1) > 3 * slots_.size()) {
        grow(std::max<std::size_t>(64, 2 * slots_.size()));
      }
      records_.push_back(record);
      place(static_cast<std::uint32_t>(records_.size()));
    }

    void clear() {
      records_ = {};
      slots_ = {};
    }

   private:
    void place(std::uint32_t index) {
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = records_[index - 1].hash() & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = index;
    }

    void grow(std::size_t size) {
      slots_.assign(size, 0);
      for (std::size_t r = 0; r < records_.size(); ++r) {
        place(static_cast<std::uint32_t>(r + 1));
      }
    }

    std::deque<RowSpace> records_;
    std::vector<std::uint32_t> slots_;
  };

  /// S's record with no answer yet; nullopt when S has no row-space key
  /// (rank-deficient, or an overflow) or the key or Pi would not fit.
  static std::optional<RowSpace> row_space_of(const MatI& space) {
    if (space.rows() * space.cols() > RowSpace::kCells ||
        space.cols() > RowSpace::kPi) {
      return std::nullopt;
    }
    thread_local std::vector<Int> rref;
    if (!mapping::row_space_key(space, rref)) return std::nullopt;
    RowSpace out;
    out.rows = static_cast<std::uint8_t>(space.rows());
    for (std::size_t i = 0; i < rref.size(); ++i) {
      if (!std::in_range<std::int8_t>(rref[i])) return std::nullopt;
      out.cells[i] = static_cast<std::int8_t>(rref[i]);
    }
    return out;
  }

  /// Fills in the answer of a solve; false when a value does not fit.
  static bool record_answer(const SearchResult& result, Int bound,
                            RowSpace& record) {
    const Int objective = result.found ? result.objective : bound;
    if (!std::in_range<std::int32_t>(objective) ||
        !std::in_range<std::uint32_t>(result.candidates_tested)) {
      return false;
    }
    for (std::size_t i = 0; result.found && i < result.pi.size(); ++i) {
      if (!std::in_range<std::int8_t>(result.pi[i])) return false;
      record.pi[i] = static_cast<std::int8_t>(result.pi[i]);
    }
    record.found = result.found;
    record.objective = static_cast<std::int32_t>(objective);
    record.candidates = static_cast<std::uint32_t>(result.candidates_tested);
    return true;
  }

  /// What prepare() anchors a solve to.
  struct Anchor {
    /// The schedule-orbit canonicalizer, or null when the orbit cache
    /// stands down for this algorithm and bound.
    std::shared_ptr<const mapping::SpaceOrbitCanonicalizer> orbit;
    /// Bumped at every re-anchor, so a solve never reads or writes the
    /// row-space memo of another algorithm.
    std::uint64_t generation = 0;
  };

  std::mutex mu;
  std::condition_variable released;
  bool ready = false;
  bool prefix_ok = false;
  std::uint64_t generation = 0;
  std::vector<Int> sig;  ///< n, extents, dependence matrix -- resets state
  /// Schedule-orbit keys of the anchored algorithm.  Shared, so a solve
  /// keeps its own algorithm's canonicalizer while another re-anchors.
  std::shared_ptr<const mapping::SpaceOrbitCanonicalizer> schedule_orbit;
  Int stride = 1;  ///< objective_level_stride of the anchored index set
  std::vector<std::uint64_t> cum;
  std::unordered_map<mapping::ConflictKey, Entry, mapping::ConflictKeyHash>
      entries;
  RowSpaceMemo row_spaces;
  /// positive_orthant_forced per dependence matrix, so the fused ILP route
  /// pays its cone LPs once per D, not once per query.
  std::vector<std::pair<MatI, bool>> orthant_forced;

  /// (Re)anchors the per-algorithm state; the anchor carries the
  /// algorithm's schedule-orbit canonicalizer when the orbit cache (and
  /// its stats-reproducing prefix) is usable for this algorithm + bound.
  Anchor prepare(const model::UniformDependenceAlgorithm& algo,
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
      row_spaces.clear();
      ++generation;
      schedule_orbit =
          std::make_shared<const mapping::SpaceOrbitCanonicalizer>(set, d);
      // A bound the prefix table does not fit, or a count that overflows
      // uint64, stands the cache down.
      stride = objective_level_stride(set);
      cum = level_prefix(set, resolved_max);
      prefix_ok = !cum.empty();
      ready = true;
    }
    return {prefix_ok ? schedule_orbit : nullptr, generation};
  }

  /// The stored answer for `key`'s row space under the anchor
  /// `generation`, if any.
  std::optional<RowSpace> recall(const RowSpace& key,
                                 std::uint64_t anchored) {
    std::lock_guard<std::mutex> lock(mu);
    if (anchored != generation) return std::nullopt;
    const RowSpace* hit = row_spaces.find(key);
    if (hit == nullptr) return std::nullopt;
    return *hit;
  }

  void remember(const RowSpace& record, std::uint64_t anchored) {
    std::lock_guard<std::mutex> lock(mu);
    if (anchored == generation) row_spaces.insert(record);
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

  /// The orbit's entry when one is stored (a hit); otherwise the caller
  /// claims the orbit's scan (a miss).  An orbit another solve is scanning
  /// is waited for -- or, with `may_defer`, reported busy at once.
  Probe probe(const mapping::ConflictKey& key, bool may_defer) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      auto [it, inserted] = entries.try_emplace(key);
      Probe out;
      if (inserted) {
        SYSMAP_COUNT("search.pipeline.orbit_misses", 1);
        it->second.scanning = true;
        out.claimed = true;
        return out;
      }
      if (!it->second.scanning) {
        SYSMAP_COUNT("search.pipeline.orbit_hits", 1);
        out.entry = it->second;
        return out;
      }
      if (may_defer) {
        SYSMAP_COUNT("search.pipeline.orbit_deferrals", 1);
        out.busy = true;
        return out;
      }
      released.wait(lock);
    }
  }

  /// Enters an orbit whose answer the row-space memo already holds: the
  /// orbit's first solve stores that answer, as its scan would have, and
  /// counts the miss; a known or claimed orbit is left as it is.  So the
  /// misses count the orbits entered, whatever the thread count.
  void enter(const mapping::ConflictKey& key, bool found, Int objective,
             Int bound) {
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = entries.try_emplace(key);
    if (!inserted) return;
    SYSMAP_COUNT("search.pipeline.orbit_misses", 1);
    it->second.found = found;
    it->second.objective = objective;
    it->second.bound = bound;
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
    if (cur.scanning || e.found) {
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

void MappingPipeline::enable_fusion(const FusionOptions& /*fusion*/) {
  fusion_ = std::make_unique<Fusion>();
}

MappingSolution MappingPipeline::find_time_optimal(
    const model::UniformDependenceAlgorithm& algo, const MatI& space) const {
  SYSMAP_COUNT("search.pipeline.solves", 1);
  return *solve(algo, space, /*fusion=*/nullptr, kNoCap, nullptr, false);
}

MappingSolution MappingPipeline::score(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    Int cap) const {
  SYSMAP_COUNT("search.pipeline.solves", 1);
  return *solve(algo, space, fusion_.get(), cap, nullptr, false);
}

std::variant<MappingSolution, MappingPipeline::Deferred>
MappingPipeline::try_score(const model::UniformDependenceAlgorithm& algo,
                           const MatI& space, Int cap) const {
  std::optional<mapping::ConflictKey> key;
  std::optional<MappingSolution> solution =
      solve(algo, space, fusion_.get(), cap, &key, /*may_defer=*/true);
  if (!solution) return Deferred{space, std::move(*key)};
  SYSMAP_COUNT("search.pipeline.solves", 1);
  return std::move(*solution);
}

MappingSolution MappingPipeline::resume(
    const model::UniformDependenceAlgorithm& algo, const Deferred& deferred,
    Int cap) const {
  SYSMAP_COUNT("search.pipeline.solves", 1);
  std::optional<mapping::ConflictKey> key = deferred.orbit_key;
  return *solve(algo, deferred.space, fusion_.get(), cap, &key, false);
}

std::optional<MappingSolution> MappingPipeline::solve(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    Fusion* fusion, Int cap, std::optional<mapping::ConflictKey>* orbit_key,
    bool may_defer) const {
  SYSMAP_SPAN("search.pipeline.solve");
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

  // Single site for the incumbent-cap verdict: marks the solution and
  // feeds the obs counter.  (A cap without fusion is legal --
  // find_time_optimal callers never cap, but score() on a pipeline
  // without enable_fusion() may.)
  auto note_truncated = [&solution] {
    solution.truncated_by_cap = true;
    SYSMAP_COUNT("search.pipeline.truncated_by_cap", 1);
  };

  SearchOptions search_options;
  search_options.target = options_.target;
  search_options.max_objective = eff_max;

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
  // Two fused memos answer it before a scan.  The row-space memo first:
  // an uncapped solve of a multi-row S whose rational row space an earlier
  // solve answered takes that answer whole -- found, Pi, objective and
  // candidates_tested -- and recomputes only the verdict, with one screen
  // of Pi on the actual S.  Feasibility of Pi (Pi D > 0, rank [S; Pi] = k,
  // conflict-freedom: the conflict vectors are the primitive gamma with
  // S gamma = 0 and Pi gamma = 0) depends on S only through its row space,
  // and so do F(S) and the pigeonhole start; the cone walk never reads S.
  // So the walk, its first hit and its count are the same for every S of
  // the class.  Only the witness and the array read S itself.  The memo
  // stands down under a cap, a target (routing reads S D), after the ILP
  // route ran, and for one-row S (the sweeps never repeat a row).
  // Then the schedule-orbit cache, which transfers one route-independent
  // fact between candidates with equal schedule-orbit keys
  // (SpaceOrbitCanonicalizer): the certified optimal objective f* of the
  // full scan (or its nonexistence up to an exhausted bound).  A hit
  // re-runs the search seeded at min_objective = f* on the ACTUAL S --
  // same winner, verdict and statistics as the cold scan, with every level
  // below f* recovered from the closed-form prefix counts instead of
  // re-screened.
  std::shared_ptr<const mapping::SpaceOrbitCanonicalizer> orbit;
  std::uint64_t generation = 0;
  std::optional<Fusion::RowSpace> row_space;
  if (fusion != nullptr && !options_.target) {
    Fusion::Anchor anchor = fusion->prepare(algo, resolved_max);
    orbit = std::move(anchor.orbit);
    generation = anchor.generation;
    const bool ilp_ran = use_ilp && ilp_applicable;
    if (!capped && !ilp_ran && space.rows() >= 2 && k <= n) {
      row_space = Fusion::row_space_of(space);
    }
  }
  std::optional<mapping::ConflictKey> own_key;
  if (orbit_key == nullptr) orbit_key = &own_key;
  if (row_space) {
    const std::optional<Fusion::RowSpace> hit =
        fusion->recall(*row_space, generation);
    // The hit enters S's schedule orbit with the answer, so the orbit's
    // later members hit it as they would after a scan.
    auto enter_orbit = [&] {
      if (!orbit) return;
      if (!*orbit_key) *orbit_key = orbit->key(space);
      fusion->enter(**orbit_key, hit->found, hit->objective, eff_max);
    };
    if (hit && !hit->found && hit->objective == eff_max) {
      SYSMAP_COUNT("search.pipeline.row_space_hits", 1);
      enter_orbit();
      solution.candidates_tested = hit->candidates;
      return solution;
    }
    if (hit && hit->found) {
      VecI pi(hit->pi.begin(),
              hit->pi.begin() + static_cast<std::ptrdiff_t>(n));
      std::optional<mapping::ConflictVerdict> verdict =
          shared_context()->screen(search_options.oracle, pi);
      SYSMAP_CONTRACT(verdict.has_value(),
                      "row-space memo promised Pi at "
                          << hit->objective << " but its screen rejected it");
      if (verdict) {
        SYSMAP_COUNT("search.pipeline.row_space_hits", 1);
        enter_orbit();
        solution.found = true;
        solution.pi = std::move(pi);
        solution.objective = hit->objective;
        solution.makespan = exact::add_checked(hit->objective, 1);
        solution.verdict = std::move(*verdict);
        solution.method_used = "Procedure 5.1";
        solution.candidates_tested = hit->candidates;
        finalize(algo, space, options_, solution);
        return solution;
      }
    }
  }
  std::optional<Fusion::Claim> claim;
  std::optional<Fusion::Entry> entry;
  if (orbit) {
    if (!*orbit_key) *orbit_key = orbit->key(space);
    Fusion::Probe probe = fusion->probe(**orbit_key, may_defer);
    if (probe.busy) return std::nullopt;
    if (probe.claimed) claim.emplace(*fusion, **orbit_key);
    entry = probe.entry;
  }
  search_options.context = shared_context();
  SearchResult result;
  bool resolved = false;
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
  if (!resolved) {
    // The full scan starts at the pigeonhole level; the candidates of the
    // skipped levels come from the prefix counts (the orbit's table when
    // fused, a local one otherwise).
    const Int stride = objective_level_stride(set);
    // (k > n is left to procedure_5_1, which rejects it.)
    const std::optional<Int> start =
        k <= n ? pigeonhole_level(set, space, d, stride) : std::nullopt;
    std::optional<std::uint64_t> skipped;
    if (start && *start > stride) {
      const Int last = std::min(*start - 1, eff_max);
      if (orbit) {
        skipped = fusion->through(last);
      } else if (std::vector<std::uint64_t> cum = level_prefix(set, last);
                 !cum.empty()) {
        skipped = cum.back();
      }
      if (skipped) {
        SYSMAP_COUNT("search.pipeline.pigeonhole_levels_skipped",
                     static_cast<std::uint64_t>(last / stride));
      }
    }
    if (skipped && *start > eff_max) {
      // No level up to eff_max can hold a conflict-free Pi: the scan would
      // exhaust them all and find nothing.
      result.candidates_tested = *skipped;
    } else {
      if (skipped) search_options.min_objective = *start;
      result = procedure_5_1(algo, space, search_options);
      if (skipped) result.candidates_tested += *skipped;
    }
    if (orbit) {
      fusion->store(**orbit_key, result.found, result.objective, eff_max);
    }
    if (capped && !result.found && eff_max < resolved_max) {
      note_truncated();
    }
  }
  // Stored before the claim drops, so a solve deferred on this orbit finds
  // the row space when it resumes.
  if (row_space && Fusion::record_answer(result, eff_max, *row_space)) {
    fusion->remember(*row_space, generation);
  }
  claim.reset();  // wakes the solves waiting for this orbit

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
