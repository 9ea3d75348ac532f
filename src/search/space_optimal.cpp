#include "search/space_optimal.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <variant>

#include "exact/checked.hpp"
#include "exact/contracts.hpp"
#include "exact/fastpath.hpp"
#include "lattice/kernel.hpp"
#include "linalg/ops.hpp"
#include "mapping/canonical_key.hpp"
#include "obs/obs.hpp"
#include "search/pipeline.hpp"
#include "support/flat_image_set.hpp"
#include "support/fork_join.hpp"

namespace sysmap::search {

namespace {

constexpr Int kNoIncumbent = std::numeric_limits<Int>::max();
/// Candidates per feed draw: about kChunksPerWorker draws per worker, so a
/// 40-space sweep still reaches every worker, and at most kMaxChunk.  A
/// sweep of at most kInlineSweep candidates is one chunk, and so runs
/// inline: thread start-up would cost more than its spaces.
constexpr std::uint64_t kMaxChunk = 16;
constexpr std::uint64_t kChunksPerWorker = 8;
constexpr std::uint64_t kInlineSweep = 4;
/// Spaces a worker may hold back while their schedule orbit is scanned
/// elsewhere; past this it finishes them, waiting for the scans.
constexpr std::size_t kMaxDeferred = 64;
/// Below this many index points the kernel-lattice injectivity test costs
/// more than the packed walk it would replace.
constexpr std::uint64_t kInjectivityMinPoints = 4096;

// All candidate rows: nonzero vectors in [-max_entry, max_entry]^n with
// positive first nonzero entry (a row and its negation give mirrored
// arrays) and relatively prime entries (a scaled row only multiplies the
// processor count).
std::vector<VecI> candidate_rows(std::size_t n, Int max_entry) {
  std::vector<VecI> rows;
  if (max_entry <= 0) return rows;
  const Int low = exact::neg_checked(max_entry);
  VecI v(n, low);
  for (;;) {
    bool nonzero = false;
    for (Int x : v) {
      if (x != 0) {
        nonzero = true;
        break;
      }
    }
    if (nonzero) {
      Int first = 0;
      for (Int x : v) {
        if (x != 0) {
          first = x;
          break;
        }
      }
      if (first > 0 && lattice::is_primitive(v)) rows.push_back(v);
    }
    std::size_t i = 0;
    for (; i < n; ++i) {
      if (v[i] < max_entry) {
        ++v[i];
        break;
      }
      v[i] = low;
    }
    if (i == n) break;
  }
  return rows;
}

// Shared input validation: Pi must have width n and respect Pi D > 0, and
// the index set must fit the enumeration budget.  The budget comparison is
// carried out in unsigned 64-bit; an index set whose size does not even
// fit int64 is over budget for every representable budget (the processor
// count is an Int).
void validate_problem61_inputs(const model::UniformDependenceAlgorithm& algo,
                               const VecI& pi,
                               const SpaceSearchOptions& options) {
  if (pi.size() != algo.dimension()) {
    throw std::invalid_argument("space_optimal_mapping: Pi width");
  }
  schedule::LinearSchedule sched(pi);
  if (!sched.respects_dependences(algo.dependence_matrix())) {
    throw std::invalid_argument(
        "space_optimal_mapping: Pi violates Pi D > 0");
  }
  bool over_budget = false;
  try {
    over_budget = algo.index_set().size_u64() > options.enumeration_budget;
  } catch (const exact::OverflowError&) {
    over_budget = true;
  }
  if (over_budget) {
    throw std::invalid_argument(
        "space_optimal_mapping: index set exceeds enumeration budget");
  }
}

// BigInt restart for the wire-length sum: recomputes sum_i L1(S d_i) in
// arbitrary precision and narrows, so callers only see OverflowError when
// the TRUE total does not fit int64 (all terms are nonnegative, so an
// intermediate int64 overflow implies the final value overflows too).
Int wire_length_bigint(const MatI& space, const MatI& dependence) {
  exact::BigInt acc(0);
  for (std::size_t c = 0; c < dependence.cols(); ++c) {
    for (std::size_t r = 0; r < space.rows(); ++r) {
      exact::BigInt dot(0);
      for (std::size_t j = 0; j < space.cols(); ++j) {
        dot += exact::BigInt(space(r, j)) * exact::BigInt(dependence(j, c));
      }
      acc += dot.abs();
    }
  }
  return acc.to_int64();
}

// SYSMAP_RAW_FASTPATH(fallback: wire_length_bigint)
// Fused displacement product + L1 accumulation for the wire-length term,
// one __builtin overflow check per operation; any overflow restarts the
// whole sum through the BigInt path above.  (The seed computed the
// displacement matrix with unchecked operator* -- this path also closes
// that latent overflow hole.)
Int wire_length_sum(const MatI& space, const MatI& dependence) {
  Int acc = 0;
  for (std::size_t c = 0; c < dependence.cols(); ++c) {
    for (std::size_t r = 0; r < space.rows(); ++r) {
      Int dot = 0;
      for (std::size_t j = 0; j < space.cols(); ++j) {
        Int term = 0;
        if (__builtin_mul_overflow(space(r, j), dependence(j, c), &term) ||
            __builtin_add_overflow(dot, term, &dot)) {
          return wire_length_bigint(space, dependence);
        }
      }
      if (dot == std::numeric_limits<Int>::min()) {
        return wire_length_bigint(space, dependence);
      }
      const Int mag = dot < 0 ? -dot : dot;
      if (__builtin_add_overflow(acc, mag, &acc)) {
        return wire_length_bigint(space, dependence);
      }
    }
  }
  return acc;
}

// SYSMAP_RAW_FASTPATH(bounded: every sum that could overflow is guarded by
// a __builtin overflow check whose trip SATURATES the bound -- a saturated
// lower bound is still a valid lower bound, never an unsound one)
//
// Per-row processor lower bound.  Walking the box along a Hamiltonian
// snake path changes each image coordinate by at most amax_r =
// max_j |s_rj| per step, so row r's image is amax_r-dense in
// [min_r, max_r]: the row alone already has at least
// ceil(range_r / amax_r) + 1 distinct values, and the full image has at
// least max_r of these (a projection cannot have more points than its
// source).  Used to prune candidates whose wire + bound already exceeds
// the incumbent strictly.
Int processor_lower_bound(const MatI& space, const model::IndexSet& set) {
  Int best = 1;
  for (std::size_t r = 0; r < space.rows(); ++r) {
    Int lo = 0;
    Int hi = 0;
    Int amax = 0;
    bool ok = true;
    for (std::size_t j = 0; j < space.cols() && ok; ++j) {
      const Int s = space(r, j);
      if (s == std::numeric_limits<Int>::min()) {
        ok = false;
        break;
      }
      const Int mag = s < 0 ? -s : s;
      if (mag > amax) amax = mag;
      Int term = 0;
      if (__builtin_mul_overflow(s, set.mu(j), &term)) {
        ok = false;
        break;
      }
      if (s < 0) {
        ok = __builtin_add_overflow(lo, term, &lo) ? false : ok;
      } else if (s > 0) {
        ok = __builtin_add_overflow(hi, term, &hi) ? false : ok;
      }
    }
    if (!ok || amax == 0) continue;
    Int range = 0;
    if (__builtin_sub_overflow(hi, lo, &range)) continue;
    const Int q = range / amax;
    Int bound = 0;
    if (__builtin_add_overflow(q, range % amax != 0 ? Int{2} : Int{1},
                               &bound)) {
      bound = std::numeric_limits<Int>::max();
    }
    if (bound > best) best = bound;
  }
  return best;
}

// SYSMAP_RAW_FASTPATH(bounded: a + b of two nonnegative cost terms; the
// overflow branch reports "exceeds" which is exact for nonnegative terms)
bool exceeds_strictly(Int a, Int b, Int bound) {
  Int sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) return true;
  return sum > bound;
}

// True when S is injective on the box, i.e. no nonzero integer kernel
// vector of S lies in the difference box [-mu, mu]^n -- then the image
// count is |J| with no enumeration at all.  False means "not proven"
// (genuinely non-injective, kernel machinery unavailable, or over its
// enumeration budget); callers fall back to the walk either way, so this
// is a pure shortcut with no correctness weight.
bool injective_on_box(const model::IndexSet& set, const MatI& space) {
  const std::size_t n = set.dimension();
  if (space.rows() >= n) return true;  // square full-rank candidate
  MatZ kernel;
  try {
    kernel = lattice::kernel_basis(space);
  } catch (const std::exception&) {
    return false;
  }
  // A basis column already inside the difference box certifies
  // NON-injectivity without any enumeration.
  for (std::size_t c = 0; c < kernel.cols(); ++c) {
    bool inside = true;
    for (std::size_t r = 0; r < n && inside; ++r) {
      if (kernel(r, c).abs() > exact::BigInt(set.mu(r))) inside = false;
    }
    if (inside) return false;
  }
  return mapping::decide_conflict_free_over_basis(kernel, set)
      .conflict_free();
}

// Exact processor counts by cost-orbit key, shared by a sweep's workers.
// Every writer for a key computes the same count (the key proves the
// counts equal), so the first writer wins and a hit is bit-identical to
// recounting: no result depends on how the workers interleave.
class OrbitCounts {
 public:
  std::optional<Int> lookup(const mapping::ConflictKey& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counts_.find(key);
    if (it == counts_.end()) return std::nullopt;
    return it->second;
  }

  void insert(const mapping::ConflictKey& key, Int count) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.emplace(key, count);
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<mapping::ConflictKey, Int, mapping::ConflictKeyHash>
      counts_;
};

// Per-worker processor-count evaluator: orbit-memo lookup, injectivity
// shortcut, then support::count_images on one reused flat table (which
// falls back to the std::set walk by itself when a box does not pack).
// Every path computes the same exact count; only speed and the
// search.space.* counters differ.
class ProcessorCounter {
 public:
  ProcessorCounter(const model::IndexSet& set, std::uint64_t points,
                   bool points_known, OrbitCounts& counts,
                   const mapping::SpaceOrbitCanonicalizer& orbit)
      : set_(&set),
        points_(points),
        points_known_(points_known),
        counts_(&counts),
        orbit_(&orbit),
        images_(points_known ? static_cast<std::size_t>(
                                   std::min<std::uint64_t>(points, 1u << 20))
                             : 64) {}

  /// Exact |{S j}|, or nullopt when `exit_above >= 0` and the walk proved
  /// count > exit_above (candidate strictly loses).
  std::optional<Int> count(const MatI& space, Int exit_above) {
    const mapping::ConflictKey orbit_key = orbit_->key(space);
    if (std::optional<Int> hit = counts_->lookup(orbit_key)) {
      SYSMAP_COUNT("search.space.orbit_hits", 1);
      return *hit;
    }
    const std::optional<support::ImagePacking> packing =
        support::ImagePacking::build(space, *set_);
    Int exact_count = 0;
    if (packing && points_known_ && points_ >= kInjectivityMinPoints &&
        packing->product >= points_ && injective_on_box(*set_, space)) {
      SYSMAP_COUNT("search.space.injective_shortcuts", 1);
      exact_count = static_cast<Int>(points_);
    } else {
      exact_count =
          support::count_images(*set_, space, packing, images_, exit_above);
      if (exact_count < 0) return std::nullopt;  // early exit: loses
    }
    counts_->insert(orbit_key, exact_count);
    return exact_count;
  }

  /// The exact array cost of S, never cut short.
  ArrayCost cost(const MatI& space, const MatI& dependence) {
    ArrayCost out;
    out.processors = *count(space, /*exit_above=*/-1);
    out.wire_length = wire_length_sum(space, dependence);
    return out;
  }

 private:
  const model::IndexSet* set_;
  std::uint64_t points_;
  bool points_known_;
  OrbitCounts* counts_;
  const mapping::SpaceOrbitCanonicalizer* orbit_;
  support::FlatImageSet images_;
};

void atomic_fetch_min(std::atomic<Int>& target, Int value) {
  Int cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

// A contiguous slice of the global candidate stream; `base` is the global
// position of spaces[0].  Buffers persist across draws.
struct SpaceChunk {
  std::uint64_t base = 0;
  std::size_t len = 0;
  std::vector<MatI> spaces;
};

// The shared lazy candidate source: one SpaceEnumerator behind a mutex,
// handing out chunks with consecutive global positions -- the exact order
// the serial sweep visits.
class SpaceFeed {
 public:
  SpaceFeed(std::size_t n, const SpaceSearchOptions& options)
      : enumerator_(n, options) {}

  bool draw(std::size_t chunk_size, SpaceChunk& out) {
    std::lock_guard<std::mutex> lock(mu_);
    out.base = enumerator_.produced();
    out.len = 0;
    if (out.spaces.size() < chunk_size) out.spaces.resize(chunk_size);
    while (out.len < chunk_size) {
      if (!enumerator_.next(out.spaces[out.len])) break;
      ++out.len;
    }
    return out.len > 0;
  }

  /// Upper bound on the candidates the feed hands out.
  std::uint64_t max_candidates() {
    std::lock_guard<std::mutex> lock(mu_);
    return enumerator_.max_candidates();
  }

  /// Total candidates handed out; call only after the sweep has joined.
  std::uint64_t produced() {
    std::lock_guard<std::mutex> lock(mu_);
    return enumerator_.produced();
  }

 private:
  std::mutex mu_;
  SpaceEnumerator enumerator_;
};

// A sweep incumbent: the lexicographic minimum of (objective, total,
// processors, global position) over the candidates offered to it --
// exactly the seeds' "strictly smaller objective, then strictly smaller
// total, then strictly fewer processors, first seen wins" update order.
// Problem 6.1 holds Pi fixed and leaves the objective at 0.
struct Incumbent {
  bool found = false;
  Int objective = 0;
  Int total = 0;
  std::uint64_t pos = 0;
  MatI space;
  VecI pi;
  Int makespan = 0;
  ArrayCost cost;
  mapping::ConflictVerdict verdict;

  Incumbent() = default;
  Incumbent(std::uint64_t at, const MatI& s, const ArrayCost& c)
      : found(true),
        total(exact::add_checked(c.processors, c.wire_length)),
        pos(at),
        space(s),
        cost(c) {}

  bool better_than(const Incumbent& other) const {
    if (objective != other.objective) return objective < other.objective;
    if (total != other.total) return total < other.total;
    if (cost.processors != other.cost.processors) {
      return cost.processors < other.cost.processors;
    }
    return pos < other.pos;
  }

  void offer(Incumbent&& candidate) {
    if (!found || candidate.better_than(*this)) *this = std::move(candidate);
  }
};

// The deterministic reduction of per-worker incumbents.
Incumbent best_of(std::vector<Incumbent>& locals) {
  Incumbent best;
  for (Incumbent& local : locals) {
    if (local.found) best.offer(std::move(local));
  }
  return best;
}

// Pareto filter on (makespan, cost.total()), sorted by makespan.  The
// sort is unstable, so tied orderings are bit-identical across engines
// only because both feed it the serial visit order.
std::vector<DesignPoint> pareto_filter(std::vector<DesignPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.makespan != b.makespan) return a.makespan < b.makespan;
              return a.cost.total() < b.cost.total();
            });
  std::vector<DesignPoint> front;
  for (DesignPoint& p : points) {
    // Keeping only strictly cheaper points also drops duplicate
    // (makespan, cost) pairs.
    if (front.empty() || p.cost.total() < front.back().cost.total()) {
      front.push_back(std::move(p));
    }
  }
  return front;
}

// One fused pipeline persists across every candidate space of a Problem
// 6.2 sweep: schedule-orbit objective reuse and the positive-orthant memo
// are shared, nothing else is.  Array design is off -- the sweeps consume
// only the schedule of each space.
std::unique_ptr<MappingPipeline> fused_pipeline() {
  PipelineOptions fused;
  fused.design_array = false;
  auto pipeline = std::make_unique<MappingPipeline>(fused);
  pipeline->enable_fusion({});
  return pipeline;
}

// Runs one scoring call; nullopt when the pipeline rejects the space as
// degenerate.  A ContractViolation is a library bug, not a degenerate
// candidate, so it propagates.
template <typename Score>
auto unless_degenerate(const Score& score)
    -> std::optional<decltype(score())> {
  try {
    return score();
  } catch (const exact::ContractViolation&) {
    throw;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// How a Problem 6.2 sweep scores its spaces: one fused pipeline and, for
// the joint query, the best objective found so far as an inclusive cap.
// A sweep without a pipeline (Problem 6.1) scores nothing.
struct Scoring {
  const MappingPipeline* pipeline = nullptr;
  const std::atomic<Int>* incumbent = nullptr;

  Int cap() const {
    if (incumbent == nullptr) return MappingPipeline::kNoCap;
    const Int best = incumbent->load(std::memory_order_relaxed);
    return best == kNoIncumbent ? MappingPipeline::kNoCap : best;
  }
};

// One sweep's per-worker states plus the candidates the feed handed out.
template <typename State>
struct Sweep {
  std::uint64_t candidates = 0;
  std::vector<State> workers;
};

// The one Problem 6.1/6.2 driver: a shared lazy SpaceFeed, one shared
// orbit-count memo, one ProcessorCounter and State per worker, run
// inline when the sweep is one chunk or num_threads <= 1, and otherwise
// as one support::fork_join of at most one worker per chunk.
// `visit(state, counter, space, pos, solution)` sees every candidate
// exactly once; `pos` is its index in the serial visit order, which is
// what the callers' reductions use to reproduce the serial result, and
// `solution` is its score (nullopt for a degenerate space, or when the
// sweep scores nothing).  A space whose schedule orbit another worker is
// scanning is deferred (MappingPipeline::try_score) and visited, as an
// orbit hit, once the feed runs dry -- so every orbit is scanned once
// and no worker idles behind another's scan.
template <typename State, typename Visit>
Sweep<State> run_sweep(const model::UniformDependenceAlgorithm& algo,
                       const SpaceSearchOptions& options,
                       const Scoring& scoring, const Visit& visit) {
  const model::IndexSet& set = algo.index_set();
  std::uint64_t points = 0;
  bool points_known = true;
  try {
    points = set.size_u64();
  } catch (const exact::OverflowError&) {
    points_known = false;  // disables the injectivity compare only
  }
  OrbitCounts counts;
  const mapping::SpaceOrbitCanonicalizer orbit(set);
  SpaceFeed feed(algo.dimension(), options);
  const std::uint64_t most = std::max<std::uint64_t>(feed.max_candidates(), 1);
  const std::uint64_t threads =
      std::max<std::uint64_t>(options.num_threads, 1);
  const std::uint64_t chunk =
      most <= kInlineSweep
          ? most
          : std::clamp<std::uint64_t>(most / (kChunksPerWorker * threads), 1,
                                      kMaxChunk);
  Sweep<State> sweep;
  sweep.workers.resize(
      static_cast<std::size_t>(std::min(threads, (most - 1) / chunk + 1)));

  support::fork_join(sweep.workers.size(), [&](std::size_t w) {
    State& state = sweep.workers[w];
    ProcessorCounter counter(set, points, points_known, counts, orbit);
    std::vector<std::pair<std::uint64_t, MappingPipeline::Deferred>> later;
    auto finish_deferred = [&] {
      for (auto& [pos, deferred] : later) {
        visit(state, counter, deferred.space, pos, unless_degenerate([&] {
                return scoring.pipeline->resume(algo, deferred,
                                                scoring.cap());
              }));
      }
      later.clear();
    };
    SpaceChunk draw;
    while (feed.draw(static_cast<std::size_t>(chunk), draw)) {
      for (std::size_t i = 0; i < draw.len; ++i) {
        const MatI& space = draw.spaces[i];
        const std::uint64_t pos = draw.base + i;
        if (scoring.pipeline == nullptr) {
          visit(state, counter, space, pos, std::nullopt);
          continue;
        }
        auto scored = unless_degenerate([&] {
          return scoring.pipeline->try_score(algo, space, scoring.cap());
        });
        if (!scored) {
          visit(state, counter, space, pos, std::nullopt);
        } else if (auto* deferred =
                       std::get_if<MappingPipeline::Deferred>(&*scored)) {
          later.emplace_back(pos, std::move(*deferred));
          if (later.size() >= kMaxDeferred) finish_deferred();
        } else {
          visit(state, counter, space, pos,
                std::get<MappingSolution>(std::move(*scored)));
        }
      }
    }
    finish_deferred();
  });
  sweep.candidates = feed.produced();
  return sweep;
}

}  // namespace

// ---- lazy candidate enumeration -------------------------------------------

// SYSMAP_RAW_FASTPATH(bounded: each product of two int64 entries has
// magnitude at most 2^126, so it is exact in __int128, and the minor is
// decided by comparing the two products, never by subtracting them)
// Two rows are the sweeps' common case, and there the minors beat the
// checked elimination, which allocates per call: candidate_spaces(5,
// dims 2) ran 1.7-3x faster (0.56 ms against 0.95-1.66 ms, docs/PERF.md).
std::size_t space_rank(const MatI& space) {
  if (space.rows() == 2) {
    // Rank 2 exactly when some 2 x 2 minor is nonzero; else 1 unless S = 0.
    const std::size_t n = space.cols();
    bool nonzero = false;
    for (std::size_t a = 0; a < n; ++a) {
      nonzero = nonzero || space(0, a) != 0 || space(1, a) != 0;
      for (std::size_t b = a + 1; b < n; ++b) {
        const __int128 left = static_cast<__int128>(space(0, a)) * space(1, b);
        const __int128 right = static_cast<__int128>(space(0, b)) * space(1, a);
        if (left != right) return 2;
      }
    }
    return nonzero ? 1 : 0;
  }
  return exact::with_fallback(
      [&] { return linalg::rank(to_checked(space)); },
      [&] { return linalg::rank(to_bigint(space)); });
}

SpaceEnumerator::SpaceEnumerator(std::size_t n,
                                 const SpaceSearchOptions& options)
    : rows_(candidate_rows(n, options.max_entry)),
      n_(n),
      dims_(options.array_dims),
      idx_(options.array_dims, 0) {
  for (std::size_t p = 0; p < dims_; ++p) idx_[p] = p;
  if (dims_ > rows_.size()) done_ = true;
}

bool SpaceEnumerator::advance_indices() {
  // Next strictly-increasing combination in lexicographic order (the order
  // the seed's recursive builder visits).
  if (dims_ == 0) return false;  // the single empty combination is spent
  std::size_t p = dims_;
  while (p > 0) {
    --p;
    if (idx_[p] + 1 <= rows_.size() - (dims_ - p)) {
      ++idx_[p];
      for (std::size_t q = p + 1; q < dims_; ++q) idx_[q] = idx_[q - 1] + 1;
      return true;
    }
  }
  return false;
}

bool SpaceEnumerator::next(MatI& out) {
  if (done_) return false;
  for (;;) {
    if (started_) {
      if (!advance_indices()) {
        done_ = true;
        return false;
      }
    } else {
      started_ = true;
    }
    MatI candidate(dims_, n_);
    for (std::size_t r = 0; r < dims_; ++r) {
      for (std::size_t c = 0; c < n_; ++c) {
        candidate(r, c) = rows_[idx_[r]][c];
      }
    }
    // Rank filter identical to the seed's: rows are nonzero and primitive,
    // so a single row always has rank 1; taller stacks get the exact rank
    // on machine words.
    if (dims_ > 1 && space_rank(candidate) != dims_) continue;
    out = std::move(candidate);
    ++produced_;
    return true;
  }
}

std::uint64_t SpaceEnumerator::max_candidates() const {
  // C(pool, dims), saturating; each step's product is exact in 128 bits
  // while the running count stays at or below 2^64.
  const std::uint64_t pool = rows_.size();
  if (dims_ > pool) return 0;
  unsigned __int128 c = 1;
  for (std::uint64_t i = 0; i < dims_; ++i) {
    c = c * (pool - i) / (i + 1);
    if (c > std::numeric_limits<std::uint64_t>::max()) {
      return std::numeric_limits<std::uint64_t>::max();
    }
  }
  return static_cast<std::uint64_t>(c);
}

std::vector<MatI> candidate_spaces(std::size_t n,
                                   const SpaceSearchOptions& options) {
  SpaceEnumerator enumerator(n, options);
  std::vector<MatI> out;
  MatI candidate;
  while (enumerator.next(candidate)) out.push_back(candidate);
  return out;
}

// ---- cost model ------------------------------------------------------------

ArrayCost evaluate_array_cost(const model::UniformDependenceAlgorithm& algo,
                              const MatI& space) {
  ArrayCost cost;
  cost.processors = support::count_images_generic(algo.index_set(), space);
  cost.wire_length = wire_length_sum(space, algo.dependence_matrix());
  return cost;
}

Int count_processor_images(const model::IndexSet& set, const MatI& space) {
  return support::count_images(set, space);
}

// ---- Problem 6.1: seed engine (parity oracle) ------------------------------

SpaceSearchResult space_optimal_mapping_seed(
    const model::UniformDependenceAlgorithm& algo, const VecI& pi,
    const SpaceSearchOptions& options) {
  const std::size_t n = algo.dimension();
  validate_problem61_inputs(algo, pi, options);

  SpaceSearchResult best;
  for (const MatI& space : candidate_spaces(n, options)) {
    ++best.candidates_tested;
    mapping::MappingMatrix t(space, pi);
    if (!t.has_full_rank()) continue;
    mapping::ConflictVerdict verdict =
        mapping::decide_conflict_free(t, algo.index_set());
    if (!verdict.conflict_free()) continue;
    ArrayCost cost = evaluate_array_cost(algo, space);
    if (!best.found || cost.total() < best.cost.total() ||
        (cost.total() == best.cost.total() &&
         cost.processors < best.cost.processors)) {
      best.found = true;
      best.space = space;
      best.cost = cost;
      best.verdict = verdict;
    }
  }
  return best;
}

// ---- Problem 6.1: fast engine ----------------------------------------------

SpaceSearchResult space_optimal_mapping(
    const model::UniformDependenceAlgorithm& algo, const VecI& pi,
    const SpaceSearchOptions& options) {
  SYSMAP_SPAN("search.space.space_optimal_mapping");
  validate_problem61_inputs(algo, pi, options);
  const model::IndexSet& set = algo.index_set();
  const MatI& dependence = algo.dependence_matrix();
  std::atomic<Int> best_total{kNoIncumbent};

  Sweep<Incumbent> sweep = run_sweep<Incumbent>(
      algo, options, Scoring{},
      [&](Incumbent& local, ProcessorCounter& counter, const MatI& space,
          std::uint64_t pos, std::optional<MappingSolution>) {
        const Int wire = wire_length_sum(space, dependence);

        // Branch-and-bound gate 1: wire plus a per-row processor lower
        // bound already beats the incumbent STRICTLY (never on ties, so
        // the fewer-processors tie-break survives).  The bound only ever
        // holds totals of fully verified candidates, so a pruned
        // candidate can never be the lexicographic winner.
        Int bound = best_total.load(std::memory_order_relaxed);
        if (bound != kNoIncumbent &&
            exceeds_strictly(wire, processor_lower_bound(space, set),
                             bound)) {
          SYSMAP_COUNT("search.space.bnb_pruned", 1);
          return;
        }

        // Conflict screen -- the seed's, verbatim.
        mapping::MappingMatrix t(space, pi);
        if (!t.has_full_rank()) return;
        mapping::ConflictVerdict verdict =
            mapping::decide_conflict_free(t, set);
        if (!verdict.conflict_free()) return;

        // Branch-and-bound gate 2: cut the image walk once the running
        // distinct-image count alone loses strictly.
        bound = best_total.load(std::memory_order_relaxed);
        Int exit_above = -1;
        if (bound != kNoIncumbent) {
          exit_above = bound >= wire ? exact::sub_checked(bound, wire) : 0;
        }
        const std::optional<Int> procs = counter.count(space, exit_above);
        if (!procs) {
          SYSMAP_COUNT("search.space.walks_early_exited", 1);
          return;
        }
        ArrayCost cost;
        cost.processors = *procs;
        cost.wire_length = wire;
        Incumbent candidate(pos, space, cost);
        candidate.verdict = std::move(verdict);
        atomic_fetch_min(best_total, candidate.total);
        local.offer(std::move(candidate));
      });

  SpaceSearchResult best;
  best.candidates_tested = sweep.candidates;
  Incumbent winner = best_of(sweep.workers);
  if (winner.found) {
    best.found = true;
    best.space = std::move(winner.space);
    best.cost = winner.cost;
    best.verdict = std::move(winner.verdict);
  }
  return best;
}

// ---- Problem 6.2: seed engine (parity oracle) ------------------------------

DesignSpaceResult explore_design_space_seed(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options) {
  const std::size_t n = algo.dimension();
  DesignSpaceResult result;
  std::vector<DesignPoint> points;

  // Cold scoring per space (default: ILP + certification / Procedure 5.1);
  // the sweep consumes (found, pi, makespan) only, so array design is off.
  PipelineOptions cold;
  cold.design_array = false;
  const MappingPipeline pipeline(cold);
  for (const MatI& space : candidate_spaces(n, options)) {
    ++result.spaces_tested;
    MappingSolution solution;
    try {
      solution = pipeline.find_time_optimal(algo, space);
    } catch (const exact::ContractViolation&) {
      throw;  // a library bug, never a degenerate candidate
    } catch (const std::exception&) {
      continue;  // defensive: skip degenerate candidates
    }
    if (!solution.found) continue;
    ++result.feasible_spaces;
    DesignPoint point;
    point.space = space;
    point.pi = solution.pi;
    point.makespan = solution.makespan;
    point.cost = evaluate_array_cost(algo, space);
    points.push_back(std::move(point));
  }
  result.pareto = pareto_filter(std::move(points));
  return result;
}

// ---- Problem 6.2: fast engine ----------------------------------------------

DesignSpaceResult explore_design_space(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options) {
  SYSMAP_SPAN("search.space.explore_design_space");
  const MatI& dependence = algo.dependence_matrix();
  // score() without a cap is bit-identical to the cold per-space calls the
  // seed engine makes, so the Pareto set is unchanged (a cap would break
  // frontier parity: dominated-on-time points can still be on it).
  const std::unique_ptr<MappingPipeline> pipeline = fused_pipeline();
  using Accepted = std::vector<std::pair<std::uint64_t, DesignPoint>>;

  Sweep<Accepted> sweep = run_sweep<Accepted>(
      algo, options, Scoring{pipeline.get(), nullptr},
      [&](Accepted& accepted, ProcessorCounter& counter, const MatI& space,
          std::uint64_t pos, std::optional<MappingSolution> solution) {
        if (!solution || !solution->found) return;
        DesignPoint point;
        point.space = space;
        point.pi = solution->pi;
        point.makespan = solution->makespan;
        point.cost = counter.cost(space, dependence);
        accepted.emplace_back(pos, std::move(point));
      });

  Accepted merged;
  for (Accepted& accepted : sweep.workers) {
    for (auto& entry : accepted) merged.push_back(std::move(entry));
  }
  // Restore the serial visit order before the (unstable) Pareto sort so
  // the sort sees the exact input sequence the seed engine feeds it --
  // that, not stability, is what makes tied orderings bit-identical.
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<DesignPoint> points;
  points.reserve(merged.size());
  for (auto& entry : merged) points.push_back(std::move(entry.second));

  DesignSpaceResult result;
  result.spaces_tested = sweep.candidates;
  result.feasible_spaces = points.size();
  result.pareto = pareto_filter(std::move(points));
  return result;
}

// ---- Joint single-winner query: seed engine (parity oracle) ----------------

JointMappingResult joint_time_optimal_mapping_seed(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options) {
  const std::size_t n = algo.dimension();
  JointMappingResult best;
  PipelineOptions cold;
  cold.design_array = false;
  const MappingPipeline pipeline(cold);
  for (const MatI& space : candidate_spaces(n, options)) {
    ++best.spaces_tested;
    MappingSolution solution;
    try {
      solution = pipeline.find_time_optimal(algo, space);
    } catch (const exact::ContractViolation&) {
      throw;  // a library bug, never a degenerate candidate
    } catch (const std::exception&) {
      continue;  // defensive: skip degenerate candidates
    }
    if (!solution.found) continue;
    const ArrayCost cost = evaluate_array_cost(algo, space);
    const bool better =
        !best.found || solution.objective < best.objective ||
        (solution.objective == best.objective &&
         (cost.total() < best.cost.total() ||
          (cost.total() == best.cost.total() &&
           cost.processors < best.cost.processors)));
    if (better) {
      best.found = true;
      best.space = space;
      best.pi = solution.pi;
      best.objective = solution.objective;
      best.makespan = solution.makespan;
      best.verdict = solution.verdict;
      best.cost = cost;
    }
  }
  return best;
}

// ---- Joint single-winner query: fused engine -------------------------------

JointMappingResult joint_time_optimal_mapping(
    const model::UniformDependenceAlgorithm& algo,
    const SpaceSearchOptions& options) {
  SYSMAP_SPAN("search.space.joint_time_optimal_mapping");
  const MatI& dependence = algo.dependence_matrix();
  const std::unique_ptr<MappingPipeline> pipeline = fused_pipeline();

  // Cross-space incumbent on the schedule objective.  The cap is the best
  // objective FOUND so far and score() treats it inclusively, so a space
  // whose optimum ties the incumbent is still fully scored and costed --
  // the cost tie-breaks and first-seen order are exactly the seed's.  A
  // truncated space has optimum > cap >= the final minimum, so it could
  // not have won or tied under any interleaving.
  std::atomic<Int> best_objective{kNoIncumbent};

  Sweep<Incumbent> sweep = run_sweep<Incumbent>(
      algo, options, Scoring{pipeline.get(), &best_objective},
      [&](Incumbent& local, ProcessorCounter& counter, const MatI& space,
          std::uint64_t pos, std::optional<MappingSolution> solution) {
        if (!solution || !solution->found) return;
        atomic_fetch_min(best_objective, solution->objective);
        Incumbent candidate(pos, space, counter.cost(space, dependence));
        candidate.objective = solution->objective;
        candidate.pi = std::move(solution->pi);
        candidate.makespan = solution->makespan;
        candidate.verdict = std::move(solution->verdict);
        local.offer(std::move(candidate));
      });

  JointMappingResult best;
  best.spaces_tested = sweep.candidates;
  Incumbent winner = best_of(sweep.workers);
  if (winner.found) {
    best.found = true;
    best.space = std::move(winner.space);
    best.pi = std::move(winner.pi);
    best.objective = winner.objective;
    best.makespan = winner.makespan;
    best.verdict = std::move(winner.verdict);
    best.cost = winner.cost;
  }
  return best;
}

}  // namespace sysmap::search
