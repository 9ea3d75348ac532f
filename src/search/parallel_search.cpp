#include "search/parallel_search.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exact/checked.hpp"
#include "exact/contracts.hpp"
#include "obs/obs.hpp"
#include "search/enumerate.hpp"
#include "search/fixed_space.hpp"
#include "support/thread_pool.hpp"
#include "search/verdict_cache.hpp"

namespace sysmap::search {

namespace {

constexpr std::size_t kDefaultChunk = 32;
constexpr std::uint64_t kNoPos = std::numeric_limits<std::uint64_t>::max();

// A contiguous slice of the global candidate stream.  `base` is the
// global serial position of pis[0]; fs[j] is the objective level of
// pis[j] (one chunk may span a level boundary).  Only the first `len`
// entries are live: the buffers persist across draws so the feed writes
// into existing VecI storage instead of allocating per candidate.
struct Chunk {
  std::uint64_t base = 0;
  std::size_t len = 0;
  std::vector<VecI> pis;
  std::vector<Int> fs;
};

// The shared candidate source: pulls lazily from one ScheduleEnumerator
// per objective level, in increasing f, assigning consecutive global
// positions -- the exact order the serial sweep visits.  All state lives
// behind one mutex; workers hold it only while copying out a chunk.
class Feed {
 public:
  Feed(const model::IndexSet& set, Int first_f, Int stride, Int max_objective)
      : set_(&set), f_(first_f), stride_(stride), max_objective_(max_objective) {}

  // Copies up to `chunk_size` candidates into `out`.  Refuses (returns
  // false) once the stream is exhausted or the next position is at or
  // past `bound`: every position the eventual winner P dominates has
  // already been handed out by then, so refused workers can exit.
  bool draw(std::size_t chunk_size, std::uint64_t bound, Chunk& out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (exhausted_) return false;
    if (next_pos_ >= bound) return false;
    out.base = next_pos_;
    out.len = 0;
    if (out.pis.size() < chunk_size) {
      out.pis.resize(chunk_size);
      out.fs.resize(chunk_size);
    }
    while (out.len < chunk_size) {
      if (!enumerator_ || !enumerator_->next(out.pis[out.len])) {
        if (!advance_level_locked()) {
          exhausted_ = true;
          break;
        }
        continue;
      }
      out.fs[out.len] = f_;
      ++out.len;
      ++next_pos_;
    }
    return out.len > 0;
  }

  // Total candidates handed out; call only after the pool has joined.
  std::uint64_t produced() const { return next_pos_; }

 private:
  bool advance_level_locked() {
    if (!enumerator_) {
      // First level: f_ is already the smallest valid objective.
      if (f_ > max_objective_) return false;
    } else {
      if (f_ > max_objective_ - stride_) return false;  // overflow-safe
      f_ += stride_;
    }
    enumerator_.emplace(*set_, f_);
    return true;
  }

  const model::IndexSet* set_;
  std::mutex mu_;
  Int f_;
  const Int stride_;
  const Int max_objective_;
  std::optional<ScheduleEnumerator> enumerator_;
  std::uint64_t next_pos_ = 0;
  bool exhausted_ = false;
};

// One fully-processed chunk's contribution to the statistics.  Chunks
// are disjoint contiguous position ranges, so the reduction can recover
// the exact serial tallies from them (see the reduction below).
struct ChunkRecord {
  std::uint64_t base = 0;
  std::uint64_t passed = 0;  // dependence passes within the chunk
};

// Everything a worker accumulates privately; read only after the join.
struct WorkerState {
  std::vector<ChunkRecord> records;
  std::uint64_t draws = 0;
  bool found = false;
  std::uint64_t pos = kNoPos;  // global position of the hit
  Int f = 0;
  VecI pi;
  mapping::ConflictVerdict verdict;
  std::optional<schedule::Routing> routing;
};

// Lowers `bound` to at most `candidate` (atomic fetch-min).
void atomic_min(std::atomic<std::uint64_t>& bound, std::uint64_t candidate) {
  std::uint64_t cur = bound.load(std::memory_order_relaxed);
  while (candidate < cur &&
         !bound.compare_exchange_weak(cur, candidate,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

SearchResult procedure_5_1_parallel(
    const model::UniformDependenceAlgorithm& algo, const MatI& space,
    const SearchOptions& options, std::size_t num_threads,
    std::size_t chunk_size) {
  const model::IndexSet& set = algo.index_set();
  const MatI& d = algo.dependence_matrix();
  const std::size_t n = set.dimension();
  if (space.cols() != n) {
    throw std::invalid_argument("procedure_5_1_parallel: S width");
  }
  if (space.rows() + 1 > n) {
    throw std::invalid_argument("procedure_5_1_parallel: k must not exceed n");
  }
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (chunk_size == 0) chunk_size = kDefaultChunk;

  const Int max_objective = options.max_objective > 0
                                ? options.max_objective
                                : default_max_objective(set);

  // One immutable fixed-S context shared by every worker; skipped under
  // brute force exactly as in the serial driver, and borrowed from the
  // caller when one was supplied (same policy as the serial driver).
  std::optional<FixedSpaceContext> own_ctx;
  const FixedSpaceContext* ctx = nullptr;
  if (options.use_fixed_space_context &&
      options.oracle != ConflictOracle::kBruteForce) {
    if (options.context != nullptr) {
      ctx = options.context;
    } else {
      own_ctx.emplace(set, space);
      ctx = &*own_ctx;
    }
  }
  VerdictCache* cache = ctx != nullptr ? options.verdict_cache : nullptr;
  std::uint64_t cache_hits0 = 0;
  std::uint64_t cache_misses0 = 0;
  if (cache != nullptr) {
    const VerdictCache::Stats s = cache->stats();
    cache_hits0 = s.hits;
    cache_misses0 = s.misses;
  }

  // Skip objective levels no Pi can land on (multiples of gcd_i mu_i
  // only); the feed then steps levels by the stride.
  const Int stride = objective_level_stride(set);
  const Int start = std::max<Int>(options.min_objective, 1);
  const Int first_f =
      start % stride == 0 ? start : start + (stride - start % stride);

  Feed feed(set, first_f, stride, max_objective);
  std::atomic<std::uint64_t> best_pos(kNoPos);
  // Slot num_threads belongs to the serial prefix below; chunk records
  // compose across slots no matter which thread processed them.
  std::vector<WorkerState> states(num_threads + 1);

  const bool batching = ctx && ctx->supports_batch(options.oracle);
  // The complete per-worker scan loop, shared by the pool workers and the
  // serial prefix.  draw_cap > 0 bounds how many candidates may be drawn
  // in total (the prefix budget; the feed is touched by one thread only
  // then, so the unlocked produced() read is safe).  Returns true when
  // the scan ended for real -- stream drained or a hit pruned the rest --
  // and false when only the budget ran out.
  auto work = [&](WorkerState& me, std::uint64_t draw_cap) -> bool {
    Chunk chunk;
    std::vector<VecI> deps;              // packed batch panel input
    std::size_t deps_used = 0;           // live prefix of `deps`
    std::vector<std::size_t> dep_idx;    // chunk-local survivor positions
    std::vector<std::optional<mapping::ConflictVerdict>> screens;
    for (;;) {
      if (draw_cap != 0 && feed.produced() >= draw_cap) return false;
      const std::uint64_t bound = best_pos.load(std::memory_order_relaxed);
      if (!feed.draw(chunk_size, bound, chunk)) break;
      ++me.draws;
      ChunkRecord rec{chunk.base, 0};

      // Step 5(1): the cheap dependence screen, in serial order.  A
      // candidate at or past the pruning bound cannot win (the bound
      // never rises and never drops below the final winner position), so
      // the rest of the chunk is abandoned; every abandoned position is
      // >= the final winner position, so the statistics reduction below
      // never needs it.
      dep_idx.clear();
      for (std::size_t j = 0; j < chunk.len; ++j) {
        if (chunk.base + j >= best_pos.load(std::memory_order_relaxed)) break;
        if (schedule::respects_dependences(chunk.pis[j], d)) {
          dep_idx.push_back(j);
        }
      }

      // Steps 5(2)+(3): rank + conflict screens on the survivors -- one
      // batched cofactor panel product when the context supports it
      // (k = n-1), scalar screens otherwise.  The panel input reuses the
      // worker's `deps` storage (assignment into live VecIs, no
      // per-candidate allocation).
      bool used_batch = false;
      if (batching && dep_idx.size() > 1) {
        deps_used = 0;
        for (std::size_t j : dep_idx) {
          if (deps_used < deps.size()) {
            deps[deps_used] = chunk.pis[j];
          } else {
            deps.push_back(chunk.pis[j]);
          }
          ++deps_used;
        }
        used_batch =
            ctx->screen_batch(options.oracle, deps.data(), deps_used,
                              screens, cache);
      }
      bool hit = false;
      for (std::size_t t = 0; t < dep_idx.size(); ++t) {
        const std::uint64_t pos = chunk.base + dep_idx[t];
        if (pos >= best_pos.load(std::memory_order_relaxed)) break;
        const VecI& pi = chunk.pis[dep_idx[t]];
        std::optional<mapping::ConflictVerdict> v;
        if (used_batch) {
          v = std::move(screens[t]);
        } else if (ctx) {
          v = ctx->screen(options.oracle, pi, cache);
        } else {
          mapping::MappingMatrix t_mat(space, pi);
          if (!t_mat.has_full_rank()) continue;
          mapping::ConflictVerdict verdict =
              run_conflict_oracle(options.oracle, t_mat, set);
          if (verdict.status !=
              mapping::ConflictVerdict::Status::kConflictFree) {
            continue;
          }
          v = std::move(verdict);
        }
        if (!v) continue;
        // Step 5(4): routing on a fixed target array, when requested.
        std::optional<schedule::Routing> routing;
        if (options.target) {
          schedule::LinearSchedule sched(pi);
          routing = schedule::route(space, d, *options.target, sched);
          if (!routing) continue;
        }
        hit = true;
        me.found = true;
        me.pos = pos;
        me.f = chunk.fs[dep_idx[t]];
        me.pi = pi;
        me.verdict = std::move(*v);
        me.routing = std::move(routing);
        atomic_min(best_pos, pos);
        break;
      }

      if (hit) {
        // The serial scan stops AT the hit: this chunk contributes its
        // dependence passes up to and including the winner only.
        for (std::size_t t = 0; t < dep_idx.size(); ++t) {
          if (chunk.base + dep_idx[t] <= me.pos) ++rec.passed;
        }
        me.records.push_back(rec);
        break;  // the next draw would be refused anyway
      }
      rec.passed = dep_idx.size();
      me.records.push_back(rec);
    }
    return true;
  };

  // Small-problem serial cutoff: tiny streams (a few hundred candidates)
  // pay more in pool wake-up and chunk traffic than the scan itself costs,
  // so the calling thread runs the same chunked loop first and the pool is
  // constructed only when the stream outlives the budget.  Every chunk
  // flows through the identical code path either way, so the reduction
  // below composes the statistics exactly as if workers had drawn them.
  bool serial_resolved = false;
  if (options.streaming_serial_cutoff > 0) {
    serial_resolved =
        work(states[num_threads], options.streaming_serial_cutoff);
  }
  if (!serial_resolved) {
    // One pool for the rest of the stream; workers draw from the feed
    // until it refuses, so nobody idles at level boundaries.
    SYSMAP_COUNT("search.streaming.pool_handoffs", 1);
    support::ThreadPool pool(num_threads);
    pool.run([&](std::size_t w) { work(states[w], 0); });
  } else {
    SYSMAP_COUNT("search.streaming.serial_prefix_resolved", 1);
  }

  // Reduction.  Chunks are disjoint contiguous position ranges handed out
  // in order, and the pruning bound never drops below the final winner
  // position P, so: (a) the winner is simply the hit with minimal global
  // position; (b) every position < P was drawn and fully screened; (c) the
  // chunk containing P belongs to the winning worker and its record counts
  // passes over [base, P] exactly; (d) any other chunk with base <= P lies
  // entirely below P and was never truncated.  Summing `passed` over
  // records with base <= P therefore reproduces the serial tally, and
  // candidates_tested is P + 1 (or everything produced when nothing hit).
  SearchResult result;
  result.serial_prefix_resolved = serial_resolved;
  std::size_t best_worker = states.size();
  std::uint64_t winner_pos = kNoPos;
  for (std::size_t w = 0; w < states.size(); ++w) {
    if (states[w].found && states[w].pos < winner_pos) {
      winner_pos = states[w].pos;
      best_worker = w;
    }
    // The prefix slot runs on the calling thread; its draws steal nothing.
    if (w < num_threads && states[w].draws > 0) {
      result.chunks_stolen += states[w].draws - 1;
    }
  }
  if (best_worker == states.size()) {
    result.candidates_tested = feed.produced();
    for (const WorkerState& ws : states) {
      for (const ChunkRecord& rec : ws.records) {
        result.candidates_passed_dependence += rec.passed;
      }
    }
  } else {
    WorkerState& win = states[best_worker];
    result.candidates_tested = winner_pos + 1;
    for (const WorkerState& ws : states) {
      for (const ChunkRecord& rec : ws.records) {
        if (rec.base <= winner_pos) {
          result.candidates_passed_dependence += rec.passed;
        }
      }
    }
    result.found = true;
    result.pi = std::move(win.pi);
    result.objective = win.f;
    result.makespan = exact::add_checked(win.f, 1);
    result.verdict = std::move(win.verdict);
    result.routing = std::move(win.routing);
  }
  if (cache != nullptr) {
    const VerdictCache::Stats s = cache->stats();
    result.cache_hits = s.hits - cache_hits0;
    result.cache_misses = s.misses - cache_misses0;
  }
  SYSMAP_COUNT("search.streaming.searches", 1);
  SYSMAP_COUNT("search.streaming.chunks_stolen", result.chunks_stolen);
  SYSMAP_GAUGE("search.streaming.candidates_tested", result.candidates_tested);
#if SYSMAP_CONTRACTS_ACTIVE
  if (result.found) {
    // The streaming reduction must hand back exactly what the serial scan
    // would: a dependence-respecting, full-rank Pi at the reported
    // objective whose verdict reproduces when its own oracle is re-run
    // from scratch (no context, no cache, no worker-local state).
    Int cost = 0;
    for (std::size_t i = 0; i < n; ++i) {
      cost = exact::add_checked(
          cost,
          exact::mul_checked(exact::abs_checked(result.pi[i]), set.mu(i)));
    }
    SYSMAP_CONTRACT(cost == result.objective,
                    "streaming winner objective "
                        << result.objective << " but sum |pi_i| mu_i = "
                        << cost);
    SYSMAP_CONTRACT(schedule::respects_dependences(result.pi, d),
                    "streaming winner violates a dependence");
    mapping::MappingMatrix t_check(space, result.pi);
    SYSMAP_CONTRACT(t_check.has_full_rank(),
                    "streaming winner T = [S; Pi] is singular");
    SYSMAP_CONTRACT(
        run_conflict_oracle(options.oracle, t_check, set).status ==
            mapping::ConflictVerdict::Status::kConflictFree,
        "streaming winner is not conflict-free when its oracle is re-run");
  }
#endif
  return result;
}

}  // namespace sysmap::search
