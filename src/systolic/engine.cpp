// The high-throughput systolic execution engine behind systolic::simulate.
//
// The seed simulator (simulator.cpp) materializes every computation,
// comparator-sorts them, and routes every dependence hop through tree maps
// keyed by VecI tuples -- simulating a mapped design costs orders of
// magnitude more than finding it.  This engine replaces all of that with
// flat storage:
//
//  * TIME-MAJOR BUCKETING.  Pi j is affine over the box J, so the cycle
//    range [t_min, t_max] and the per-cycle population come from one
//    counting pass along the index-set odometer walk; a stable counting
//    scatter then yields the computations grouped by cycle and, inside
//    each cycle, in lexicographic j order -- exactly the (time, j) order
//    the seed obtains from std::sort, with no comparator.
//
//  * PACKED COORDINATES.  PE coordinates S j and intermediate routing
//    positions live in a checked bounding box (the image box of S padded
//    by every route's prefix displacements), so each packs into one uint64
//    via support/packed_coord.hpp; wire identities (PE, primitive, dep)
//    pack the same way.  Occupancy is tracked in epoch-stamped
//    open-addressing tables -- no tree maps, no per-event allocation.  The
//    conflict pass reuses one table across cycles (epoch = cycle); the
//    collision pass keeps a ring of h_max tables, one per live wire cycle
//    (epoch = wire cycle), so each table holds one cycle's wires and stays
//    cache-resident.  When a box does not pack (or the index set / cycle
//    range leaves the flat regime), the engine transparently falls back to
//    the seed path, which the parity tests exercise as an oracle.
//
//  * O(1) ORDINALS.  The odometer walk's step counter IS the lexicographic
//    ordinal, and ordinals are linear in j, so the operand ordinal of
//    dependence d_i is ord(j) - ord_delta(d_i): the per-operand
//    model::lexicographic_ordinal recomputation in the seed's value pass
//    becomes one subtraction.
//
//  * ONE THREAD, SEED ORDER.  Every pass is one scan in (cycle, lexicographic
//    j) order on the calling thread, so stored events come out in the
//    seed's emission order with no merge, and reports are bit-identical to
//    the seed's (tests/simulator_parity_test.cpp holds them equal).  The
//    passes stay on one thread because splitting them by cycle range over
//    workers measured 1.09-1.31x slower on every BENCH_sim.json case.
#include "systolic/simulator.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "exact/bigint.hpp"
#include "exact/checked.hpp"
#include "obs/obs.hpp"
#include "support/packed_coord.hpp"

namespace sysmap::systolic {
namespace detail {
namespace {

constexpr std::size_t kMaxEvents = 16;  // cap on stored diagnostics (== seed)

// Canonical hop sequence for dependence column i of K: primitives in index
// order, each repeated k(r, i) times (kept in sync with simulator.cpp).
std::vector<std::size_t> hop_sequence(const MatI& k, std::size_t dep) {
  std::vector<std::size_t> hops;
  for (std::size_t r = 0; r < k.rows(); ++r) {
    for (Int c = 0; c < k(r, dep); ++c) hops.push_back(r);
  }
  return hops;
}

/// Everything the flat passes need, precomputed with exact arithmetic.
/// FlatPlan::build returns nullopt whenever any bound, packing, or key
/// product leaves the machine-word regime -- the caller then runs the seed
/// fallback, so the passes themselves may use raw word arithmetic freely.
struct FlatPlan {
  std::size_t n = 0;         ///< index-set dimension
  std::size_t m = 0;         ///< dependence count
  std::uint64_t points = 0;  ///< |J|
  VecI mu;                   ///< box bounds
  MatI d;                    ///< dependence matrix copy
  VecI pi;                   ///< schedule row
  MatI space;                ///< allocation rows S
  std::vector<std::uint64_t> dims;      ///< mu_r + 1
  std::vector<std::int64_t> ord_delta;  ///< ordinal offset of each dependence

  Int t_min = 0;  ///< min Pi j over J (attained at a box corner)
  Int t_max = 0;
  std::uint64_t cycles = 0;  ///< t_max - t_min + 1
  VecI t_delta;              ///< schedule increment per odometer position

  support::ImagePacking pe;             ///< padded PE/route-position packing
  std::vector<std::uint64_t> pe_delta;  ///< packed-key odometer increments
  std::vector<std::uint64_t> pe_dep_delta;  ///< pack_delta(S d_i) per dep

  std::vector<std::vector<std::size_t>> routes;  ///< hop sequence per dep
  std::vector<std::uint64_t> prim_delta;         ///< pack_delta(P column)
  VecI buffer_len;                    ///< delays - hops per dep
  std::vector<std::size_t> buffered;  ///< deps with buffer_len >= 1
  std::size_t h_max = 0;              ///< longest route
  std::size_t routed = 0;             ///< deps with a nonempty route
  std::size_t num_prims = 0;

  static std::optional<FlatPlan> build(
      const model::UniformDependenceAlgorithm& algo, const ArrayDesign& design);
};

std::optional<FlatPlan> FlatPlan::build(
    const model::UniformDependenceAlgorithm& algo, const ArrayDesign& design) {
  using exact::BigInt;
  const model::IndexSet& set = algo.index_set();
  FlatPlan plan;
  plan.n = set.dimension();
  plan.m = algo.dependence_matrix().cols();
  plan.mu = set.bounds();
  plan.d = algo.dependence_matrix();
  plan.pi = design.t.schedule();
  plan.space = design.t.space();
  if (plan.n == 0) return std::nullopt;

  try {
    // Point count and ordinal weights; ordinals index uint32 position
    // arrays, so the whole box must stay below UINT32_MAX points.
    plan.points = set.size_u64();
    if (plan.points >= UINT32_MAX - 1) return std::nullopt;
    plan.dims.resize(plan.n);
    std::vector<std::uint64_t> ord_w(plan.n, 1);
    for (std::size_t r = 0; r < plan.n; ++r) {
      plan.dims[r] = static_cast<std::uint64_t>(plan.mu[r]) + 1;
    }
    for (std::size_t r = plan.n; r-- > 1;) {
      ord_w[r - 1] = ord_w[r] * plan.dims[r];
    }
    // Per-dependence ordinal offsets, plus a proof that every j +- d_i
    // coordinate the passes will form is representable: mu_r +- d(r, i)
    // must not overflow, checked here once so the hot membership tests can
    // subtract raw.
    plan.ord_delta.resize(plan.m);
    for (std::size_t i = 0; i < plan.m; ++i) {
      BigInt off(0);
      for (std::size_t r = 0; r < plan.n; ++r) {
        (void)exact::sub_checked(0, plan.d(r, i));
        (void)exact::sub_checked(plan.mu[r], plan.d(r, i));
        (void)exact::add_checked(plan.mu[r], plan.d(r, i));
        off += BigInt(plan.d(r, i)) * BigInt(static_cast<Int>(ord_w[r]));
      }
      plan.ord_delta[i] = off.to_int64();
    }

    // Schedule range.  Pi j is affine, so the extremes are sums of the
    // signed parts of pi_r mu_r (attained at box corners), and every
    // partial sum of Pi j lies between them.
    BigInt lo(0);
    BigInt hi(0);
    for (std::size_t r = 0; r < plan.n; ++r) {
      BigInt part = BigInt(plan.pi[r]) * BigInt(plan.mu[r]);
      if (part < BigInt(0)) {
        lo += part;
      } else {
        hi += part;
      }
    }
    plan.t_min = lo.to_int64();
    plan.t_max = hi.to_int64();
    plan.cycles = static_cast<std::uint64_t>((hi - lo + BigInt(1)).to_int64());
    // The flat passes allocate per-cycle buckets; bail to the seed when the
    // schedule is so spread out that cycles dwarf the point count.
    const std::uint64_t cycle_cap =
        std::max<std::uint64_t>(std::uint64_t{1} << 20, 8 * plan.points + 64);
    if (plan.cycles >= UINT32_MAX - 2 || plan.cycles > cycle_cap) {
      return std::nullopt;
    }
    // Odometer step r: j_r += 1 while j_k falls mu_k -> 0 for all k > r.
    plan.t_delta.assign(plan.n, 0);
    for (std::size_t r = 0; r < plan.n; ++r) {
      BigInt step(plan.pi[r]);
      for (std::size_t k = r + 1; k < plan.n; ++k) {
        step -= BigInt(plan.pi[k]) * BigInt(plan.mu[k]);
      }
      plan.t_delta[r] = step.to_int64();
    }

    // Routes and the route-prefix displacement envelope: an in-flight datum
    // of dependence i sits at S src + (partial sums of primitive columns),
    // which may step outside the image box of S, so the PE packing box is
    // padded by the min/max prefix displacement over every route.
    const std::size_t rows = plan.space.rows();
    plan.num_prims = design.p.cols();
    plan.routes.resize(plan.m);
    plan.buffer_len.assign(plan.m, 0);
    VecI dev_lo(rows, 0);
    VecI dev_hi(rows, 0);
    for (std::size_t i = 0; i < plan.m; ++i) {
      plan.routes[i] = hop_sequence(design.k, i);
      plan.h_max = std::max(plan.h_max, plan.routes[i].size());
      if (!plan.routes[i].empty()) ++plan.routed;
      plan.buffer_len[i] = exact::sub_checked(
          design.delays[i], static_cast<Int>(plan.routes[i].size()));
      if (plan.buffer_len[i] >= 1) plan.buffered.push_back(i);
      VecI prefix(rows, 0);
      for (std::size_t hop = 0; hop < plan.routes[i].size(); ++hop) {
        for (std::size_t r = 0; r < rows; ++r) {
          prefix[r] =
              exact::add_checked(prefix[r], design.p(r, plan.routes[i][hop]));
          dev_lo[r] = std::min(dev_lo[r], prefix[r]);
          dev_hi[r] = std::max(dev_hi[r], prefix[r]);
        }
      }
    }
    // Wire cycles can reach h_max - 1 below t_min; prove the subtraction.
    (void)exact::sub_checked(plan.t_min, static_cast<Int>(plan.h_max + 1));

    // Padded PE box: the image bounds of S over J extended by the prefix
    // envelope, so every routing position packs too.
    VecI pe_lo(rows, 0);
    VecI pe_hi(rows, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < plan.n; ++c) {
        const Int term = exact::mul_checked(plan.space(r, c), plan.mu[c]);
        if (plan.space(r, c) < 0) {
          pe_lo[r] = exact::add_checked(pe_lo[r], term);
        } else if (plan.space(r, c) > 0) {
          pe_hi[r] = exact::add_checked(pe_hi[r], term);
        }
      }
      pe_lo[r] = exact::add_checked(pe_lo[r], dev_lo[r]);
      pe_hi[r] = exact::add_checked(pe_hi[r], dev_hi[r]);
    }
    std::optional<support::ImagePacking> packing =
        support::ImagePacking::build_from_bounds(pe_lo, pe_hi);
    if (!packing || packing->product == UINT64_MAX) return std::nullopt;
    plan.pe = std::move(*packing);

    // Packed-key increments: odometer steps, dependence displacements
    // S d_i, and the primitive columns of P.  All are differences of
    // in-box points, so their coordinates narrow to int64; the packed
    // increments wrap by design (pack_delta documents the contract).
    VecI delta(rows, 0);
    plan.pe_delta.assign(plan.n, 0);
    for (std::size_t r = 0; r < plan.n; ++r) {
      for (std::size_t q = 0; q < rows; ++q) {
        BigInt step(plan.space(q, r));
        for (std::size_t k = r + 1; k < plan.n; ++k) {
          step -= BigInt(plan.space(q, k)) * BigInt(plan.mu[k]);
        }
        delta[q] = step.to_int64();
      }
      plan.pe_delta[r] = plan.pe.pack_delta(delta);
    }
    plan.pe_dep_delta.assign(plan.m, 0);
    for (std::size_t i = 0; i < plan.m; ++i) {
      for (std::size_t q = 0; q < rows; ++q) {
        BigInt step(0);
        for (std::size_t k = 0; k < plan.n; ++k) {
          step += BigInt(plan.space(q, k)) * BigInt(plan.d(k, i));
        }
        delta[q] = step.to_int64();
      }
      plan.pe_dep_delta[i] = plan.pe.pack_delta(delta);
    }
    plan.prim_delta.assign(plan.num_prims, 0);
    for (std::size_t prim = 0; prim < plan.num_prims; ++prim) {
      for (std::size_t q = 0; q < rows; ++q) delta[q] = design.p(q, prim);
      plan.prim_delta[prim] = plan.pe.pack_delta(delta);
    }

    // Wire keys: (position, primitive, dep) must inject into uint64, and
    // the wire-cycle epochs 1 .. cycles + h_max - 1 (wire cycle crel is
    // stamped crel + h_max) must fit the uint32 epoch stamps.
    if (plan.h_max > 0) {
      std::uint64_t prod = plan.pe.product;
      if (__builtin_mul_overflow(
              prod, static_cast<std::uint64_t>(plan.num_prims), &prod) ||
          __builtin_mul_overflow(prod, static_cast<std::uint64_t>(plan.m),
                                 &prod) ||
          prod == UINT64_MAX ||
          plan.cycles + plan.h_max - 1 >= std::uint64_t{UINT32_MAX}) {
        return std::nullopt;
      }
    }
  } catch (const exact::OverflowError&) {
    return std::nullopt;
  }
  return plan;
}

/// Decodes a lexicographic ordinal into box coordinates.
/// Ordinals and every mu_r + 1 are below the uint32-checked point count,
/// so the digits come from 32-bit divisions.
inline void decode_ordinal(const FlatPlan& plan, std::uint64_t ord, VecI& j) {
  j.resize(plan.n);
  auto rest = static_cast<std::uint32_t>(ord);
  for (std::size_t r = plan.n; r-- > 0;) {
    // SYSMAP_RAW_FASTPATH(bounded: ord % dims_r < dims_r = mu_r + 1, so
    // every digit is a valid in-box coordinate; the division shrinks ord)
    const auto dim = static_cast<std::uint32_t>(plan.dims[r]);
    j[r] = static_cast<Int>(rest % dim);
    rest /= dim;
  }
}

/// True when j - d_i stays inside the box (the operand is computed on the
/// array, not a boundary input).
inline bool source_in_set(const FlatPlan& plan, const VecI& j,
                          std::size_t dep) {
  for (std::size_t r = 0; r < plan.n; ++r) {
    // SYSMAP_RAW_FASTPATH(bounded: FlatPlan::build pre-checked
    // mu_r +- d(r, i) with exact::sub_checked/add_checked, so the
    // difference of an in-box coordinate and a dependence entry is
    // representable)
    const Int s = j[r] - plan.d(r, dep);
    if (s < 0 || s > plan.mu[r]) return false;
  }
  return true;
}

/// A buffered-interval start: the source fires at absolute cycle
/// t_min + start - 1 and its datum occupies the source link from `start`
/// (cycle-relative) for buffer_len[dep] cycles.
struct BufStart {
  std::uint32_t start = 0;
  std::uint64_t pe = 0;  ///< packed source PE
};

// SYSMAP_RAW_FASTPATH(bounded: t walks the affine schedule -- every
// partial sum and increment lands between the BigInt-narrowed extremes
// t_min/t_max, S j partial sums stay between the checked image bounds,
// and FlatPlan::build proved j_r + d(r, i) representable)
void walk(const FlatPlan& plan, std::uint64_t* pe_keys,
          std::uint32_t* cycle_of,
          std::vector<std::vector<BufStart>>& buf_starts) {
  const std::size_t n = plan.n;
  const auto points = static_cast<std::size_t>(plan.points);
  // The walk starts at the origin, where Pi j = 0 and S j = 0.
  VecI j(n, 0);
  Int t = 0;
  std::uint64_t pe_key = plan.pe.pack(VecI(plan.space.rows(), 0));
  for (std::size_t i : plan.buffered) buf_starts[i].reserve(points);

  for (std::size_t ord = 0;;) {
    cycle_of[ord] = static_cast<std::uint32_t>(t - plan.t_min);
    pe_keys[ord] = pe_key;
    // Source-centric buffer accounting: j buffers dependence i exactly
    // when its consumer j + d_i is also computed on the array.
    for (std::size_t i : plan.buffered) {
      bool consumer_in = true;
      for (std::size_t r = 0; r < n; ++r) {
        const Int s = j[r] + plan.d(r, i);
        if (s < 0 || s > plan.mu[r]) {
          consumer_in = false;
          break;
        }
      }
      if (consumer_in) {
        buf_starts[i].push_back(
            {static_cast<std::uint32_t>(t + 1 - plan.t_min), pe_key});
      }
    }
    if (++ord >= points) break;
    std::size_t r = n;
    while (r-- > 0) {
      if (j[r] < plan.mu[r]) {
        ++j[r];
        break;
      }
      j[r] = 0;
    }
    t += plan.t_delta[r];
    pe_key += plan.pe_delta[r];
  }
}

/// Open-addressing find-or-claim table with epoch stamps and a uint32
/// payload per slot.  One table serves a sequence of epochs that never
/// decreases: entries from older epochs act as free slots -- a probe never
/// terminates on them without claiming, so current-epoch entries always
/// form a consistent linear-probe set and moving to the next epoch costs
/// nothing.  The conflict pass keys it by packed PE with epoch = cycle
/// (payload: first claimant); the collision pass keeps a ring of them
/// keyed by wire with epoch = wire cycle (payload: usage count).  The
/// table doubles past 70% current-epoch load.
class EpochTable {
 public:
  explicit EpochTable(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
  }

  /// The payload of `key` in `epoch` (every epoch >= 1); when absent,
  /// claims a slot with payload 0 and sets `claimed`.
  std::uint32_t& find_or_claim(std::uint64_t key, std::uint32_t epoch,
                               bool& claimed) {
    if (epoch != current_) {
      current_ = epoch;
      live_ = 0;
    }
    Slot* slot = &slots_[find(key)];
    claimed = slot->epoch != epoch;
    if (claimed) {
      if ((live_ + 1) * 10 > slots_.size() * 7) {
        grow();
        slot = &slots_[find(key)];
      }
      ++live_;
      *slot = Slot{key, epoch, 0};
    }
    return slot->payload;
  }

  /// Probe count and doublings accumulated by this table (the chunk sums
  /// them into the obs counters once, not per probe; always 0 with obs
  /// off).
  std::uint64_t probes() const { return probes_; }
  std::uint64_t growths() const { return growths_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t epoch = 0;  ///< 0: never claimed
    std::uint32_t payload = 0;
  };

  /// The slot holding `key` in the current epoch, else the first
  /// claimable slot of its probe sequence.
  std::size_t find(std::uint64_t key) {
    // SYSMAP_RAW_FASTPATH(bounded: wrapping Fibonacci hash and masked
    // linear probe; current-epoch entries never exceed 70% of the
    // capacity, so the probe always reaches a claimable slot)
    std::size_t i =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
    if constexpr (obs::kEnabled) ++probes_;
    while (slots_[i].epoch == current_ && slots_[i].key != key) {
      i = (i + 1) & mask_;
      if constexpr (obs::kEnabled) ++probes_;
    }
    return i;
  }

  /// Doubles the capacity, keeping only the current epoch's entries.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& e : old) {
      if (e.epoch == current_) slots_[find(e.key)] = e;
    }
    if constexpr (obs::kEnabled) ++growths_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t current_ = 0;  ///< epoch of the live entries
  std::size_t live_ = 0;       ///< entries claimed in the current epoch
  std::uint64_t probes_ = 0;
  std::uint64_t growths_ = 0;
};

/// Computational conflicts: the uncapped duplicate count and the first
/// kMaxEvents events, in the seed's (cycle, position) order.  Returns the
/// occupancy-table probe count (always 0 with obs off).
// SYSMAP_RAW_FASTPATH(bounded: event times are t_min + c with
// c < cycles = t_max - t_min + 1, so they land back inside the checked
// schedule range)
std::uint64_t conflict_pass(const FlatPlan& plan,
                            const std::vector<std::uint32_t>& bucket_start,
                            const std::vector<std::uint32_t>& order,
                            const std::vector<std::uint64_t>& pe_keys,
                            std::size_t max_bucket, SimulationReport& report) {
  EpochTable table(max_bucket);
  for (std::size_t c = 0; c < plan.cycles; ++c) {
    for (std::uint32_t p = bucket_start[c]; p < bucket_start[c + 1]; ++p) {
      const std::uint32_t ord = order[p];
      bool claimed = false;
      std::uint32_t& first = table.find_or_claim(
          pe_keys[ord], static_cast<std::uint32_t>(c) + 1, claimed);
      if (claimed) {
        first = p;
      } else {
        ++report.total_conflicts;
        if (report.conflicts.size() < kMaxEvents) {
          ConflictEvent ev;
          decode_ordinal(plan, order[first], ev.j1);
          decode_ordinal(plan, ord, ev.j2);
          plan.pe.unpack(pe_keys[ord], ev.pe);
          ev.time = plan.t_min + static_cast<Int>(c);
          report.conflicts.push_back(std::move(ev));
        }
      }
    }
  }
  return table.probes();
}

/// Data-link collisions: the uncapped count and the first kMaxEvents
/// events, in the seed's (position, dep, hop) order -- the order of this
/// one scan.  Returns the wire-table doubling count (always 0 with obs
/// off).
// SYSMAP_RAW_FASTPATH(bounded: wire cycles are t_min + crel with crel in
// [-(h_max - 1), cycles), inside the range FlatPlan::build proved with
// sub_checked(t_min, h_max + 1), and their epochs crel + h_max fit uint32
// by the same build; packed wire keys stay below the checked radix
// product and wrap only through pack_delta increments that land back on
// exact in-box packings)
std::uint64_t collision_pass(const FlatPlan& plan,
                             const std::vector<std::uint32_t>& bucket_start,
                             const std::vector<std::uint32_t>& order,
                             const std::vector<std::uint64_t>& pe_keys,
                             std::size_t max_bucket, SimulationReport& report) {
  // A computation in bucket c touches wire cycles [c - h + 1, c], so
  // while bucket c is scanned only wire cycles [c - h_max + 1, c] are
  // live, and they fall on distinct residues mod h_max: a ring of h_max
  // epoch tables, wire cycle crel in slot (crel + h_max) mod h_max with
  // epoch crel + h_max, holds each live wire cycle alone.  One bucket puts
  // at most one key per routed dependence into each table when every
  // route is one hop; longer routes make a table grow.
  const std::size_t h_max = plan.h_max;
  std::vector<EpochTable> ring(h_max, EpochTable(max_bucket * plan.routed));
  VecI j;
  for (std::size_t c = 0; c < plan.cycles; ++c) {
    const std::size_t c_slot = c % h_max;
    for (std::uint32_t p = bucket_start[c]; p < bucket_start[c + 1]; ++p) {
      const std::uint32_t ord = order[p];
      decode_ordinal(plan, ord, j);
      for (std::size_t i = 0; i < plan.m; ++i) {
        const std::vector<std::size_t>& route = plan.routes[i];
        if (route.empty() || !source_in_set(plan, j, i)) continue;
        // Hop 0 occupies wire cycle t1 - h + 1 (cycle-relative crel).
        std::int64_t crel = static_cast<std::int64_t>(c) -
                            static_cast<std::int64_t>(route.size()) + 1;
        std::size_t slot = c_slot + h_max - route.size() + 1;
        if (slot >= h_max) slot -= h_max;
        std::uint64_t pos_key = pe_keys[ord] - plan.pe_dep_delta[i];
        for (std::size_t hop = 0; hop < route.size(); ++hop) {
          const std::size_t prim = route[hop];
          const std::uint64_t key =
              (pos_key * plan.num_prims + prim) * plan.m + i;
          const std::uint32_t epoch = static_cast<std::uint32_t>(
              crel + static_cast<std::int64_t>(h_max));
          bool claimed = false;
          if (++ring[slot].find_or_claim(key, epoch, claimed) == 2) {
            ++report.total_collisions;
            if (report.collisions.size() < kMaxEvents) {
              CollisionEvent ev;
              plan.pe.unpack(pos_key, ev.wire_from);
              ev.primitive = prim;
              ev.dep = i;
              ev.cycle = plan.t_min + static_cast<Int>(crel);
              report.collisions.push_back(std::move(ev));
            }
          }
          pos_key += plan.prim_delta[route[hop]];
          ++crel;
          if (++slot == h_max) slot = 0;
        }
      }
    }
  }
  std::uint64_t growths = 0;
  for (const EpochTable& table : ring) growths += table.growths();
  return growths;
}

/// Buffer high-water mark for one dependence link: counting-sort the
/// interval starts by cycle, then sweep once -- the interval length is the
/// constant buffer_len[dep] (t1 - t0 = Pi d_i is the same for every
/// source/consumer pair), so the decrement stream is the start stream
/// shifted by that length.  Matches the seed's net-delta-per-cycle sweep
/// because decrements apply before increments at each cycle and the per-PE
/// level is read only at increments.
// SYSMAP_RAW_FASTPATH(bounded: cycle indices are uint64 bucket offsets and
// per-PE levels are uint32 counts of concurrently buffered intervals,
// bounded by |J| which fits uint32 by FlatPlan::build)
Int buffer_high_water(const FlatPlan& plan, std::size_t dep,
                      const std::vector<BufStart>& stream) {
  if (stream.empty()) return 0;
  const std::uint64_t len = static_cast<std::uint64_t>(plan.buffer_len[dep]);
  const std::size_t ncy = static_cast<std::size_t>(plan.cycles) + 1;
  std::vector<std::uint32_t> offs(ncy + 1, 0);
  for (const BufStart& e : stream) ++offs[e.start + 1];
  for (std::size_t c = 0; c < ncy; ++c) offs[c + 1] += offs[c];
  std::vector<std::uint64_t> sorted_pe(stream.size());
  {
    std::vector<std::uint32_t> cursor(offs.begin(), offs.end() - 1);
    for (const BufStart& e : stream) sorted_pe[cursor[e.start]++] = e.pe;
  }
  // One level per packed source PE.
  support::FlatCounterMap level(static_cast<std::size_t>(
      std::min<std::uint64_t>(stream.size(), plan.pe.product)));
  std::uint32_t hw = 0;
  const std::uint64_t last = plan.cycles + len;
  for (std::uint64_t c = 0; c <= last; ++c) {
    if (c >= len) {
      const std::uint64_t s = c - len;
      if (s < ncy) {
        for (std::uint32_t x = offs[s]; x < offs[s + 1]; ++x) {
          level.add(sorted_pe[x], static_cast<std::uint32_t>(-1));
        }
      }
    }
    if (c < ncy) {
      for (std::uint32_t x = offs[c]; x < offs[c + 1]; ++x) {
        hw = std::max(hw, level.add(sorted_pe[x], 1));
      }
    }
  }
  return static_cast<Int>(hw);
}

// SYSMAP_RAW_FASTPATH(bounded: operand ordinals are ord - ord_delta_i,
// both below the uint32-checked point count, and membership was
// established digit-by-digit first, so the difference is a valid ordinal)
void value_pass(const FlatPlan& plan, const model::SemanticAlgorithm& sem,
                const std::vector<std::uint32_t>& order,
                SimulationReport& report) {
  report.values_checked = true;
  std::vector<Int> reference = model::evaluate_reference(sem);
  std::vector<Int> value(reference.size(), 0);
  std::vector<char> done(reference.size(), 0);
  std::vector<Int> inputs(plan.m, 0);
  VecI j;
  bool causal = true;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::uint32_t ord = order[p];
    decode_ordinal(plan, ord, j);
    for (std::size_t i = 0; i < plan.m; ++i) {
      if (source_in_set(plan, j, i)) {
        const std::size_t src = static_cast<std::size_t>(
            static_cast<std::int64_t>(ord) - plan.ord_delta[i]);
        if (!done[src]) causal = false;  // operand not produced yet
        inputs[i] = value[src];
      } else {
        inputs[i] = sem.boundary ? sem.boundary(j, i) : Int{0};
      }
    }
    value[ord] = sem.compute(j, inputs);
    done[ord] = 1;
  }
  report.values_match = causal && value == reference;
}

SimulationReport run_flat(const FlatPlan& plan, const ArrayDesign& design,
                          const model::SemanticAlgorithm* semantic) {
  SimulationReport report;
  SYSMAP_GAUGE("systolic.points", plan.points);
  SYSMAP_GAUGE("systolic.cycles", plan.cycles);
  const std::size_t N = static_cast<std::size_t>(plan.points);
  report.computations = plan.points;
  report.num_processors = design.num_processors();
  report.first_cycle = plan.t_min;
  report.last_cycle = plan.t_max;
  report.makespan = static_cast<Int>(plan.cycles);

  std::vector<std::uint64_t> pe_keys(N);
  std::vector<std::vector<BufStart>> buf_starts(plan.m);
  std::vector<std::uint32_t> bucket_start(plan.cycles + 1, 0);
  std::uint32_t max_bucket = 0;
  std::vector<std::uint32_t> order(N);
  {
    SYSMAP_SPAN("systolic.simulate.walk");
    // -- pass 1: odometer walk -> packed PE keys, cycles, buffer starts --
    std::vector<std::uint32_t> cycle_of(N);
    walk(plan, pe_keys.data(), cycle_of.data(), buf_starts);

    // -- time-major bucketing: counting sort by cycle, stable in ordinal -
    // (= lexicographic j) order, reproducing the seed's (time, j) sort.
    for (std::size_t ord = 0; ord < N; ++ord) {
      ++bucket_start[cycle_of[ord] + 1];
    }
    for (std::size_t c = 0; c < plan.cycles; ++c) {
      max_bucket = std::max(max_bucket, bucket_start[c + 1]);
      bucket_start[c + 1] += bucket_start[c];
    }
    SYSMAP_GAUGE("systolic.max_bucket", max_bucket);
    std::vector<std::uint32_t> cursor(bucket_start.begin(),
                                      bucket_start.end() - 1);
    for (std::size_t ord = 0; ord < N; ++ord) {
      order[cursor[cycle_of[ord]]++] = static_cast<std::uint32_t>(ord);
    }
  }

  // -- computational conflicts ------------------------------------------
  {
    SYSMAP_SPAN("systolic.simulate.conflicts");
    const std::uint64_t probes =
        conflict_pass(plan, bucket_start, order, pe_keys, max_bucket, report);
    SYSMAP_COUNT("systolic.conflict_probes", probes);
  }

  // -- data-link collisions ---------------------------------------------
  if (plan.h_max > 0) {
    SYSMAP_SPAN("systolic.simulate.collisions");
    const std::uint64_t growths =
        collision_pass(plan, bucket_start, order, pe_keys, max_bucket, report);
    SYSMAP_COUNT("systolic.wire_table_growths", growths);
  }

  // -- buffer occupancy --------------------------------------------------
  report.buffer_high_water.assign(plan.m, 0);
  if (!plan.buffered.empty()) {
    SYSMAP_SPAN("systolic.simulate.buffers");
    for (std::size_t i : plan.buffered) {
      report.buffer_high_water[i] = buffer_high_water(plan, i, buf_starts[i]);
    }
  }

  // -- value-level execution --------------------------------------------
  if (semantic) {
    SYSMAP_SPAN("systolic.simulate.values");
    value_pass(plan, *semantic, order, report);
  }

  report.truncated_events =
      report.total_conflicts > report.conflicts.size() ||
      report.total_collisions > report.collisions.size();
  return report;
}

}  // namespace

SimulationReport simulate_engine(const model::UniformDependenceAlgorithm& algo,
                                 const ArrayDesign& design,
                                 const model::SemanticAlgorithm* semantic) {
  SYSMAP_SPAN("systolic.simulate");
  if (std::optional<FlatPlan> plan = FlatPlan::build(algo, design)) {
    SYSMAP_COUNT("systolic.flat_runs", 1);
    return run_flat(*plan, design, semantic);
  }
  SYSMAP_COUNT("systolic.seed_fallbacks", 1);
  return simulate_seed_impl(algo, design, semantic);
}

}  // namespace detail
}  // namespace sysmap::systolic
