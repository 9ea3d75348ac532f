// Canonical-form verdict cache: memoizes k <= n-2 conflict-freedom
// outcomes across Pi candidates (and across searches that share one cache)
// keyed by mapping::ConflictKey -- the canonical kernel form of the data
// the verdict is actually a function of.
//
// WHO PASSES ONE.  It is an opt-in memo: only callers of procedure_5_1
// that set SearchOptions::verdict_cache use it (benchmark replays,
// bench/search_throughput, tests).  The library itself -- MappingPipeline
// and the Problem 6.1/6.2 sweeps -- never builds one (docs/PERF.md, "Why
// the pipeline and the sweeps build none").
//
// WHAT IS STORED.  Only what the sweep observes: FixedSpaceContext::screen()
// returns nullopt for every rejected candidate (no rule, no witness) and
// an accepting verdict whose rule string is determined by the canonical
// key.  So an Outcome is (conflict_free, accept-rule); reject rules and
// witnesses are never cached because they are never observable through
// the cached entry points.
//
// ADMISSION POLICY (the parity argument, enforced in fixed_space.cpp):
//   - k = n-1 and k = n: never cached.  FixedSpaceContext::screen decides
//     k = n-1 with Theorem 3.1's O(n) test, which costs less than
//     building a key; k = n is a rank test.
//   - k <= n-2, kPaperTheorems: ALWAYS cacheable.  The tail is a single
//     theorem_4_7/4_8/4_5 call; their accept/unknown conditions read the
//     kernel block only through sign-class certification, per-row gcds
//     and minor nonsingularity -- all invariant under the key's
//     canonicalization moves (column sign flips + column permutation),
//     with constant accept-rule strings.
//   - k <= n-2, kExact: REJECTS always cacheable (the ladder is sound, so
//     kHasConflict is a property of the kernel lattice itself, which the
//     key determines: unimodular-U columns are primitive, so sign flips +
//     permutation preserve the lattice).  ACCEPTS cacheable ONLY when the
//     rule is the pre-LLL "sign-pattern: every beta sign class certified"
//     (invariant, see exact_accept_rule_cacheable): the later ladder
//     rungs go through LLL reduction, whose round-nearest tie-break is
//     not odd-symmetric, and through enumeration bounds derived from
//     hnf.v -- both depend on the basis REPRESENTATIVE, not the canonical
//     key, so two same-key candidates may accept under different rules.
//     kUnknown outcomes there are never cached for the same reason.
//   - kBruteForce: never cached (screen() never passes it the cache).
//
// CONCURRENCY.  Sharded by key hash; each shard is an independent
// mutex-protected map, so pool workers screening disjoint candidates
// rarely contend.  Hit/miss counters are relaxed atomics -- they feed
// bench JSON and the search.verdict_cache.* obs counters, not control
// flow, and are therefore EXCLUDED from the bit-identical result contract
// (parallel interleaving makes per-run counts nondeterministic by nature).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "mapping/canonical_key.hpp"

namespace sysmap::search {

/// True when a k <= n-2 ACCEPT under the exact oracle may be memoized:
/// only the pre-LLL sign-pattern certificate is a function of the
/// canonical kernel key (see the admission policy above).
inline bool exact_accept_rule_cacheable(std::string_view rule) {
  return rule == "sign-pattern: every beta sign class certified";
}

class VerdictCache {
 public:
  /// The observable slice of a screen() outcome: whether the
  /// candidate is conflict-free and, for accepts, the rule string of the
  /// accepting verdict (constant per canonical key under the admission
  /// policy).
  struct Outcome {
    bool conflict_free = false;
    std::string rule;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;  ///< inserts that created an entry
    std::uint64_t entries = 0;     ///< live entries across all shards
  };

  explicit VerdictCache(std::size_t shard_count = 16);
  ~VerdictCache();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Returns the memoized outcome and bumps the hit counter, or nullopt
  /// and bumps the miss counter.
  std::optional<Outcome> lookup(const mapping::ConflictKey& key) const;

  /// Memoizes an outcome; first writer wins (idempotent under the
  /// admission policy -- every writer would store the same outcome).
  void insert(const mapping::ConflictKey& key, bool conflict_free,
              std::string_view rule);

  Stats stats() const;
  void clear();

 private:
  struct Shard;
  std::size_t shard_for(const mapping::ConflictKey& key) const noexcept;

  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
};

/// Sharded memo of exact processor counts keyed by the cost-orbit
/// canonical form of S (mapping::SpaceOrbitCanonicalizer).  Every
/// writer for a given key computes the same exact count (the key proves
/// the counts equal), so insertion is idempotent and a hit is
/// bit-identical to recounting -- which is why the space sweep's results
/// never depend on hit/miss interleaving.  Counters are relaxed atomics,
/// excluded from the result contract exactly like VerdictCache's.
class ImageCountCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
  };

  explicit ImageCountCache(std::size_t shard_count = 16);
  ~ImageCountCache();

  ImageCountCache(const ImageCountCache&) = delete;
  ImageCountCache& operator=(const ImageCountCache&) = delete;

  /// Returns the memoized count and bumps the hit counter, or nullopt and
  /// bumps the miss counter.
  std::optional<Int> lookup(const mapping::ConflictKey& key) const;

  /// Memoizes an exact count; first writer wins.
  void insert(const mapping::ConflictKey& key, Int count);

  Stats stats() const;

 private:
  struct Shard;
  std::size_t shard_for(const mapping::ConflictKey& key) const noexcept;

  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace sysmap::search
