// Mixed-radix uint64 packing of integer coordinate boxes, plus the flat
// open-addressing tables built on top of it.
//
// Several engines in this library need to key hash tables by small integer
// vectors: image points S j of an index set (the Problem 6.1/6.2 processor
// counts), PE coordinates of a mapped computation, or composite
// (PE, primitive, dependence) wire identities in the systolic
// simulator.  All of those vectors live in a known box
// [lo_0, hi_0] x ... x [lo_{r-1}, hi_{r-1}]; whenever the box volume fits
// in uint64 every point packs into ONE machine word:
//   key(y) = sum_r (y_r - lo_r) * stride_r,
//   stride_r = prod_{r'<r} (hi_{r'} - lo_{r'} + 1).
// The packing is LINEAR in y, so incremental walks (y' = y + delta) update
// a packed key with a single wrapping uint64 add and never materialize y.
// Builders return nullopt when a bound or the radix product leaves uint64
// range; callers then fall back to tree-map/set storage of un-packed
// vectors (and the tests hold the two paths equal).
// The processor-image counter built on this packing is in
// support/flat_image_set.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "exact/checked.hpp"
#include "linalg/matrix.hpp"
#include "linalg/types.hpp"
#include "model/index_set.hpp"

namespace sysmap::support {

/// Mixed-radix packing of the image box of S over an index set (or of any
/// explicitly bounded coordinate box).  Builders return nullopt when a
/// bound or the radix product leaves uint64 range; callers then fall back
/// to counting un-packed image vectors.
struct ImagePacking {
  /// Per-row image minimum min_r (the packing subtracts it).
  VecI row_min;
  /// Per-row radix range_r + 1 = max_r - min_r + 1.
  std::vector<std::uint64_t> radix;
  /// Per-row stride, stride_0 = 1, stride_r = stride_{r-1} * radix_{r-1}.
  std::vector<std::uint64_t> stride;
  /// prod_r radix_r; every packed key is < product <= UINT64_MAX, so
  /// UINT64_MAX itself is free to serve as the table's empty sentinel.
  std::uint64_t product = 1;

  /// Packs one image vector.  Precondition: y is inside the image box.
  std::uint64_t pack(const VecI& y) const noexcept {
    // SYSMAP_RAW_FASTPATH(bounded: y_r lies in [min_r, max_r] by the
    // builder's definition of the image box, so y_r - min_r < radix_r and
    // the mixed-radix accumulation stays below `product`, which fits u64)
    std::uint64_t key = 0;
    for (std::size_t r = 0; r < radix.size(); ++r) {
      key += static_cast<std::uint64_t>(y[r] - row_min[r]) * stride[r];
    }
    return key;
  }

  /// The packed-key increment of an image-space step `delta` (the linearity
  /// of pack(): pack(y + delta) = pack(y) + pack_delta(delta) mod 2^64).
  std::uint64_t pack_delta(const VecI& delta) const noexcept {
    // SYSMAP_RAW_FASTPATH(bounded: computed modulo 2^64 on purpose -- both
    // packed keys are exact values below `product`, so their wrapping
    // difference is the exact wrapping increment)
    std::uint64_t key = 0;
    for (std::size_t r = 0; r < radix.size(); ++r) {
      key += static_cast<std::uint64_t>(delta[r]) * stride[r];
    }
    return key;
  }

  /// Inverse of pack(): writes the box point with key `key` into `y`
  /// (resized to the box dimension).  Precondition: key < product.
  void unpack(std::uint64_t key, VecI& y) const {
    y.resize(radix.size());
    for (std::size_t r = 0; r < radix.size(); ++r) {
      // SYSMAP_RAW_FASTPATH(bounded: key % radix_r < radix_r, so the digit
      // plus row_min stays inside [min_r, max_r], both valid int64 by the
      // builder's checked bound computation)
      y[r] = row_min[r] + static_cast<Int>(key % radix[r]);
      key /= radix[r];
    }
  }

  /// Builds the packing for `space` over `set`: per-row image bounds from
  /// the signed parts of each row, checked arithmetic throughout.  Returns
  /// nullopt when any bound or the radix product does not fit.
  static std::optional<ImagePacking> build(const MatI& space,
                                           const model::IndexSet& set) {
    const std::size_t m = space.rows();
    const std::size_t n = space.cols();
    if (n != set.dimension()) return std::nullopt;
    VecI lo(m, 0);
    VecI hi(m, 0);
    try {
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
          const Int s = space(r, j);
          const Int term = exact::mul_checked(s, set.mu(j));
          if (s < 0) {
            lo[r] = exact::add_checked(lo[r], term);
          } else if (s > 0) {
            hi[r] = exact::add_checked(hi[r], term);
          }
        }
      }
    } catch (const exact::OverflowError&) {
      return std::nullopt;
    }
    return build_from_bounds(lo, hi);
  }

  /// Builds the packing for an explicit box prod_r [lo_r, hi_r] (every
  /// lo_r <= hi_r).  Returns nullopt when a range or the radix product
  /// leaves uint64 range.
  static std::optional<ImagePacking> build_from_bounds(const VecI& lo,
                                                       const VecI& hi) {
    const std::size_t m = lo.size();
    if (hi.size() != m) return std::nullopt;
    ImagePacking p;
    p.row_min = lo;
    p.radix.resize(m);
    p.stride.resize(m);
    p.product = 1;
    try {
      for (std::size_t r = 0; r < m; ++r) {
        if (hi[r] < lo[r]) return std::nullopt;
        const std::uint64_t range =
            static_cast<std::uint64_t>(exact::sub_checked(hi[r], lo[r]));
        if (range == UINT64_MAX) return std::nullopt;  // radix would wrap
        p.radix[r] = range + 1;
        p.stride[r] = p.product;
        // u64 product with overflow detection (the packing must be a
        // bijection into [0, product)).
        std::uint64_t next = 0;
        if (__builtin_mul_overflow(p.product, p.radix[r], &next)) {
          return std::nullopt;
        }
        p.product = next;
      }
    } catch (const exact::OverflowError&) {
      return std::nullopt;
    }
    return p;
  }
};

/// Open-addressing hash map from uint64 keys to a 32-bit payload (linear
/// probing, power-of-two capacity, Fibonacci hashing).  Keys must never
/// equal UINT64_MAX (the empty sentinel) -- guaranteed for ImagePacking
/// keys, which stay below `product`.  Used by the systolic engine for
/// per-PE buffer levels; doubles past 70% load.
class FlatCounterMap {
 public:
  static constexpr std::uint64_t kEmpty = UINT64_MAX;

  explicit FlatCounterMap(std::size_t expected = 64) { reset(expected); }

  std::size_t size() const noexcept { return size_; }

  /// Drops every entry and resizes for `expected` keys.
  void reset(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    keys_.assign(cap, kEmpty);
    values_.assign(cap, 0);
    mask_ = cap - 1;
    size_ = 0;
  }

  /// Adds `delta` to the payload of `key` (inserting 0 first) and returns
  /// the new payload value.
  std::uint32_t add(std::uint64_t key, std::uint32_t delta) {
    // SYSMAP_RAW_FASTPATH(bounded: index arithmetic is uint64 modulo the
    // power-of-two table mask; payloads are uint32 occupancy counts far
    // below wrap for any simulated index set)
    std::size_t i = probe(key);
    while (keys_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
    if (keys_[i] == kEmpty) {
      keys_[i] = key;
      ++size_;
      if (size_ * 10 >= (mask_ + 1) * 7) {
        grow();
        i = probe(key);
        while (keys_[i] != key) i = (i + 1) & mask_;
      }
    }
    values_[i] += delta;
    return values_[i];
  }

 private:
  std::size_t probe(std::uint64_t key) const noexcept {
    // SYSMAP_RAW_FASTPATH(bounded: Fibonacci multiplicative hash, wrapping
    // uint64 multiply by design; the shift keeps the index under the mask)
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask_;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_values = std::move(values_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    values_.assign(old_keys.size() * 2, 0);
    mask_ = keys_.size() - 1;
    for (std::size_t s = 0; s < old_keys.size(); ++s) {
      if (old_keys[s] == kEmpty) continue;
      std::size_t i = probe(old_keys[s]);
      while (keys_[i] != kEmpty) i = (i + 1) & mask_;
      keys_[i] = old_keys[s];
      values_[i] = old_values[s];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sysmap::support
