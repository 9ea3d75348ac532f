// The exact processor-image counter |{S j : j in J}| and the flat
// open-addressing set it walks into, plus the largest-fiber count the
// same walk gives with a counter map.  Every processor count in the library
// comes from here: the Problem 6.1/6.2 space sweeps and the dedicated
// arrays of Definition 2.2, whose PEs are exactly the distinct images S j.
// The walk packs images with ImagePacking (support/packed_coord.hpp).  The
// packing is LINEAR in y, so an odometer step S(j + e_i) = S j + s_i adds
// one uint64 delta to the packed key and never materializes y.  The set is
// a power-of-two open-addressing table (linear probing, Fibonacci
// hashing): one cache line per probe, no allocation per insert.  Image
// boxes that do not pack into uint64 fall back to a std::set of image
// vectors.  tests/image_count_test.cpp holds both paths to a brute force.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "support/packed_coord.hpp"

namespace sysmap::support {

/// Open-addressing hash set of uint64 keys (linear probing, power-of-two
/// capacity, Fibonacci hashing).  Keys must never equal UINT64_MAX (the
/// empty sentinel) -- guaranteed for ImagePacking keys, which stay below
/// `product`.
class FlatImageSet {
 public:
  static constexpr std::uint64_t kEmpty = UINT64_MAX;

  /// `expected` sizes the initial table (rounded up to a power of two at
  /// 50% target load); the table grows by doubling past 70% load.
  explicit FlatImageSet(std::size_t expected = 64) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
  }

  std::size_t size() const noexcept { return size_; }

  /// Inserts `key`; returns true when the key is new.
  bool insert(std::uint64_t key) {
    // SYSMAP_RAW_FASTPATH(bounded: index arithmetic is uint64 modulo the
    // power-of-two table mask; keys are compared, never combined)
    std::size_t i = probe(key);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    ++size_;
    if (size_ * 10 >= (mask_ + 1) * 7) grow();
    return true;
  }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

 private:
  std::size_t probe(std::uint64_t key) const noexcept {
    // SYSMAP_RAW_FASTPATH(bounded: Fibonacci multiplicative hash, wrapping
    // uint64 multiply by design; the shift keeps the index under the mask)
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask_;
  }

  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign((mask_ + 1) * 2, kEmpty);
    mask_ = slots_.size() - 1;
    for (std::uint64_t key : old) {
      if (key == kEmpty) continue;
      std::size_t i = probe(key);
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Exact |{S j : j in J}|.  `packing` must be ImagePacking::build(space,
/// set); the packed walk reuses `table`, and nullopt falls back to
/// count_images_generic.  With `exit_above >= 0` the count stops and
/// returns -1 as soon as it exceeds exit_above.
Int count_images(const model::IndexSet& set, const MatI& space,
                 const std::optional<ImagePacking>& packing,
                 FlatImageSet& table, Int exit_above = -1);

/// Exact |{S j : j in J}| with a private table.
Int count_images(const model::IndexSet& set, const MatI& space);

/// The largest fiber F(S) = max_p |{j in J : S j = p}|: the packed walk of
/// count_images with a FlatCounterMap of per-image multiplicities in place
/// of the set.  nullopt when the image box does not pack into uint64 or
/// |J| does not fit the map's 32-bit counts.  A conflict-free [S; Pi] is
/// injective on J, so every schedule of S has objective >= F(S) - 1 (the
/// pipeline's pigeonhole start level, search/pipeline.hpp).
std::optional<Int> largest_fiber(const model::IndexSet& set,
                                 const MatI& space);

/// The std::set-of-image-vectors count, for image boxes that do not pack
/// into uint64.  Same contract as count_images.
Int count_images_generic(const model::IndexSet& set, const MatI& space,
                         Int exit_above = -1);

}  // namespace sysmap::support
