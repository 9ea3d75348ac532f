#include "support/flat_image_set.hpp"

#include <set>

#include "obs/obs.hpp"

namespace sysmap::support {

Int count_images_generic(const model::IndexSet& set, const MatI& space,
                         Int exit_above) {
  SYSMAP_COUNT("support.image_count.set_fallbacks", 1);
  std::set<VecI> images;
  const bool complete = set.for_each_while([&](const VecI& j) {
    images.insert(space * j);
    return exit_above < 0 || static_cast<Int>(images.size()) <= exit_above;
  });
  return complete ? static_cast<Int>(images.size()) : Int{-1};
}

// SYSMAP_RAW_FASTPATH(bounded: all image-key arithmetic is uint64 modulo
// 2^64 by design -- the packed keys are exact values below
// packing.product, so wrapping sums of packed deltas land on the exact
// packed key; see support/packed_coord.hpp for the argument)
//
// Odometer over the box in axis order, where stepping axis i adds column
// i of S to the image point -- and, because packing is linear, adds ONE
// precomputed uint64 delta to the packed key.  No mat-vec, no image
// vector, no per-point allocation.
Int count_images(const model::IndexSet& set, const MatI& space,
                 const std::optional<ImagePacking>& packing,
                 FlatImageSet& table, Int exit_above) {
  if (!packing) return count_images_generic(set, space, exit_above);
  SYSMAP_COUNT("support.image_count.packed_walks", 1);
  const std::size_t n = set.dimension();
  const std::size_t m = space.rows();
  table.clear();
  std::vector<std::uint64_t> step(n, 0);
  std::vector<std::uint64_t> back(n, 0);
  VecI col(m, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < m; ++r) col[r] = space(r, i);
    step[i] = packing->pack_delta(col);
    // Carrying axis i from mu_i back to 0 subtracts mu_i steps (wrapping).
    back[i] = std::uint64_t{0} -
              static_cast<std::uint64_t>(set.mu(i)) * step[i];
  }
  std::uint64_t key = packing->pack(VecI(m, 0));  // image of j = 0
  table.insert(key);
  Int count = 1;
  if (exit_above >= 0 && count > exit_above) return -1;
  VecI v(n, 0);
  for (;;) {
    std::size_t i = 0;
    while (i < n && v[i] == set.mu(i)) {
      key += back[i];
      v[i] = 0;
      ++i;
    }
    if (i == n) break;
    ++v[i];
    key += step[i];
    if (table.insert(key)) {
      ++count;
      if (exit_above >= 0 && count > exit_above) return -1;
    }
  }
  return count;
}

Int count_images(const model::IndexSet& set, const MatI& space) {
  FlatImageSet table;
  return count_images(set, space, ImagePacking::build(space, set), table);
}

}  // namespace sysmap::support
