#include "support/flat_image_set.hpp"

#include <algorithm>
#include <limits>
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

namespace {

/// largest_fiber counts in a dense array when the image box holds at most
/// kDenseFiberFactor cells per index point and at most kMaxDenseFiberCells
/// cells (16 MiB), and in a FlatCounterMap otherwise.
constexpr std::uint64_t kDenseFiberFactor = 4;
constexpr std::uint64_t kMaxDenseFiberCells = std::uint64_t{1} << 22;

// SYSMAP_RAW_FASTPATH(bounded: all image-key arithmetic is uint64 modulo
// 2^64 by design -- the packed keys are exact values below
// packing.product, so wrapping sums of packed deltas land on the exact
// packed key; see support/packed_coord.hpp for the argument)
//
// Odometer over the box in axis order, where stepping axis i adds column
// i of S to the image point -- and, because packing is linear, adds ONE
// precomputed uint64 delta to the packed key.  No mat-vec, no image
// vector, no per-point allocation.  `visit(key)` sees the packed image of
// every index point and returns false to stop the walk (mirrored in the
// return value).
template <typename Visit>
bool walk_packed_images(const model::IndexSet& set, const MatI& space,
                        const ImagePacking& packing, Visit&& visit) {
  const std::size_t n = set.dimension();
  const std::size_t m = space.rows();
  // step[i] moves axis i up by one; back[i] carries it from mu_i back to
  // 0, subtracting mu_i steps (wrapping).
  std::vector<std::uint64_t> deltas(2 * n, 0);
  std::uint64_t* step = deltas.data();
  std::uint64_t* back = step + n;
  VecI col(m, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < m; ++r) col[r] = space(r, i);
    step[i] = packing.pack_delta(col);
    back[i] = std::uint64_t{0} -
              static_cast<std::uint64_t>(set.mu(i)) * step[i];
  }
  std::uint64_t key = packing.pack(VecI(m, 0));  // image of j = 0
  if (!visit(key)) return false;
  VecI v(n, 0);
  for (;;) {
    std::size_t i = 0;
    while (i < n && v[i] == set.mu(i)) {
      key += back[i];
      v[i] = 0;
      ++i;
    }
    if (i == n) return true;
    ++v[i];
    key += step[i];
    if (!visit(key)) return false;
  }
}

}  // namespace

Int count_images(const model::IndexSet& set, const MatI& space,
                 const std::optional<ImagePacking>& packing,
                 FlatImageSet& table, Int exit_above) {
  if (!packing) return count_images_generic(set, space, exit_above);
  SYSMAP_COUNT("support.image_count.packed_walks", 1);
  table.clear();
  Int count = 0;
  const bool complete =
      walk_packed_images(set, space, *packing, [&](std::uint64_t key) {
        if (table.insert(key)) ++count;
        return exit_above < 0 || count <= exit_above;
      });
  return complete ? count : Int{-1};
}

Int count_images(const model::IndexSet& set, const MatI& space) {
  FlatImageSet table;
  return count_images(set, space, ImagePacking::build(space, set), table);
}

std::optional<Int> largest_fiber(const model::IndexSet& set,
                                 const MatI& space) {
  std::optional<ImagePacking> packing = ImagePacking::build(space, set);
  if (!packing) return std::nullopt;
  std::uint64_t points = 0;
  try {
    points = set.size_u64();
  } catch (const exact::OverflowError&) {
    return std::nullopt;
  }
  // The counts are 32-bit: a box that fits them cannot saturate one.
  if (points > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  std::uint32_t largest = 0;
  if (packing->product <=
      std::min(kDenseFiberFactor * points, kMaxDenseFiberCells)) {
    // An image box within a small multiple of |J| is cheaper to count
    // densely, one cell per packed key, than to hash.
    std::vector<std::uint32_t> fibers(
        static_cast<std::size_t>(packing->product), 0);
    walk_packed_images(set, space, *packing, [&](std::uint64_t key) {
      largest = std::max(largest, ++fibers[key]);
      return true;
    });
  } else {
    FlatCounterMap fibers;
    walk_packed_images(set, space, *packing, [&](std::uint64_t key) {
      largest = std::max(largest, fibers.add(key, 1));
      return true;
    });
  }
  return static_cast<Int>(largest);
}

}  // namespace sysmap::support
