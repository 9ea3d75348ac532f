#include "checks.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace sysbench::check {

namespace {

using Wide = __int128;

struct KeyHash {
  std::size_t operator()(std::uint64_t k) const noexcept {
    return std::hash<std::uint64_t>{}(k * 0x9e3779b97f4a7c15ULL);
  }
  std::size_t operator()(const Vec& v) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::int64_t x : v) {
      h ^= static_cast<std::uint64_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// The closed range [lo, hi] each coordinate of a key can take.
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Ranges of the rows of T j over the box.
std::vector<Range> image_ranges(const Mat& t, const Vec& mu) {
  std::vector<Range> out;
  for (const Vec& row : t) {
    Range r;
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::int64_t reach = row[c] * mu[c];
      (reach < 0 ? r.lo : r.hi) += reach;
    }
    out.push_back(r);
  }
  return out;
}

/// Calls body(key) with a function that maps a key vector (coordinates
/// within `ranges`) to a hashable key: one exact mixed-radix uint64 when
/// the ranges fit in 64 bits -- a fraction of the memory of the vectors,
/// so the checks barely move the process's peak RSS -- else the vector.
template <class Body>
void with_keys(const std::vector<Range>& ranges, Body&& body) {
  unsigned __int128 volume = 1;
  for (const Range& r : ranges) {
    volume *= static_cast<unsigned __int128>(r.hi - r.lo + 1);
    if (volume >> 64) return body([](const Vec& v) { return v; });
  }
  body([&ranges](const Vec& v) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      key = key * static_cast<std::uint64_t>(ranges[i].hi - ranges[i].lo + 1) +
            static_cast<std::uint64_t>(v[i] - ranges[i].lo);
    }
    return key;
  });
}

std::int64_t narrow(Wide x) {
  if (x > INT64_MAX || x < INT64_MIN) {
    throw std::overflow_error("sysbench check: value exceeds int64");
  }
  return static_cast<std::int64_t>(x);
}

Wide wabs(Wide x) { return x < 0 ? -x : x; }

Wide gcd_wide(Wide a, Wide b) {
  a = wabs(a);
  b = wabs(b);
  while (b != 0) {
    const Wide r = a % b;
    a = b;
    b = r;
  }
  return a;
}

// Determinant by Laplace expansion along the first row; the matrices here
// are at most 5 x 5 with small entries.
Wide determinant(const std::vector<std::vector<Wide>>& m) {
  const std::size_t n = m.size();
  if (n == 0) return 1;
  if (n == 1) return m[0][0];
  if (n == 2) return m[0][0] * m[1][1] - m[0][1] * m[1][0];
  Wide det = 0;
  std::vector<std::vector<Wide>> minor(n - 1, std::vector<Wide>(n - 1));
  for (std::size_t c = 0; c < n; ++c) {
    if (m[0][c] == 0) continue;
    for (std::size_t r = 1; r < n; ++r) {
      std::size_t cc = 0;
      for (std::size_t col = 0; col < n; ++col) {
        if (col != c) minor[r - 1][cc++] = m[r][col];
      }
    }
    const Wide term = m[0][c] * determinant(minor);
    det += (c % 2 == 0) ? term : -term;
  }
  return det;
}

// Visits every point of the box {0..mu_1} x ... x {0..mu_n} in row-major
// order.
template <class Visit>
void for_each_point(const Vec& mu, Visit&& visit) {
  for (std::int64_t m : mu) {
    if (m < 0) return;
  }
  Vec j(mu.size(), 0);
  while (true) {
    visit(j);
    std::size_t r = mu.size();
    while (r > 0) {
      --r;
      if (j[r] < mu[r]) {
        ++j[r];
        break;
      }
      j[r] = 0;
      if (r == 0) return;
    }
    if (mu.empty()) return;
  }
}

Vec image(const Mat& t, const Vec& j) {
  Vec out(t.size(), 0);
  for (std::size_t r = 0; r < t.size(); ++r) {
    Wide acc = 0;
    for (std::size_t c = 0; c < j.size(); ++c) acc += Wide{t[r][c]} * j[c];
    out[r] = narrow(acc);
  }
  return out;
}

Mat with_schedule(const Mat& s, const Vec& pi) {
  Mat t = s;
  t.push_back(pi);
  return t;
}

// gamma(Pi) for T = [S; Pi] is linear in Pi; column c of the returned
// n x n matrix is gamma(e_c), so gamma(Pi) = G Pi.
std::vector<std::vector<Wide>> cross_product_map(const Mat& s,
                                                 std::size_t n) {
  std::vector<std::vector<Wide>> g(n, std::vector<Wide>(n, 0));
  std::vector<std::vector<Wide>> sub(n - 1, std::vector<Wide>(n - 1));
  for (std::size_t c = 0; c < n; ++c) {
    Mat t = s;
    Vec e(n, 0);
    e[c] = 1;
    t.push_back(e);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t r = 0; r + 1 < n; ++r) {
        std::size_t cc = 0;
        for (std::size_t col = 0; col < n; ++col) {
          if (col != i) sub[r][cc++] = t[r][col];
        }
      }
      const Wide minor = determinant(sub);
      g[i][c] = (i % 2 == 0) ? minor : -minor;
    }
  }
  return g;
}

// Theorem 2.2 on an unreduced gamma: conflict-free iff gamma != 0 and its
// primitive form leaves the box difference set in some coordinate.
bool gamma_conflict_free(const std::vector<Wide>& gamma, const Vec& mu) {
  Wide g = 0;
  for (Wide x : gamma) g = gcd_wide(g, x);
  if (g == 0) return false;  // rank(T) < n-1
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    if (wabs(gamma[i] / g) > mu[i]) return true;
  }
  return false;
}

// Calls visit(pi) for every integral Pi with sum |pi_i| mu_i <= budget;
// coordinates with mu_i <= 0 are pinned to 0 (they do not enter the
// objective, so the set would otherwise be infinite).  Stops early when
// visit returns false; returns false in that case.
template <class Visit>
bool for_each_schedule_within(const Vec& mu, std::int64_t budget,
                              Visit&& visit) {
  Vec pi(mu.size(), 0);
  auto rec = [&](auto&& self, std::size_t i, std::int64_t left) -> bool {
    if (i == mu.size()) return visit(pi);
    if (mu[i] <= 0) {
      pi[i] = 0;
      return self(self, i + 1, left);
    }
    const std::int64_t reach = left / mu[i];
    for (std::int64_t v = -reach; v <= reach; ++v) {
      pi[i] = v;
      if (!self(self, i + 1, left - std::llabs(v) * mu[i])) return false;
    }
    pi[i] = 0;
    return true;
  };
  return rec(rec, 0, budget);
}

Verdict fail(std::string why) { return {false, std::move(why)}; }

std::string show(const Vec& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

}  // namespace

bool respects_dependences(const Mat& d, const Vec& pi) {
  if (d.size() != pi.size()) return false;
  const std::size_t m = d.empty() ? 0 : d[0].size();
  for (std::size_t c = 0; c < m; ++c) {
    Wide dot = 0;
    for (std::size_t r = 0; r < d.size(); ++r) dot += Wide{pi[r]} * d[r][c];
    if (dot <= 0) return false;
  }
  return true;
}

std::int64_t objective(const Vec& mu, const Vec& pi) {
  Wide f = 0;
  for (std::size_t i = 0; i < mu.size() && i < pi.size(); ++i) {
    f += wabs(pi[i]) * mu[i];
  }
  return narrow(f);
}

std::size_t rank(const Mat& t) {
  std::vector<std::vector<Wide>> a;
  for (const Vec& row : t) a.emplace_back(row.begin(), row.end());
  const std::size_t cols = a.empty() ? 0 : a[0].size();
  std::size_t r = 0;
  for (std::size_t c = 0; c < cols && r < a.size(); ++c) {
    std::size_t p = r;
    while (p < a.size() && a[p][c] == 0) ++p;
    if (p == a.size()) continue;
    std::swap(a[p], a[r]);
    for (std::size_t i = r + 1; i < a.size(); ++i) {
      if (a[i][c] == 0) continue;
      const Wide f = a[i][c];
      const Wide pv = a[r][c];
      Wide g = 0;
      for (std::size_t k = 0; k < cols; ++k) {
        a[i][k] = a[i][k] * pv - a[r][k] * f;
        g = gcd_wide(g, a[i][k]);
      }
      if (g > 1) {
        for (std::size_t k = 0; k < cols; ++k) a[i][k] /= g;
      }
    }
    ++r;
  }
  return r;
}

Vec conflict_vector(const Mat& t) {
  const std::size_t n = t.empty() ? 0 : t[0].size();
  if (n < 2 || t.size() + 1 != n) {
    throw std::invalid_argument("conflict_vector: T must be (n-1) x n");
  }
  const Mat s(t.begin(), t.end() - 1);
  const std::vector<std::vector<Wide>> g = cross_product_map(s, n);
  std::vector<Wide> gamma(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < n; ++c) gamma[i] += g[i][c] * t.back()[c];
  }
  Wide div = 0;
  for (Wide x : gamma) div = gcd_wide(div, x);
  Vec out(n, 0);
  if (div == 0) return out;
  for (std::size_t i = 0; i < n; ++i) out[i] = narrow(gamma[i] / div);
  return out;
}

bool conflict_free_theorem22(const Mat& t, const Vec& mu) {
  const Vec gamma = conflict_vector(t);
  bool nonzero = false;
  bool escapes = false;
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    if (gamma[i] != 0) nonzero = true;
    if (std::llabs(gamma[i]) > mu[i]) escapes = true;
  }
  return nonzero && escapes;
}

bool injective_on_box(const Mat& t, const Vec& mu) {
  bool injective = true;
  with_keys(image_ranges(t, mu), [&](auto key) {
    std::unordered_set<decltype(key(Vec{})), KeyHash> seen;
    for_each_point(mu, [&](const Vec& j) {
      if (injective && !seen.insert(key(image(t, j))).second) {
        injective = false;
      }
    });
  });
  return injective;
}

std::int64_t count_images(const Mat& s, const Vec& mu) {
  std::size_t count = 0;
  with_keys(image_ranges(s, mu), [&](auto key) {
    std::unordered_set<decltype(key(Vec{})), KeyHash> images;
    for_each_point(mu, [&](const Vec& j) { images.insert(key(image(s, j))); });
    count = images.size();
  });
  return static_cast<std::int64_t>(count);
}

std::int64_t wire_length(const Mat& s, const Mat& d) {
  const std::size_t m = d.empty() ? 0 : d[0].size();
  Wide total = 0;
  for (std::size_t c = 0; c < m; ++c) {
    for (const Vec& row : s) {
      Wide dot = 0;
      for (std::size_t r = 0; r < d.size(); ++r) dot += Wide{row[r]} * d[r][c];
      total += wabs(dot);
    }
  }
  return narrow(total);
}

Verdict check_optimal_schedule(const Mat& s, const Mat& d, const Vec& mu,
                               bool found, const Vec& pi,
                               std::int64_t objective_value,
                               std::int64_t makespan,
                               std::int64_t max_objective) {
  const std::size_t n = mu.size();
  if (s.size() + 2 != n) return fail("S is not (n-2) x n");
  const std::vector<std::vector<Wide>> g = cross_product_map(s, n);
  auto feasible = [&](const Vec& p) {
    if (!respects_dependences(d, p)) return false;
    std::vector<Wide> gamma(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < n; ++c) gamma[i] += g[i][c] * p[c];
    }
    return gamma_conflict_free(gamma, mu);
  };

  if (!found) {
    // The reference answer: the first feasible Pi in a widening search.
    Vec witness;
    for (std::int64_t bound = 1;; bound = std::min(2 * bound, max_objective)) {
      for_each_schedule_within(mu, bound, [&](const Vec& p) {
        if (!feasible(p)) return true;
        witness = p;
        return false;
      });
      if (!witness.empty()) {
        return fail("found = false but Pi = " + show(witness) +
                    " is conflict-free with objective " +
                    std::to_string(objective(mu, witness)));
      }
      if (bound >= max_objective) return {};
    }
  }
  if (pi.size() != n) return fail("Pi has the wrong width");
  if (!respects_dependences(d, pi)) return fail("Pi D > 0 violated");
  const std::int64_t f = objective(mu, pi);
  if (f != objective_value) {
    return fail("objective " + std::to_string(objective_value) +
                " but sum |pi_i| mu_i = " + std::to_string(f));
  }
  if (makespan != f + 1) {
    return fail("makespan " + std::to_string(makespan) + " but f + 1 = " +
                std::to_string(f + 1));
  }
  if (!conflict_free_theorem22(with_schedule(s, pi), mu)) {
    return fail("T = [S; Pi] has a conflict or rank < n-1 (Theorem 2.2)");
  }
  Vec better;
  for_each_schedule_within(mu, f - 1, [&](const Vec& p) {
    if (!feasible(p)) return true;
    better = p;
    return false;
  });
  if (!better.empty()) {
    return fail("not optimal: Pi = " + show(better) + " has objective " +
                std::to_string(objective(mu, better)) + " < " +
                std::to_string(f));
  }
  return {};
}

Verdict check_design_point(const Mat& s, const Vec& pi, std::int64_t makespan,
                           std::int64_t processors, std::int64_t wire,
                           const Mat& d, const Vec& mu) {
  if (pi.size() != mu.size()) return fail("Pi has the wrong width");
  if (!respects_dependences(d, pi)) return fail("Pi D > 0 violated");
  if (makespan != objective(mu, pi) + 1) {
    return fail("makespan " + std::to_string(makespan) +
                " but f(Pi) + 1 = " + std::to_string(objective(mu, pi) + 1));
  }
  const Mat t = with_schedule(s, pi);
  if (rank(t) != t.size()) return fail("rank(T) < k");
  if (!injective_on_box(t, mu)) return fail("T j repeats on J (conflict)");
  if (count_images(s, mu) != processors) {
    return fail("processor count " + std::to_string(processors) + " but " +
                std::to_string(count_images(s, mu)) + " distinct S j");
  }
  if (wire_length(s, d) != wire) {
    return fail("wire length " + std::to_string(wire) + " but " +
                std::to_string(wire_length(s, d)));
  }
  return {};
}

SimCounts expected_sim_counts(const Mat& s, const Vec& pi, const Mat& d,
                              const Vec& mu) {
  const Mat t = with_schedule(s, pi);
  const std::size_t m = d.empty() ? 0 : d[0].size();
  std::vector<Vec> sd(m);
  std::vector<bool> routed(m, false);
  for (std::size_t c = 0; c < m; ++c) {
    Vec col(d.size());
    for (std::size_t r = 0; r < d.size(); ++r) col[r] = d[r][c];
    sd[c] = image(s, col);
    routed[c] = std::any_of(sd[c].begin(), sd[c].end(),
                            [](std::int64_t x) { return x != 0; });
  }
  // Wire keys: (source PE, link, cycle), with the PE and cycle ranges of
  // the image box (a source j - d_i lies in the box too).
  const std::vector<Range> t_ranges = image_ranges(t, mu);
  std::vector<Range> wire_ranges(t_ranges.begin(), t_ranges.end() - 1);
  wire_ranges.push_back({0, static_cast<std::int64_t>(m)});
  wire_ranges.push_back(t_ranges.back());
  SimCounts out;
  with_keys(t_ranges, [&](auto busy_key) {
    with_keys(wire_ranges, [&](auto wire_key) {
      std::unordered_set<decltype(busy_key(Vec{})), KeyHash> busy;
      std::unordered_map<decltype(wire_key(Vec{})), int, KeyHash> wires;
      Vec src(mu.size());
      for_each_point(mu, [&](const Vec& j) {
        const Vec tj = image(t, j);
        if (!busy.insert(busy_key(tj)).second) ++out.conflicts;
        for (std::size_t c = 0; c < m; ++c) {
          if (!routed[c]) continue;
          bool inside = true;
          for (std::size_t r = 0; r < mu.size(); ++r) {
            src[r] = j[r] - d[r][c];
            if (src[r] < 0 || src[r] > mu[r]) inside = false;
          }
          if (!inside) continue;
          Vec key = image(s, src);
          key.push_back(static_cast<std::int64_t>(c));
          key.push_back(tj.back());
          if (++wires[wire_key(key)] == 2) ++out.collisions;
        }
      });
    });
  });
  return out;
}

Mat matmul(const Mat& a, const Mat& b) {
  const std::size_t rows = a.size();
  const std::size_t inner = b.size();
  const std::size_t cols = inner == 0 ? 0 : b[0].size();
  Mat c(rows, Vec(cols, 0));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      Wide acc = 0;
      for (std::size_t k = 0; k < inner; ++k) acc += Wide{a[i][k]} * b[k][j];
      c[i][j] = narrow(acc);
    }
  }
  return c;
}

Vec convolution(const Vec& w, const Vec& x, std::int64_t mu_i,
                std::int64_t mu_k) {
  Vec y(static_cast<std::size_t>(mu_i + 1), 0);
  for (std::int64_t i = 0; i <= mu_i; ++i) {
    Wide acc = 0;
    for (std::int64_t k = 0; k <= mu_k; ++k) {
      acc += Wide{w[static_cast<std::size_t>(k)]} *
             x[static_cast<std::size_t>(i - k + mu_k)];
    }
    y[static_cast<std::size_t>(i)] = narrow(acc);
  }
  return y;
}

std::int64_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::int64_t> prev(b.size() + 1);
  std::vector<std::int64_t> cur(b.size() + 1);
  std::iota(prev.begin(), prev.end(), 0);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<std::int64_t>(i);
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::int64_t subst = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

Vec matvec(const Mat& a, const Vec& x) {
  Vec y(a.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    Wide acc = 0;
    for (std::size_t j = 0; j < x.size(); ++j) acc += Wide{a[i][j]} * x[j];
    y[i] = narrow(acc);
  }
  return y;
}

std::size_t box_ordinal(const Vec& mu, const Vec& j) {
  std::size_t ord = 0;
  for (std::size_t r = 0; r < mu.size(); ++r) {
    ord = ord * static_cast<std::size_t>(mu[r] + 1) +
          static_cast<std::size_t>(j[r]);
  }
  return ord;
}

}  // namespace sysbench::check
