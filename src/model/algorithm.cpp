#include "model/algorithm.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace sysmap::model {

UniformDependenceAlgorithm::UniformDependenceAlgorithm(std::string name,
                                                       IndexSet index_set,
                                                       MatI dependence)
    : name_(std::move(name)),
      index_set_(std::move(index_set)),
      dependence_(std::move(dependence)) {
  if (dependence_.rows() != index_set_.dimension()) {
    throw std::invalid_argument(
        "UniformDependenceAlgorithm: D must have n rows");
  }
  for (std::size_t c = 0; c < dependence_.cols(); ++c) {
    bool all_zero = true;
    for (std::size_t r = 0; r < dependence_.rows(); ++r) {
      if (dependence_(r, c) != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) {
      throw std::invalid_argument(
          "UniformDependenceAlgorithm: zero dependence vector");
    }
  }
}

std::size_t lexicographic_ordinal(const IndexSet& set, const VecI& j) {
  std::size_t ordinal = 0;
  for (std::size_t i = 0; i < set.dimension(); ++i) {
    ordinal = ordinal * static_cast<std::size_t>(set.mu(i) + 1) +
              static_cast<std::size_t>(j[i]);
  }
  return ordinal;
}

// Memoized evaluation in lexicographic root order with an explicit stack
// (dependence chains can be as long as the whole index set, so no
// recursion).  Everything runs on lexicographic ordinals: a predecessor
// j - d_i is tested for membership digit by digit, and its ordinal is
// ord(j) - off(d_i) because ordinals are linear in j.
// SYSMAP_RAW_FASTPATH(bounded: every weight and ordinal offset stays
// within |J| - 1, a membership test compares j_r with d_ri or mu_r + d_ri,
// both in [-mu_r, mu_r], and an operand ordinal is formed after membership)
std::vector<Int> evaluate_reference(const SemanticAlgorithm& algo) {
  SYSMAP_SPAN("model.evaluate_reference");
  const IndexSet& set = algo.structure.index_set();
  const MatI& d = algo.structure.dependence_matrix();
  const VecI& mu = set.bounds();
  const std::size_t n = set.dimension();
  const std::size_t m = d.cols();
  const std::size_t total = static_cast<std::size_t>(set.size_u64());

  // Ordinal weights w_r = prod_{k > r} (mu_k + 1).  A column with some
  // |d_ri| > mu_r has no source inside J (j_r - d_ri leaves [0, mu_r] for
  // every j_r), so its operand is always a boundary value; every other
  // offset is at most sum_r mu_r w_r = |J| - 1 in magnitude.
  std::vector<std::int64_t> weight(n, 1);
  for (std::size_t r = n; r-- > 1;) weight[r - 1] = weight[r] * (mu[r] + 1);
  std::vector<char> reachable(m, 1);
  std::vector<std::int64_t> off(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t r = 0; r < n && reachable[i]; ++r) {
      if (d(r, i) < -mu[r] || d(r, i) > mu[r]) reachable[i] = 0;
    }
    if (!reachable[i]) continue;
    for (std::size_t r = 0; r < n; ++r) off[i] += d(r, i) * weight[r];
  }
  auto source_in_set = [&](const VecI& j, std::size_t i) {
    if (!reachable[i]) return false;
    for (std::size_t r = 0; r < n; ++r) {
      const Int dr = d(r, i);
      if (dr >= 0 ? j[r] < dr : j[r] > mu[r] + dr) return false;
    }
    return true;
  };
  auto source_ordinal = [&](std::size_t ord, std::size_t i) {
    return static_cast<std::size_t>(static_cast<std::int64_t>(ord) - off[i]);
  };

  enum : char { kFresh = 0, kWaiting = 1, kDone = 2 };
  std::vector<Int> value(total, 0);
  std::vector<char> state(total, kFresh);
  std::vector<std::size_t> stack;
  std::vector<Int> inputs(m, 0);
  VecI root(n, 0);   // odometer over J, lexicographic order
  VecI other(n, 0);  // coordinates of a stacked point other than the root
  for (std::size_t root_ord = 0; root_ord < total; ++root_ord) {
    if (state[root_ord] != kDone) stack.push_back(root_ord);
    while (!stack.empty()) {
      const std::size_t ord = stack.back();
      if (state[ord] == kDone) {
        stack.pop_back();
        continue;
      }
      const VecI* j = &root;
      if (ord != root_ord) {
        std::size_t rest = ord;
        for (std::size_t r = n; r-- > 0;) {
          const std::size_t dim = static_cast<std::size_t>(mu[r]) + 1;
          other[r] = static_cast<Int>(rest % dim);
          rest /= dim;
        }
        j = &other;
      }
      bool ready = true;
      for (std::size_t i = 0; i < m && ready; ++i) {
        if (!source_in_set(*j, i)) continue;
        const std::size_t pord = source_ordinal(ord, i);
        if (state[pord] == kDone) continue;
        if (state[pord] == kWaiting) {
          throw std::domain_error(
              "evaluate_reference: cyclic dependences (Pi D > 0 "
              "impossible)");
        }
        stack.push_back(pord);
        ready = false;
      }
      if (!ready) {
        state[ord] = kWaiting;
        continue;
      }
      for (std::size_t i = 0; i < m; ++i) {
        if (source_in_set(*j, i)) {
          inputs[i] = value[source_ordinal(ord, i)];
        } else {
          inputs[i] = algo.boundary ? algo.boundary(*j, i) : 0;
        }
      }
      value[ord] = algo.compute(*j, inputs);
      state[ord] = kDone;
      stack.pop_back();
    }
    // Next root: odometer increment, last coordinate fastest.
    for (std::size_t r = n; r-- > 0;) {
      if (root[r] < mu[r]) {
        ++root[r];
        break;
      }
      root[r] = 0;
    }
  }
  return value;
}

}  // namespace sysmap::model
