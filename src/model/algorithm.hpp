// Uniform dependence algorithms (Definition 2.1).
//
// An algorithm is characterized structurally by the pair (J, D): the index
// set and the n x m dependence matrix whose columns are the constant
// dependence vectors d_i.  Computation j depends on computations j - d_i.
// An optional semantic layer (SemanticAlgorithm) attaches an executable
// body so the systolic simulator can validate mapped executions value-for-
// value, not just structurally.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "linalg/types.hpp"
#include "model/index_set.hpp"

namespace sysmap::model {

class UniformDependenceAlgorithm {
 public:
  /// Structural pair (J, D); D must have J.dimension() rows.
  /// Dependence columns must be nonzero (a zero dependence would make a
  /// computation depend on itself).  Throws std::invalid_argument.
  UniformDependenceAlgorithm(std::string name, IndexSet index_set,
                             MatI dependence);

  const std::string& name() const noexcept { return name_; }
  const IndexSet& index_set() const noexcept { return index_set_; }
  const MatI& dependence_matrix() const noexcept { return dependence_; }

  /// Algorithm dimension n.
  std::size_t dimension() const noexcept { return index_set_.dimension(); }
  /// Number of dependence vectors m.
  std::size_t num_dependences() const noexcept { return dependence_.cols(); }

  /// The i-th dependence (column) vector.
  VecI dependence(std::size_t i) const { return dependence_.column_vector(i); }

 private:
  std::string name_;
  IndexSet index_set_;
  MatI dependence_;
};

/// Executable body: value at j computed from the values at j - d_i.
/// `inputs[i]` is v(j - d_i); boundary(j, i) supplies v(j - d_i) when
/// j - d_i falls outside J (the algorithm's input data).
struct SemanticAlgorithm {
  UniformDependenceAlgorithm structure;
  std::function<Int(const VecI& j, const std::vector<Int>& inputs)> compute;
  std::function<Int(const VecI& j, std::size_t dep_index)> boundary;
};

/// Reference (sequential) execution: evaluates v(j) for every j in J in a
/// dependence-respecting order and returns the value map keyed by
/// lexicographic position.  Used to validate systolic executions.  The
/// order is a memoized depth-first walk rooted at each point in
/// lexicographic order (one pass over J when D is lexicographically
/// positive); cyclic dependences throw std::domain_error.
std::vector<Int> evaluate_reference(const SemanticAlgorithm& algo);

/// Lexicographic position of j within the box (row-major ordinal).
std::size_t lexicographic_ordinal(const IndexSet& set, const VecI& j);

}  // namespace sysmap::model
