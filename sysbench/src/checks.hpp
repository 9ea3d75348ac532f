// Independent answer checks for the benchmark.
//
// Everything here is written from the paper's definitions on plain integer
// vectors; none of it calls the library.  A check that reused the route
// under test would pass whenever that route is wrong in a self-consistent
// way, so the library's own oracles, enumerators and reference evaluators
// are deliberately not used.
//
// Conventions: the index set J is the box {0..mu_1} x ... x {0..mu_n}; a
// matrix is a list of rows; the dependence matrix D is n x m (one column
// per dependence vector); T = [S; Pi] with Pi as the last row.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sysbench::check {

using Vec = std::vector<std::int64_t>;
using Mat = std::vector<Vec>;

/// Outcome of one check; `why` names the first property that failed.
struct Verdict {
  bool ok = true;
  std::string why;
};

/// Pi d > 0 for every dependence column d of D.
bool respects_dependences(const Mat& d, const Vec& pi);

/// f(Pi) = sum |pi_i| mu_i (Theorem 2.1: the makespan is f + 1).
std::int64_t objective(const Vec& mu, const Vec& pi);

/// Rank over the rationals, by fraction-free elimination.
std::size_t rank(const Mat& t);

/// The generalized cross product of the n-1 rows of T (n-1 x n), divided
/// by the gcd of its entries: the primitive generator of ker(T) over Z.
/// All zeros when rank(T) < n-1.
Vec conflict_vector(const Mat& t);

/// Theorem 2.2 for k = n-1: T is conflict-free on the box iff its
/// primitive conflict vector gamma is nonzero and |gamma_i| > mu_i for
/// some i (otherwise gamma itself joins two points of J).
bool conflict_free_theorem22(const Mat& t, const Vec& mu);

/// Conflict-freedom for any k, by hashing T j over every j in J.
bool injective_on_box(const Mat& t, const Vec& mu);

/// |{S j : j in J}|, by hashing.
std::int64_t count_images(const Mat& s, const Vec& mu);

/// sum over dependences of the L1 length of S d_i.
std::int64_t wire_length(const Mat& s, const Mat& d);

/// A Problem 2.2 answer for k = n-1 (S has n-2 rows): found, Pi D > 0, the
/// recomputed objective and makespan, rank and conflict-freedom by Theorem
/// 2.2, and optimality -- every Pi with a smaller objective must fail the
/// same test.  When `found` is false the check fails if some conflict-free
/// Pi exists below the objective bound `max_objective`.
Verdict check_optimal_schedule(const Mat& s, const Mat& d, const Vec& mu,
                               bool found, const Vec& pi,
                               std::int64_t objective_value,
                               std::int64_t makespan,
                               std::int64_t max_objective);

/// One Problem 6.2 design point: Pi D > 0, makespan = f(Pi) + 1, rank(T)
/// = k, conflict-freedom by hashing, and the array cost recomputed.
Verdict check_design_point(const Mat& s, const Vec& pi, std::int64_t makespan,
                           std::int64_t processors, std::int64_t wire,
                           const Mat& d, const Vec& mu);

/// The conflict and link-collision totals a simulation of the dedicated
/// array for T = [S; Pi] must report.  A conflict is every computation
/// beyond the first on one (PE, cycle).  Each dependence d_i with
/// S d_i != 0 has its own one-hop link, busy in the consuming cycle Pi j
/// for every j whose source j - d_i lies in J; a collision is a
/// (source PE, link, cycle) that carries two or more data.
struct SimCounts {
  std::uint64_t conflicts = 0;
  std::uint64_t collisions = 0;
};
SimCounts expected_sim_counts(const Mat& s, const Vec& pi, const Mat& d,
                              const Vec& mu);

// ---- sequential references for the value-level simulations ---------------

Mat matmul(const Mat& a, const Mat& b);
/// y(i) = sum_{k=0..mu_k} w(k) x(i-k) for i in 0..mu_i; x(t) is stored at
/// x[t + mu_k].
Vec convolution(const Vec& w, const Vec& x, std::int64_t mu_i,
                std::int64_t mu_k);
/// Levenshtein distance (unit insert, delete and substitute).
std::int64_t edit_distance(const std::string& a, const std::string& b);
Vec matvec(const Mat& a, const Vec& x);

/// Row-major ordinal of j in the box (the layout of a value vector).
std::size_t box_ordinal(const Vec& mu, const Vec& j);

}  // namespace sysbench::check
