// Debug contract layer: the paper's algebraic postconditions as
// machine-checked assertions at API boundaries.
//
// Compiled in only under -DSYSMAP_CONTRACTS=ON (CMake) which defines
// SYSMAP_CONTRACTS_ENABLED; the default build keeps the hot path free of
// any checking code.  A violated contract is not a user error, it is a bug
// in this library: the failure throws sysmap::exact::ContractViolation
// carrying the condition text and location so tests can assert on it and
// services can log it before dying.
//
// Contract sites (see docs/STATIC_ANALYSIS.md for the catalogue):
//   lattice::hermite_normal_form   T·U = H = [L,0], L lower-triangular,
//                                  U unimodular, U·V = I
//   lattice::smith_normal_form     U·A·V = S diagonal, d_i | d_{i+1}
//   lattice::make_primitive        gcd of the result is 1
//   mapping::unique_conflict_vector  T·gamma = 0, gcd(gamma) = 1
//   mapping::decide_conflict_free_exact  returned witness is a genuine
//                                  in-box integral conflict
//   opt::solve_lp / solve_ilp / enumerate_vertices  CheckedRational answer
//                                  == Rational re-run, field for field
//   search::FixedSpaceContext::screen  raw int64 verdict == exact verdict
//   search::procedure_5_1 / parallel   found Pi is conflict-free at the
//                                  reported cost
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace sysmap::exact {

class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const std::string& condition, const char* file, int line,
                    const std::string& detail)
      : std::logic_error(format(condition, file, line, detail)) {}

 private:
  static std::string format(const std::string& condition, const char* file,
                            int line, const std::string& detail) {
    std::ostringstream os;
    os << "contract violated at " << file << ":" << line << ": " << condition;
    if (!detail.empty()) os << " — " << detail;
    return os.str();
  }
};

}  // namespace sysmap::exact

#ifdef SYSMAP_CONTRACTS_ENABLED

/// Checks a paper postcondition; throws ContractViolation when false.
/// The variadic tail is streamed into the failure message:
///   SYSMAP_CONTRACT(g.is_one(), "gcd(gamma) = " << g.to_string());
#define SYSMAP_CONTRACT(cond, ...)                                         \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream sysmap_contract_os_;                              \
      sysmap_contract_os_ << "" __VA_ARGS__;                               \
      throw ::sysmap::exact::ContractViolation(                          \
          #cond, __FILE__, __LINE__, sysmap_contract_os_.str());           \
    }                                                                      \
  } while (false)

/// True in builds where SYSMAP_CONTRACT is active; lets call sites skip
/// expensive setup (e.g. a full BigInt replay) that only feeds a contract.
#define SYSMAP_CONTRACTS_ACTIVE 1

#else  // !SYSMAP_CONTRACTS_ENABLED

#define SYSMAP_CONTRACT(cond, ...) \
  do {                             \
  } while (false)

#define SYSMAP_CONTRACTS_ACTIVE 0

#endif  // SYSMAP_CONTRACTS_ENABLED
