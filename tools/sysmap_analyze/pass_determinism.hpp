// Pass 2: determinism (rules prefixed nondet-).
//
// The engine's contract is bit-identical results at every worker count,
// which dies by a thousand cuts: iterating a hash container to build a
// report, sorting by pointer value, bumping a shared counter from a
// fork-join callback, seeding anything from the wall clock.  The pass
// flags each of those shapes; a true order-independent use is silenced by
// a ORDER_INDEPENDENT(reason) annotation on the flagged line or the
// line above it.
//
// Rules:
//   nondet-unordered-iter  range-for over (or .begin()/.cbegin()/.rbegin()
//                          iteration of) an unordered_map/unordered_set
//                          variable: element order is hash- and
//                          libstdc++-version-dependent
//   nondet-shared-accum    read-modify-write of a by-reference captured,
//                          non-atomic variable inside an inline lambda
//                          passed to fork_join() or to a pool's .run():
//                          a data race, and racy even when "only a
//                          counter"
//   nondet-comparator      sort-family comparator whose body takes
//                          addresses or hashes its operands: pointer order
//                          differs run to run
//   nondet-clock           wall-clock reads in src/ engine code
//   nondet-random          rand()/srand()/std::random_device in src/
//                          engine code (a seeded mt19937 is fine: it is
//                          deterministic by construction)
//   determinism-annotation ORDER_INDEPENDENT marker whose clause
//                          does not parse or has a vacuous reason
#pragma once

#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "file_model.hpp"

namespace sysmap::lint {

class DeterminismPass {
 public:
  void analyze(const FileModel& m, std::vector<Diagnostic>& out);
};

}  // namespace sysmap::lint
