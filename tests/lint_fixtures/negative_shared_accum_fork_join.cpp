// Negative fixture: the determinism pass MUST reject this file.
//
// The fork-join race in the support::fork_join form: a by-reference
// captured plain counter bumped from every worker of an inline lambda.
// Racy, and even made atomic the accumulation order would still depend on
// worker interleaving.  Never compiled.
#include <cstddef>
#include <vector>

#include "support/fork_join.hpp"

namespace fixture {

unsigned count_matches(const std::vector<unsigned>& work) {
  unsigned matches = 0;
  sysmap::support::fork_join(4, [&](std::size_t w) {
    for (std::size_t i = w; i < work.size(); i += 4) {
      if (work[i] != 0) {
        matches += 1;  // nondet-shared-accum
      }
    }
  });
  return matches;
}

}  // namespace fixture
