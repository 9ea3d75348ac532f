// Negative fixture: the determinism pass MUST reject this file.
//
// The classic fork-join race: a by-reference captured plain counter bumped
// from every pool worker.  Racy, and even made atomic the
// accumulation order would still depend on worker interleaving.  Never
// compiled.
#include <cstddef>
#include <vector>

namespace fixture {

struct Pool {
  template <typename F>
  void run(const F& job) {
    job(0);
  }
};

unsigned count_matches(Pool& pool, const std::vector<unsigned>& work) {
  unsigned matches = 0;
  pool.run([&](std::size_t w) {
    for (std::size_t i = w; i < work.size(); i += 4) {
      if (work[i] != 0) {
        matches += 1;  // nondet-shared-accum
      }
    }
  });
  return matches;
}

}  // namespace fixture
