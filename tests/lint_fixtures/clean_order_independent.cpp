// Positive fixture: the determinism pass MUST accept this file.
//
// Exercises every sanctioned way around the nondeterminism rules: an
// annotated commutative reduction over an unordered container, an atomic
// accumulator in a fork-join callback (pool.run and support::fork_join
// forms), per-worker slot writes, a local accumulator declared inside the
// callback, and a comparator over a stable key.  Never compiled.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <unordered_set>
#include <vector>

#include "support/fork_join.hpp"

namespace fixture {

struct Pool {
  void run(void (*job)(std::size_t)) { job(0); }
  template <typename F>
  void run(const F& job) {
    job(0);
  }
};

unsigned checksum(const std::unordered_set<unsigned>& seen) {
  unsigned total = 0;
  // SYSMAP_ORDER_INDEPENDENT(unsigned addition is commutative and
  // associative, so the hash-order walk cannot change the sum)
  for (unsigned v : seen) total += v;
  return total;
}

unsigned fan_out(Pool& pool, const std::vector<unsigned>& work) {
  std::atomic<unsigned> hits{0};
  std::vector<unsigned> slots(4, 0);
  pool.run([&](std::size_t w) {
    unsigned local = 0;
    for (unsigned v : work) local += v;  // local: declared in the callback
    slots[w] += local;                   // per-worker slot, indexed by w
    hits += 1;                           // atomic accumulator
  });
  unsigned total = 0;
  for (unsigned s : slots) total += s;
  return total + hits.load();
}

unsigned fork_join_fan_out(const std::vector<unsigned>& work) {
  std::atomic<unsigned> hits{0};
  std::vector<unsigned> slots(4, 0);
  sysmap::support::fork_join(slots.size(), [&](std::size_t w) {
    unsigned local = 0;
    for (std::size_t i = w; i < work.size(); i += 4) local += work[i];
    slots[w] += local;
    hits += 1;
  });
  unsigned total = 0;
  for (unsigned s : slots) total += s;
  return total + hits.load();
}

void order_by_value(std::vector<unsigned>& xs) {
  std::sort(xs.begin(), xs.end(),
            [](unsigned a, unsigned b) { return a < b; });
}

}  // namespace fixture
