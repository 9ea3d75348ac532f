// support::fork_join tests.  Written to be meaningful under
// ThreadSanitizer: the workers write shared per-worker slots and the
// caller reads them after the join, so TSan checks that the join orders
// every worker write before fork_join returns.
#include "support/fork_join.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sysmap::support {
namespace {

TEST(ForkJoinTest, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kWorkers = 4;
  std::vector<std::atomic<int>> hits(kWorkers);
  fork_join(kWorkers, [&](std::size_t w) { hits[w].fetch_add(1); });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
  }
}

TEST(ForkJoinTest, ZeroWorkersClampsToOneAndOneRunsInline) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}}) {
    std::vector<std::size_t> indices;
    std::thread::id ran_on;
    fork_join(workers, [&](std::size_t w) {
      indices.push_back(w);
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(indices, std::vector<std::size_t>{0}) << workers << " workers";
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << workers << " workers";
  }
}

// Per-worker slots written by the workers are visible to the caller after
// fork_join returns, with no atomics on the slots themselves.  This is
// the access pattern of the space sweeps' per-worker states.
TEST(ForkJoinTest, WorkerSlotWritesAreVisibleAfterJoin) {
  constexpr std::size_t kWorkers = 8;
  constexpr std::uint64_t kRounds = 200;
  std::vector<std::uint64_t> slot(kWorkers, 0);
  for (std::uint64_t g = 1; g <= kRounds; ++g) {
    fork_join(kWorkers, [&](std::size_t w) { slot[w] += g; });
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(slot[w], kRounds * (kRounds + 1) / 2) << "worker " << w;
  }
}

TEST(ForkJoinTest, RethrowsLowestIndexExceptionAfterEveryWorkerFinishes) {
  constexpr std::size_t kWorkers = 8;
  std::atomic<std::size_t> thrown{0};
  std::vector<int> finished(kWorkers, 0);
  // The odd workers throw, worker 1 last of them, so keeping the first
  // exception thrown would name worker 3, 5 or 7.  The even workers
  // finish well after every throw, so a rethrow before the join would
  // find their slots unwritten.
  try {
    fork_join(kWorkers, [&](std::size_t w) {
      if (w == 1) {
        while (thrown.load() < kWorkers / 2 - 1) std::this_thread::yield();
      } else if (w % 2 == 0) {
        while (thrown.load() < kWorkers / 2) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished[w] = 1;
        return;
      }
      finished[w] = 1;
      thrown.fetch_add(1);
      throw std::runtime_error("worker " + std::to_string(w));
    });
    ADD_FAILURE() << "fork_join did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 1");
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(finished[w], 1) << "worker " << w;
  }
}

// One throwing worker surfaces as the call's exception, and a failed call
// leaves nothing behind that would stop the next one from running.
TEST(ForkJoinTest, RethrowsWorkerExceptionAndRecovers) {
  constexpr std::size_t kWorkers = 4;
  EXPECT_THROW(fork_join(kWorkers,
                         [](std::size_t w) {
                           if (w == 2) throw std::runtime_error("worker 2");
                         }),
               std::runtime_error);

  std::vector<int> hits(kWorkers, 0);
  fork_join(kWorkers, [&](std::size_t w) { hits[w] = 1; });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(hits[w], 1) << "worker " << w;
  }
}

// Every worker throws: exactly one exception surfaces, the lowest-index
// one, the join does not deadlock, and the next call runs every worker.
TEST(ForkJoinTest, AllWorkersThrowingKeepsLowestOnly) {
  constexpr std::size_t kWorkers = 8;
  try {
    fork_join(kWorkers, [](std::size_t w) {
      throw std::runtime_error("worker " + std::to_string(w));
    });
    ADD_FAILURE() << "fork_join did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 0");
  }

  std::atomic<std::size_t> ran{0};
  fork_join(kWorkers, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), kWorkers);
}

}  // namespace
}  // namespace sysmap::support
