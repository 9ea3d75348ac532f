#include "support/fork_join.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace sysmap::support {

void fork_join(std::size_t workers,
               const std::function<void(std::size_t)>& job) {
  if (workers <= 1) {
    job(0);
    return;
  }
  SYSMAP_COUNT("support.thread_pool.pools_created", 1);
  SYSMAP_GAUGE("support.thread_pool.workers", workers);
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&job, &errors, w] {
        try {
          job(w);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
  } catch (...) {
    // A thread failed to start: join the ones that did before unwinding.
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace sysmap::support
