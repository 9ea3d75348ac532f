// Fork-join over fresh threads for the parallel space sweeps.
//
// search/space_optimal.cpp runs each parallel sweep as one fork-join: it
// starts its workers, and each worker begins on its share of the sweep
// as soon as it starts, so no worker parks at creation waiting for the
// others to be woken.  The caller only joins.
#pragma once

#include <cstddef>
#include <functional>

namespace sysmap::support {

/// Runs job(w) for every w in [0, workers) and returns once all of them
/// have finished.  With workers <= 1 it runs job(0) on the calling thread
/// and starts no thread.  Otherwise it starts `workers` threads, each
/// calling job(w) at once, and joins them all; the join orders every
/// worker's writes before the return, so workers may write caller-owned
/// per-worker slots without atomics.  When workers throw, the exception
/// of the lowest-index one is rethrown after every worker has finished,
/// and the others are dropped.
void fork_join(std::size_t workers,
               const std::function<void(std::size_t)>& job);

}  // namespace sysmap::support
