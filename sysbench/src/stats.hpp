// Summary statistics for the benchmark's reported numbers.
#pragma once

#include <cstddef>
#include <vector>

namespace sysbench::stats {

/// Median of the samples (mean of the middle pair for an even count);
/// 0 for an empty sample.
double median(std::vector<double> samples);

/// Nearest-rank percentile: the smallest sample with at least p percent
/// of the samples at or below it.  0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile position.
std::size_t count_beyond(std::size_t n, double p);

/// The tail percentiles the benchmark may report, lowest first.
inline const std::vector<double> kTailLadder = {50.0, 75.0, 90.0, 95.0,
                                                99.0, 99.5, 99.9};

struct Tail {
  double percentile = 0.0;  ///< which percentile `value` is
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples beyond it
  std::size_t samples = 0;
};

/// The latency tail: the highest ladder percentile, no higher than
/// `target`, that has at least `min_beyond` samples beyond it.  A workload
/// fixes `target` so that runs of the same workload report the same
/// percentile whatever their sample count; when a run has too few samples
/// the percentile steps down the ladder instead.  With fewer than
/// min_beyond + 1 samples it reports the median.
Tail tail(const std::vector<double>& samples, double target,
          std::size_t min_beyond = 10);

}  // namespace sysbench::stats
