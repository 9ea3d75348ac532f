#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace sysbench::stats {

namespace {

// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

std::size_t count_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

Tail tail(const std::vector<double>& samples, double target,
          std::size_t min_beyond) {
  Tail out;
  out.samples = samples.size();
  out.percentile = kTailLadder.front();
  for (double p : kTailLadder) {
    if (p > target) break;
    if (count_beyond(samples.size(), p) >= min_beyond) out.percentile = p;
  }
  out.value = percentile(samples, out.percentile);
  out.beyond = count_beyond(samples.size(), out.percentile);
  return out;
}

}  // namespace sysbench::stats
