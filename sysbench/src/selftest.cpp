// Self-tests for the benchmark's own code: the tail rule, the independent
// checks, failure counting and span self times.  Exits 0 when all pass.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "checks.hpp"
#include "harness.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace sysbench;

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void tail_rule() {
  // 1000 samples: p99 has exactly 10 beyond it.
  stats::Tail t = stats::tail(one_to(1000), 99.0);
  EXPECT(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10);
  // 999 samples: p99 leaves only 9 beyond, so the tail steps down to p95.
  t = stats::tail(one_to(999), 99.0);
  EXPECT(t.percentile == 95.0 && t.beyond >= 10);
  EXPECT(t.value == 950.0);
  // Many samples: the workload's target caps the percentile.
  t = stats::tail(one_to(100000), 99.0);
  EXPECT(t.percentile == 99.0 && t.value == 99000.0);
  // 100 samples: p90 has exactly 10 beyond.
  t = stats::tail(one_to(100), 99.0);
  EXPECT(t.percentile == 90.0 && t.value == 90.0 && t.beyond == 10);
  // Too few samples for any tail: the median is reported.
  t = stats::tail(one_to(5), 99.0);
  EXPECT(t.percentile == 50.0 && t.value == 3.0);
  EXPECT(stats::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void checker() {
  const check::Mat s{{1, 1, -1}};
  const check::Mat d{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const check::Vec mu{4, 4, 4};
  // Example 5.1 at mu = 4: Pi = [1, 4, 1], t = 25, is the optimum.
  EXPECT(check::check_optimal_schedule(s, d, mu, true, {1, 4, 1}, 24, 25, 80)
             .ok);
  // Pi = [1, 1, 1] maps [1, -1, 0] to zero: a known conflict.
  const check::Mat clash{{1, 1, -1}, {1, 1, 1}};
  EXPECT(!check::conflict_free_theorem22(clash, mu));
  EXPECT(!check::injective_on_box(clash, mu));
  EXPECT(!check::check_optimal_schedule(s, d, mu, true, {1, 1, 1}, 12, 13, 80)
              .ok);
  EXPECT(!check::check_design_point(s, {1, 1, 1}, 13, 13, 3, d, mu).ok);
  // The prior-work Pi = [2, 1, mu] is conflict-free but not optimal.
  const check::Verdict v =
      check::check_optimal_schedule(s, d, mu, true, {2, 1, 4}, 28, 29, 80);
  EXPECT(!v.ok && v.why.rfind("not optimal", 0) == 0);
  EXPECT(check::conflict_free_theorem22({{1, 1, -1}, {2, 1, 4}}, mu));
  // A wrong objective or makespan is caught even for a valid Pi.
  EXPECT(!check::check_optimal_schedule(s, d, mu, true, {1, 4, 1}, 23, 24, 80)
              .ok);
  EXPECT(!check::check_optimal_schedule(s, d, mu, true, {1, 4, 1}, 24, 26, 80)
              .ok);
  // found = false is wrong when a conflict-free Pi exists.
  EXPECT(!check::check_optimal_schedule(s, d, mu, false, {}, 0, 0, 80).ok);
  // Image boxes too wide for packed keys take the vector path.
  const std::int64_t big = std::int64_t{1} << 40;
  EXPECT(check::injective_on_box({{big, 0}, {0, big}}, {2, 2}));
  EXPECT(!check::injective_on_box({{big, big}, {big, big}}, {2, 2}));
  EXPECT(check::count_images({{big, 1}}, {2, 2}) == 9);
  // Rank and the conflict vector.
  EXPECT(check::rank({{1, 2, 3}, {2, 4, 6}}) == 1);
  EXPECT((check::conflict_vector({{1, 1, -1}, {1, 1, 1}}) ==
          check::Vec{1, -1, 0} ||
          check::conflict_vector({{1, 1, -1}, {1, 1, 1}}) ==
              check::Vec{-1, 1, 0}));
  // Array cost of S = [1, 1, -1] on the 5^3 cube: S j spans -4..8.
  EXPECT(check::count_images(s, mu) == 13);
  EXPECT(check::wire_length(s, d) == 3);
  EXPECT(check::check_design_point(s, {1, 4, 1}, 25, 13, 3, d, mu).ok);
  // Simulation counts: none for the optimum, some for the clash.
  const check::SimCounts ok = check::expected_sim_counts(s, {1, 4, 1}, d, mu);
  EXPECT(ok.conflicts == 0 && ok.collisions == 0);
  const check::SimCounts bad = check::expected_sim_counts(s, {1, 1, 1}, d, mu);
  EXPECT(bad.conflicts > 0 && bad.collisions > 0);
  // Sequential references.
  EXPECT(check::edit_distance("kitten", "sitting") == 3);
  EXPECT((check::matmul({{1, 2}, {3, 4}}, {{5, 6}, {7, 8}}) ==
          check::Mat{{19, 22}, {43, 50}}));
  EXPECT((check::matvec({{1, 2}, {3, 4}}, {1, 1}) == check::Vec{3, 7}));
  // y(i) = w0 x(i) + w1 x(i-1), x(-1..2) = 1, 2, 3, 4.
  EXPECT((check::convolution({1, 10}, {1, 2, 3, 4}, 2, 1) ==
          check::Vec{12, 23, 34}));
  EXPECT(check::box_ordinal({1, 2}, {1, 0}) == 3);
}

void error_rate() {
  Tally tally;
  tally.add(measure_op([] { return 1; }, [](int) { return check::Verdict{}; }));
  tally.add(measure_op([]() -> int { throw std::runtime_error("injected"); },
                       [](int) { return check::Verdict{}; }));
  tally.add(measure_op([] { return 2; }, [](int) {
    return check::Verdict{false, "injected wrong answer"};
  }));
  EXPECT(tally.attempted == 3 && tally.failed == 2);
  EXPECT(tally.error_rate() == 2.0 / 3.0);
  EXPECT(tally.first_failures.size() == 2);
  EXPECT(tally.latencies_ms.size() == 3);
}

void self_time() {
  using trace::Layer;
  using trace::Span;
  // root [0, 100] > a [10, 40] > b [20, 30]; root > c [50, 60] (probe).
  std::vector<Span> spans{
      {0, -1, Layer::kOp, false, 0, 100},
      {0, 0, Layer::kSearchIlp, false, 10, 40},
      {0, 1, Layer::kOptIlp, false, 20, 30},
      {0, 0, Layer::kLatticeHnf, true, 50, 60},
  };
  const std::vector<std::int64_t> self = trace::self_times(spans);
  EXPECT((self == std::vector<std::int64_t>{60, 20, 10, 10}));
  const trace::OpCost cost = trace::summarize(spans);
  EXPECT(cost.total_ns == 100 && cost.probe_ns == 10);
  EXPECT(cost.layers.self_ns[static_cast<std::size_t>(Layer::kSearchIlp)] ==
         20);

  // The recorder nests scopes and folds self times into its totals.
  trace::Recorder rec(16);
  rec.begin_op();
  {
    trace::Recorder::Scope outer(rec, Layer::kSearchIlp);
    trace::Recorder::Scope inner(rec, Layer::kOptLp, true);
  }
  const trace::OpCost op = rec.end_op();
  EXPECT(rec.ops() == 1 && rec.kept() == 3);
  EXPECT(op.layers.calls[static_cast<std::size_t>(Layer::kOptLp)] == 1);
  std::int64_t sum = 0;
  for (std::int64_t ns : op.layers.self_ns) sum += ns;
  EXPECT(sum == op.total_ns);  // self times partition the root span
}

}  // namespace

int main() {
  tail_rule();
  checker();
  error_rate();
  self_time();
  if (failures == 0) std::printf("sysbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
