// The pieces every workload shares: timing one op and checking its answer,
// tallying outcomes, obs counter deltas, and the workload interface.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <type_traits>
#include <string>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"

namespace sysbench {

/// One op as the closed loop saw it.
struct OpOutcome {
  double ms = 0.0;        ///< wall time of the library call(s)
  double check_ms = 0.0;  ///< wall time of the independent check (untimed)
  std::uint64_t points = 0;  ///< index points of the op's J
  bool failed = false;    ///< threw, or failed its check
  std::string why;
};

/// Times `run()` and then checks its answer with `check(answer)`, which
/// returns a check::Verdict.  An exception from either counts as a failed
/// op; the latency of an op that threw is the time until it threw.  The
/// answer is moved to `*keep` when given.
template <class Run, class Check,
          class Answer = std::decay_t<std::invoke_result_t<Run&>>>
OpOutcome measure_op(Run&& run, Check&& check,
                     std::optional<Answer>* keep = nullptr) {
  OpOutcome out;
  std::optional<Answer> answer;
  const std::int64_t t0 = trace::now_ns();
  try {
    answer.emplace(run());
  } catch (const std::exception& e) {
    out.ms = static_cast<double>(trace::now_ns() - t0) / 1e6;
    out.failed = true;
    out.why = std::string("threw: ") + e.what();
    return out;
  }
  const std::int64_t t1 = trace::now_ns();
  out.ms = static_cast<double>(t1 - t0) / 1e6;
  try {
    const check::Verdict verdict = check(*answer);
    if (!verdict.ok) {
      out.failed = true;
      out.why = verdict.why;
    }
  } catch (const std::exception& e) {
    out.failed = true;
    out.why = std::string("check threw: ") + e.what();
  }
  out.check_ms = static_cast<double>(trace::now_ns() - t1) / 1e6;
  if (keep != nullptr) *keep = std::move(answer);
  return out;
}

/// Accumulates the outcomes of one run.
struct Tally {
  std::vector<double> latencies_ms;
  double op_ms = 0.0;
  double check_ms = 0.0;
  std::uint64_t points = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;  ///< up to five, for the log

  void add(const OpOutcome& op);
  /// Failed ops / attempted ops (0 before the first op).
  double error_rate() const;
};

/// The sysmap::obs counters the traced run reads, summed over their
/// per-shard instances.  All zero in a build without SYSMAP_OBS.
struct ObsCounters {
  std::uint64_t verdict_hits = 0;
  std::uint64_t verdict_misses = 0;
  std::uint64_t orbit_hits = 0;
  std::uint64_t orbit_misses = 0;
  std::uint64_t fastpath_attempts = 0;
  std::uint64_t fastpath_restarts = 0;
  std::uint64_t pools_created = 0;
  std::uint64_t flat_runs = 0;
  std::uint64_t seed_fallbacks = 0;
  std::uint64_t conflict_probes = 0;

  static ObsCounters read();
  ObsCounters& operator+=(const ObsCounters& o);
  ObsCounters operator-(const ObsCounters& o) const;
};

/// Counts the traced replays accumulate, beyond the recorder's spans.
struct LayerCounters {
  std::uint64_t ilp_ops = 0;            ///< ops that took the ILP route
  std::uint64_t ilp_nodes = 0;
  std::uint64_t ilp_rejected = 0;
  std::uint64_t orthant_fallbacks = 0;
  std::uint64_t bound_tight = 0;
  std::uint64_t branch_ilp_nodes = 0;   ///< nodes of the probed branch ILPs
  std::uint64_t certify_sweeps = 0;
  std::uint64_t certify_improved = 0;
  std::uint64_t certify_candidates = 0;
  std::uint64_t score_candidates = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t replay_mismatch = 0;
  double oneshot_ms = 0.0;  ///< the op as one call, in this build
  double serial_ms = 0.0;   ///< the same op at one thread
  std::size_t op_threads = 1;  ///< threads of the one-shot call
  double replay_ms = 0.0;          ///< the replay's root spans
  double replay_probe_ms = 0.0;    ///< the part of them spent in probes
  std::vector<double> oneshot_latencies_ms;
  ObsCounters obs;  ///< deltas around the one-shot calls only
};

/// Replays one op under `recorder`: opens the op's root span, runs
/// `replay()` and adds the op's replay and probe time to `counters`.
/// nullopt when the replay threw.
template <class Replay,
          class Answer = std::decay_t<std::invoke_result_t<Replay&>>>
std::optional<Answer> replay_op(trace::Recorder& recorder,
                                LayerCounters& counters, Replay&& replay) {
  std::optional<Answer> answer;
  recorder.begin_op();
  try {
    answer.emplace(replay());
  } catch (const std::exception&) {
    answer.reset();
  }
  const trace::OpCost cost = recorder.end_op();
  counters.replay_ms += static_cast<double>(cost.total_ns) / 1e6;
  counters.replay_probe_ms += static_cast<double>(cost.probe_ns) / 1e6;
  return answer;
}

/// Visits 0..n-1 once per pass, in a fresh seeded order each pass.  The
/// workloads issue their ops this way so that every run of a workload has
/// the same mix whatever the seed: with the mix itself drawn from the
/// seed, the sampling alone would spread map_stream's median latency and
/// throughput by 10-14 % between 20 s runs.
class Passes {
 public:
  void reset(std::size_t n) {
    order_.resize(n);
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
    cursor_ = n;
  }
  std::size_t next(std::mt19937_64& rng) {
    if (cursor_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng);
      cursor_ = 0;
    }
    return order_[cursor_++];
  }
  bool at_boundary() const { return cursor_ == order_.size(); }

 private:
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

/// A benchmark workload.  setup() builds the inputs from the seed and
/// constructs whatever long-lived state the ops share; it may be called on
/// fresh objects repeatedly to time it.  step() issues the next op of the
/// seeded sequence as one library call, then checks the answer.
/// traced_step() does the same and then replays the op through the
/// layers' public functions under `recorder`.
class Workload {
 public:
  virtual ~Workload() = default;
  /// The tail percentile this workload reports (see stats::tail).
  virtual double tail_target() const = 0;
  /// True between passes (see Passes): a run ends only there.
  virtual bool at_boundary() const = 0;
  virtual void setup(std::uint64_t seed) = 0;
  virtual OpOutcome step() = 0;
  virtual OpOutcome traced_step(trace::Recorder& recorder,
                                LayerCounters& counters) = 0;
};

/// "map_stream", "design_sweep" or "simulate"; nullptr for anything else.
std::unique_ptr<Workload> make_workload(const std::string& name);

// One factory per workload source file.
std::unique_ptr<Workload> make_map_stream();
std::unique_ptr<Workload> make_design_sweep();
std::unique_ptr<Workload> make_simulate();

}  // namespace sysbench
