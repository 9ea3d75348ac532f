// design_sweep: Problem 6.2 Pareto queries (explore_design_space, the
// CLI's --explore).
//
// Why: every case has k <= n-2 or k = n, so the ops run Procedure 5.1
// through the FixedSpaceContext screen and the exact oracle, read the
// verdict and orbit caches heavily, count processor images and use the
// thread pool -- while the ILP layer does no work.  The cases span four
// orders of magnitude in op time.  One pass runs every case once and the
// three largest (the 4-D and 5-D sweeps) twice, so the median op is a 4-D
// sweep.  Half the cases take under a millisecond, and there four-thread
// latency is mostly thread start-up and swings with the host's load: on a
// shared four-core host their 20 s window medians spread 25-36 % against
// 8-14 % for the 4-D and 5-D sweeps.
#include <algorithm>
#include <map>
#include <optional>
#include <random>

#include "convert.hpp"
#include "harness.hpp"
#include "search/pipeline.hpp"
#include "sysmap.hpp"

namespace sysbench {

namespace {

using namespace sysmap;
using trace::Layer;
using Scope = trace::Recorder::Scope;

constexpr std::size_t kThreads = 4;

struct Case {
  model::UniformDependenceAlgorithm algo;
  search::SpaceSearchOptions options;
  check::Mat d;
  check::Vec extents;
};

struct Point {
  check::Mat space;
  check::Vec pi;
  std::int64_t makespan = 0;
  std::int64_t processors = 0;
  std::int64_t wire = 0;
  bool operator==(const Point&) const = default;
};

std::vector<Point> points_of(const search::DesignSpaceResult& r) {
  std::vector<Point> out;
  for (const search::DesignPoint& p : r.pareto) {
    out.push_back({to_mat(p.space), to_vec(p.pi), p.makespan,
                   p.cost.processors, p.cost.wire_length});
  }
  return out;
}

// The Pareto rule on (makespan, processors + wire): sort by makespan then
// total, keep a point only when its total beats every earlier one.  The
// sort is std::sort on the serial visit order, as in the library, so tied
// points come out in the same order.
std::vector<Point> pareto(std::vector<Point> all) {
  std::sort(all.begin(), all.end(), [](const Point& a, const Point& b) {
    if (a.makespan != b.makespan) return a.makespan < b.makespan;
    return a.processors + a.wire < b.processors + b.wire;
  });
  std::vector<Point> front;
  for (Point& p : all) {
    if (front.empty() ||
        p.processors + p.wire < front.back().processors + front.back().wire) {
      front.push_back(std::move(p));
    }
  }
  return front;
}

class DesignSweep final : public Workload {
 public:
  double tail_target() const override { return 90.0; }
  bool at_boundary() const override { return passes_.at_boundary(); }

  void setup(std::uint64_t seed) override {
    rng_.seed(seed);
    cases_.clear();
    add(model::unit_cube_algorithm(4, 3), 1, 1);
    add(model::convolution_2d(3, 3, 2, 2), 1, 1);
    add(model::unit_cube_algorithm(5, 2), 1, 2);
    add(model::matmul(12), 1, 2);
    add(model::matmul(8), 2, 2);
    add(model::transitive_closure(12), 1, 2);
    add(model::convolution(24, 8), 1, 1);
    add(model::edit_distance(24, 24), 1, 1);
    pass_ = {0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7};
    passes_.reset(pass_.size());
    verified_.clear();
  }

  OpOutcome step() override {
    const std::size_t c = draw();
    OpOutcome out =
        measure_op([&] { return run(c, kThreads); },
                   [&](const search::DesignSpaceResult& r) {
                     return verify(c, r);
                   });
    out.points = box_points(cases_[c].extents);
    return out;
  }

  OpOutcome traced_step(trace::Recorder& recorder,
                        LayerCounters& counters) override {
    const std::size_t c = draw();
    std::optional<search::DesignSpaceResult> oneshot;
    const ObsCounters before = ObsCounters::read();
    OpOutcome out = measure_op(
        [&] { return run(c, kThreads); },
        [&](const search::DesignSpaceResult& r) { return verify(c, r); },
        &oneshot);
    counters.obs += ObsCounters::read() - before;
    out.points = box_points(cases_[c].extents);
    counters.oneshot_ms += out.ms;
    counters.oneshot_latencies_ms.push_back(out.ms);
    counters.op_threads = kThreads;
    const std::int64_t t0 = trace::now_ns();
    (void)run(c, 1);
    counters.serial_ms += static_cast<double>(trace::now_ns() - t0) / 1e6;

    const auto front = replay_op(recorder, counters,
                                 [&] { return replay(c, recorder, counters); });
    if (!front || !oneshot || *front != points_of(*oneshot)) {
      ++counters.replay_mismatch;
    }
    return out;
  }

 private:
  void add(model::UniformDependenceAlgorithm algo, Int max_entry,
           std::size_t dims) {
    Case c{std::move(algo), {}, {}, {}};
    c.options.max_entry = max_entry;
    c.options.array_dims = dims;
    c.d = to_mat(c.algo.dependence_matrix());
    c.extents = extents(c.algo);
    cases_.push_back(std::move(c));
  }

  std::size_t draw() {
    return pass_[passes_.next(rng_)];
  }

  search::DesignSpaceResult run(std::size_t c, std::size_t threads) const {
    search::SpaceSearchOptions options = cases_[c].options;
    options.num_threads = threads;
    return search::explore_design_space(cases_[c].algo, options);
  }

  check::Verdict verify(std::size_t c, const search::DesignSpaceResult& r) {
    const std::vector<Point> got = points_of(r);
    auto it = verified_.find(c);
    if (it != verified_.end() && it->second == got) return {};
    const Case& k = cases_[c];
    if (got.empty()) return {false, "empty Pareto front"};
    if (r.feasible_spaces < got.size() || r.spaces_tested < r.feasible_spaces) {
      return {false, "space counts inconsistent with the front"};
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Point& p = got[i];
      if (p.space.size() != k.options.array_dims) {
        return {false, "S has the wrong number of rows"};
      }
      check::Verdict v = check::check_design_point(
          p.space, p.pi, p.makespan, p.processors, p.wire, k.d, k.extents);
      if (!v.ok) return {false, "point " + std::to_string(i) + ": " + v.why};
      if (i > 0 && !(got[i - 1].makespan < p.makespan &&
                     got[i - 1].processors + got[i - 1].wire >
                         p.processors + p.wire)) {
        return {false, "front is not strictly improving in cost"};
      }
    }
    verified_[c] = got;
    return {};
  }

  // explore_design_space replayed serially: enumerate the candidate
  // spaces, score each through one fused pipeline, count the processors
  // of every feasible space, and filter the front.  Probes time the exact
  // oracle and the HNF on each feasible T.
  std::vector<Point> replay(std::size_t c, trace::Recorder& recorder,
                            LayerCounters& counters) const {
    const Case& k = cases_[c];
    const model::IndexSet& set = k.algo.index_set();
    std::vector<MatI> spaces;
    {
      Scope span(recorder, Layer::kSpaceEnum);
      spaces = search::candidate_spaces(k.algo.dimension(), k.options);
    }
    search::PipelineOptions options;
    options.design_array = false;
    search::MappingPipeline pipeline(options);
    pipeline.enable_fusion({});
    std::vector<Point> feasible;
    for (const MatI& s : spaces) {
      search::MappingSolution solution;
      try {
        Scope span(recorder, Layer::kSearchScore);
        solution = pipeline.score(k.algo, s);
      } catch (const std::exception&) {
        continue;  // explore_design_space skips degenerate candidates too
      }
      counters.score_candidates += solution.candidates_tested;
      if (!solution.found) continue;
      Point p;
      p.space = to_mat(s);
      p.pi = to_vec(solution.pi);
      p.makespan = solution.makespan;
      {
        Scope span(recorder, Layer::kImageCount);
        p.processors = search::count_processor_images(set, s);
      }
      p.wire = check::wire_length(p.space, k.d);
      const mapping::MappingMatrix t(s, solution.pi);
      {
        Scope span(recorder, Layer::kMappingOracle, true);
        (void)mapping::decide_conflict_free(t, set);
      }
      {
        Scope span(recorder, Layer::kLatticeHnf, true);
        (void)lattice::hermite_normal_form(t.matrix());
      }
      feasible.push_back(std::move(p));
    }
    return pareto(std::move(feasible));
  }

  std::mt19937_64 rng_;
  std::vector<Case> cases_;
  std::vector<std::size_t> pass_;  ///< case indices of one pass
  Passes passes_;
  std::map<std::size_t, std::vector<Point>> verified_;
};

}  // namespace

std::unique_ptr<Workload> make_design_sweep() {
  return std::make_unique<DesignSweep>();
}

}  // namespace sysbench
