// simulate: fixed mappings, no search -- design the dedicated array, then
// run the cycle-accurate simulator at one thread.
//
// Why: the systolic layer does almost all the work while search and opt do
// none.  The mappings are the paper's optima (Examples 5.1 and 5.2), the
// prior-work mappings they beat, value-level convolution, edit distance,
// matrix-vector and matrix-matrix instances, and a matmul mapping with
// conflicts and link collisions, at sizes up to about 36k index points.
// One pass simulates every instance once.
#include <functional>
#include <map>
#include <optional>
#include <random>

#include "convert.hpp"
#include "harness.hpp"
#include "sysmap.hpp"

namespace sysbench {

namespace {

using namespace sysmap;
using trace::Layer;
using Scope = trace::Recorder::Scope;

struct Item {
  /// The mapping has conflicts and link collisions on purpose.
  bool conflicting = false;
  std::optional<model::SemanticAlgorithm> semantic;
  std::optional<model::UniformDependenceAlgorithm> structural;
  MatI space;
  VecI pi;
  /// Closed-form makespan from the paper, when it gives one.
  std::optional<Int> closed_form;
  /// The benchmark's own sequential result: extracts the output entries
  /// from a value vector and compares them with its own computation.
  std::function<bool(const std::vector<Int>&)> values_ok;

  const model::UniformDependenceAlgorithm& algo() const {
    return semantic ? semantic->structure : *structural;
  }
};

struct Expected {
  std::uint64_t points = 0;
  Int makespan = 0;
  check::SimCounts counts;
};

check::Mat random_matrix(std::mt19937_64& rng, std::size_t rows,
                         std::size_t cols) {
  std::uniform_int_distribution<std::int64_t> value(-9, 9);
  check::Mat m(rows, check::Vec(cols));
  for (auto& row : m) {
    for (auto& x : row) x = value(rng);
  }
  return m;
}

check::Vec random_vector(std::mt19937_64& rng, std::size_t n) {
  return random_matrix(rng, 1, n)[0];
}

std::string random_string(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<int> letter(0, 3);
  std::string s(n, 'a');
  for (char& ch : s) ch = static_cast<char>('a' + letter(rng));
  return s;
}

class Simulate final : public Workload {
 public:
  double tail_target() const override { return 99.5; }
  bool at_boundary() const override { return passes_.at_boundary(); }

  void setup(std::uint64_t seed) override {
    rng_.seed(seed);
    items_.clear();
    for (Int mu : {8, 12, 16, 20, 24, 28, 32}) {
      const check::Mat a = random_matrix(rng_, mu + 1, mu + 1);
      const check::Mat b = random_matrix(rng_, mu + 1, mu + 1);
      Item ex51;
      ex51.semantic = model::semantic_matmul(mu, to_lib(a), to_lib(b));
      ex51.space = MatI{{1, 1, -1}};
      ex51.pi = VecI{1, mu, 1};
      ex51.closed_form = mu * (mu + 2) + 1;
      ex51.values_ok = [a, b, mu](const std::vector<Int>& v) {
        const check::Mat c = check::matmul(a, b);
        const check::Vec box{mu, mu, mu};
        for (Int i = 0; i <= mu; ++i) {
          for (Int j = 0; j <= mu; ++j) {
            if (v[check::box_ordinal(box, {i, j, mu})] !=
                c[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
              return false;
            }
          }
        }
        return true;
      };
      items_.push_back(std::move(ex51));

      Item ex52;
      ex52.structural = model::transitive_closure(mu);
      ex52.space = MatI{{0, 0, 1}};
      ex52.pi = VecI{mu + 1, 1, 1};
      ex52.closed_form = mu * (mu + 3) + 1;
      items_.push_back(std::move(ex52));

      const baseline::PriorMapping r23 = baseline::ref23_matmul(mu);
      Item ref23;
      ref23.structural = model::matmul(mu);
      ref23.space = r23.space;
      ref23.pi = r23.pi;
      ref23.closed_form = mu * (mu + 3) + 1;
      items_.push_back(std::move(ref23));

      const baseline::PriorMapping r22 = baseline::ref22_transitive_closure(mu);
      Item ref22;
      ref22.structural = model::transitive_closure(mu);
      ref22.space = r22.space;
      ref22.pi = r22.pi;
      ref22.closed_form = mu * (2 * mu + 3) + 1;
      items_.push_back(std::move(ref22));

      Item clash;
      clash.structural = model::matmul(mu);
      clash.conflicting = true;
      clash.space = MatI{{1, 1, -1}};
      clash.pi = VecI{1, 1, 1};
      items_.push_back(std::move(clash));
    }
    for (Int mu_i : {255, 511, 1023}) {
      for (Int mu_k : {7, 15, 31}) {
        const check::Vec w = random_vector(rng_, mu_k + 1);
        const check::Vec x = random_vector(rng_, mu_i + mu_k + 1);
        Item conv;
        conv.semantic = model::semantic_convolution(
            mu_i, mu_k, VecI(w.begin(), w.end()), VecI(x.begin(), x.end()));
        conv.space = MatI{{0, 1}};
        conv.pi = VecI{1, 1};
        conv.values_ok = [w, x, mu_i, mu_k](const std::vector<Int>& v) {
          const check::Vec y = check::convolution(w, x, mu_i, mu_k);
          const check::Vec box{mu_i, mu_k};
          for (Int i = 0; i <= mu_i; ++i) {
            if (v[check::box_ordinal(box, {i, mu_k})] !=
                y[static_cast<std::size_t>(i)]) {
              return false;
            }
          }
          return true;
        };
        items_.push_back(std::move(conv));
      }
    }
    for (Int mu : {63, 127, 189}) {
      const auto length = static_cast<std::size_t>(mu) + 1;
      const std::string a = random_string(rng_, length);
      const std::string b = random_string(rng_, length);
      Item edit;
      edit.semantic = model::semantic_edit_distance(a, b);
      edit.space = MatI{{1, 0}};
      edit.pi = VecI{1, 1};
      edit.values_ok = [a, b, mu](const std::vector<Int>& v) {
        return v[check::box_ordinal({mu, mu}, {mu, mu})] ==
               check::edit_distance(a, b);
      };
      items_.push_back(std::move(edit));

      const check::Mat m = random_matrix(rng_, mu + 1, mu + 1);
      const check::Vec x = random_vector(rng_, mu + 1);
      Item mv;
      mv.semantic =
          model::semantic_matvec(mu, to_lib(m), VecI(x.begin(), x.end()));
      mv.space = MatI{{1, 0}};
      mv.pi = VecI{1, 1};
      mv.values_ok = [m, x, mu](const std::vector<Int>& v) {
        const check::Vec y = check::matvec(m, x);
        for (Int i = 0; i <= mu; ++i) {
          if (v[check::box_ordinal({mu, mu}, {i, mu})] !=
              y[static_cast<std::size_t>(i)]) {
            return false;
          }
        }
        return true;
      };
      items_.push_back(std::move(mv));
    }
    passes_.reset(items_.size());
    expected_.clear();
  }

  OpOutcome step() override {
    const std::size_t i = passes_.next(rng_);
    OpOutcome out = measure_op(
        [&] { return run(i); },
        [&](const systolic::SimulationReport& r) { return verify(i, r); });
    out.points = box_points(extents(items_[i].algo()));
    return out;
  }

  OpOutcome traced_step(trace::Recorder& recorder,
                        LayerCounters& counters) override {
    const std::size_t i = passes_.next(rng_);
    std::optional<systolic::SimulationReport> oneshot;
    const ObsCounters before = ObsCounters::read();
    OpOutcome out = measure_op(
        [&] { return run(i); },
        [&](const systolic::SimulationReport& r) { return verify(i, r); },
        &oneshot);
    counters.obs += ObsCounters::read() - before;
    out.points = box_points(extents(items_[i].algo()));
    counters.oneshot_ms += out.ms;
    counters.serial_ms += out.ms;
    counters.oneshot_latencies_ms.push_back(out.ms);

    const auto report =
        replay_op(recorder, counters, [&] { return replay(i, recorder); });
    if (report) {
      counters.sim_cycles += static_cast<std::uint64_t>(report->makespan);
    }
    if (!oneshot || !report) {
      ++counters.replay_mismatch;
      return out;
    }
    const systolic::SimulationReport& o = *oneshot;
    if (report->makespan != o.makespan ||
        report->computations != o.computations ||
        report->total_conflicts != o.total_conflicts ||
        report->total_collisions != o.total_collisions ||
        report->values_match != o.values_match) {
      ++counters.replay_mismatch;
    }
    return out;
  }

 private:
  systolic::SimulationReport run(std::size_t i) const {
    const Item& item = items_[i];
    const systolic::ArrayDesign design = systolic::design_dedicated_array(
        item.algo(), mapping::MappingMatrix(item.space, item.pi));
    return item.semantic ? systolic::simulate(*item.semantic, design)
                         : systolic::simulate(item.algo(), design);
  }

  // Everything about an item's simulation that the benchmark can work out
  // by itself, computed once per item.  The value check goes through the
  // library's sequential reference only to learn which value vector the
  // simulator compared against (values_match); the entries are then held
  // against the benchmark's own A B, convolution, edit distance or A x.
  check::Verdict expectation(std::size_t i, const Expected*& out) {
    auto it = expected_.find(i);
    if (it != expected_.end()) {
      out = &it->second;
      return {};
    }
    const Item& item = items_[i];
    const check::Mat s = to_mat(item.space);
    const check::Vec pi = to_vec(item.pi);
    const check::Mat d = to_mat(item.algo().dependence_matrix());
    const check::Vec mu = extents(item.algo());
    Expected e;
    e.points = box_points(mu);
    e.makespan = check::objective(mu, pi) + 1;
    e.counts = check::expected_sim_counts(s, pi, d, mu);
    if (item.closed_form && *item.closed_form != e.makespan) {
      return {false, "closed form disagrees with f(Pi) + 1"};
    }
    const bool clean = e.counts.conflicts == 0 && e.counts.collisions == 0;
    if (clean == item.conflicting) {
      return {false, "mapping is not in the expected conflict class"};
    }
    if (item.semantic &&
        !item.values_ok(model::evaluate_reference(*item.semantic))) {
      return {false, "sequential reference differs from the benchmark's own"};
    }
    out = &expected_.emplace(i, e).first->second;
    return {};
  }

  check::Verdict verify(std::size_t i, const systolic::SimulationReport& r) {
    const Expected* e = nullptr;
    if (check::Verdict v = expectation(i, e); !v.ok) return v;
    if (r.computations != e->points) return {false, "wrong computation count"};
    if (r.makespan != e->makespan) {
      return {false, "makespan " + std::to_string(r.makespan) + ", expected " +
                         std::to_string(e->makespan)};
    }
    if (r.total_conflicts != e->counts.conflicts) {
      return {false, "conflicts " + std::to_string(r.total_conflicts) +
                         ", expected " + std::to_string(e->counts.conflicts)};
    }
    if (r.total_collisions != e->counts.collisions) {
      return {false, "collisions " + std::to_string(r.total_collisions) +
                         ", expected " + std::to_string(e->counts.collisions)};
    }
    if (items_[i].semantic && !(r.values_checked && r.values_match)) {
      return {false, "simulated values differ from the sequential result"};
    }
    return {};
  }

  systolic::SimulationReport replay(std::size_t i,
                                    trace::Recorder& recorder) const {
    const Item& item = items_[i];
    std::optional<systolic::ArrayDesign> design;
    {
      Scope span(recorder, Layer::kSystolicDesign);
      design = systolic::design_dedicated_array(
          item.algo(), mapping::MappingMatrix(item.space, item.pi));
    }
    Scope span(recorder, Layer::kSystolicSimulate);
    return item.semantic ? systolic::simulate(*item.semantic, *design)
                         : systolic::simulate(item.algo(), *design);
  }

  std::mt19937_64 rng_;
  std::vector<Item> items_;
  Passes passes_;
  std::map<std::size_t, Expected> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_simulate() {
  return std::make_unique<Simulate>();
}

}  // namespace sysbench
