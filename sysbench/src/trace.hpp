// Span recording for the traced run.
//
// The traced run replays each op through the layers' public functions and
// wraps every call in a span: op id, parent span, layer, start and end.
// Spans of the op in flight sit in a small buffer; when the op ends its
// per-layer self times are folded into running totals and the spans move
// to an in-memory log that is written out once, at exit.  Recording never
// happens inside the library.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sysbench::trace {

/// The layers the replay records, named as in the per-layer metrics.
enum class Layer : std::uint8_t {
  kOp,              ///< the replayed op as a whole (the root span)
  kSearchIlp,       ///< search::solve_k_equals_n_minus_1
  kOptLp,           ///< opt::solve_lp on one branch relaxation
  kOptIlp,          ///< opt::solve_ilp on one branch
  kFixedSpace,      ///< search::FixedSpaceContext construction
  kSearchCertify,   ///< bounded search::procedure_5_1 (certification)
  kSearchScore,     ///< MappingPipeline::score / unbounded procedure_5_1
  kSpaceEnum,       ///< search::candidate_spaces
  kImageCount,      ///< search::count_processor_images
  kMappingOracle,   ///< mapping::decide_conflict_free
  kLatticeHnf,      ///< lattice::hermite_normal_form
  kSystolicDesign,  ///< systolic::design_dedicated_array
  kSystolicSimulate,///< systolic::simulate
  kProbe,           ///< replay-only glue around probe calls
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

struct Span {
  std::uint32_t op = 0;
  std::int32_t parent = -1;  ///< index of the parent span within its op
  Layer layer = Layer::kOp;
  /// A probe is work the one-shot call does not do (an extra call made
  /// only to time a layer); op self time excludes it.
  bool probe = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the durations of its
/// direct children.  Spans of one op must be properly nested (the replay
/// is single-threaded), listed with parents before children.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct LayerTotals {
  std::array<std::int64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> calls{};
};

/// What one replayed op cost: the root span, the part of it spent in
/// probes, and its per-layer self times.
struct OpCost {
  std::int64_t total_ns = 0;
  std::int64_t probe_ns = 0;
  LayerTotals layers;
};

OpCost summarize(const std::vector<Span>& spans);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Recorder {
 public:
  /// Keeps at most `max_kept` spans for the exit-time log; later spans
  /// still count in the totals.
  explicit Recorder(std::size_t max_kept) : max_kept_(max_kept) {}

  /// Opens the root span of the next op; ops are numbered from 0.
  void begin_op();
  /// Closes the root span and folds the op into the totals.
  OpCost end_op();

  std::int32_t open(Layer layer, bool probe = false);
  void close(std::int32_t index);

  /// RAII span.
  class Scope {
   public:
    Scope(Recorder& recorder, Layer layer, bool probe = false)
        : recorder_(recorder), index_(recorder.open(layer, probe)) {}
    ~Scope() { recorder_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& recorder_;
    std::int32_t index_;
  };

  const LayerTotals& totals() const { return totals_; }
  std::uint64_t ops() const { return ops_; }
  std::size_t kept() const { return kept_.size(); }

  /// Writes the kept spans as tab-separated lines
  /// (op, index, parent, layer, probe, start_ns, end_ns); false on error.
  bool write(const std::string& path) const;

 private:
  std::size_t max_kept_;
  std::vector<Span> current_;
  std::vector<std::int32_t> open_;
  std::vector<Span> kept_;
  std::vector<std::uint32_t> kept_index_;
  LayerTotals totals_;
  std::uint64_t ops_ = 0;
};

}  // namespace sysbench::trace
