#include "trace.hpp"

#include <cstdio>

namespace sysbench::trace {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kSearchIlp: return "search.ilp";
    case Layer::kOptLp: return "opt.lp";
    case Layer::kOptIlp: return "opt.ilp";
    case Layer::kFixedSpace: return "search.fixed_space";
    case Layer::kSearchCertify: return "search.certify";
    case Layer::kSearchScore: return "search.score";
    case Layer::kSpaceEnum: return "search.space_enum";
    case Layer::kImageCount: return "support.image_count";
    case Layer::kMappingOracle: return "mapping.oracle";
    case Layer::kLatticeHnf: return "lattice.hnf";
    case Layer::kSystolicDesign: return "systolic.design";
    case Layer::kSystolicSimulate: return "systolic.simulate";
    case Layer::kProbe: return "probe";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

OpCost summarize(const std::vector<Span>& spans) {
  OpCost cost;
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::size_t layer = static_cast<std::size_t>(s.layer);
    cost.layers.self_ns[layer] += self[i];
    cost.layers.calls[layer] += 1;
    if (s.parent < 0) cost.total_ns += s.end_ns - s.start_ns;
    // Count each probe once: nested probes are inside their outer probe.
    const bool outer_probe =
        s.probe && (s.parent < 0 ||
                    !spans[static_cast<std::size_t>(s.parent)].probe);
    if (outer_probe) cost.probe_ns += s.end_ns - s.start_ns;
  }
  return cost;
}

void Recorder::begin_op() {
  current_.clear();
  open_.clear();
  open(Layer::kOp);
}

OpCost Recorder::end_op() {
  while (!open_.empty()) close(open_.back());
  const OpCost cost = summarize(current_);
  for (std::size_t l = 0; l < kLayers; ++l) {
    totals_.self_ns[l] += cost.layers.self_ns[l];
    totals_.calls[l] += cost.layers.calls[l];
  }
  ++ops_;
  for (std::size_t i = 0; i < current_.size() && kept_.size() < max_kept_;
       ++i) {
    kept_.push_back(current_[i]);
    kept_index_.push_back(static_cast<std::uint32_t>(i));
  }
  return cost;
}

std::int32_t Recorder::open(Layer layer, bool probe) {
  Span s;
  s.op = static_cast<std::uint32_t>(ops_);
  s.parent = open_.empty() ? -1 : open_.back();
  s.layer = layer;
  s.probe = probe;
  s.start_ns = now_ns();
  current_.push_back(s);
  const auto index = static_cast<std::int32_t>(current_.size() - 1);
  open_.push_back(index);
  return index;
}

void Recorder::close(std::int32_t index) {
  current_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Recorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tindex\tparent\tlayer\tprobe\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f, "%u\t%u\t%d\t%s\t%d\t%lld\t%lld\n", s.op, kept_index_[i],
                 s.parent, layer_name(s.layer), s.probe ? 1 : 0,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace sysbench::trace
