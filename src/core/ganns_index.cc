#include "core/ganns_index.h"

#include <cstdio>

#include "gpusim/bitonic.h"

#include "common/logging.h"

namespace ganns {
namespace core {
namespace {

constexpr std::uint64_t kIndexMagic = 0x53584449534e4e47ULL;  // "GNNSIDXS"
// v2: single self-contained file — header followed by the embedded graph
// stream (ProximityGraph for NSW, HnswGraph for HNSW). v1 spread the layers
// over sidecar files; those indexes must be rebuilt. v3 marks the unified
// GraphStore generation: the embedded graph stream is the v3 slot record
// (capacity, slot states, free list). v2 containers still load — the graph
// reader dispatches on the record version it finds.
constexpr std::uint64_t kIndexVersion = 3;
constexpr std::uint64_t kIndexVersionCompat = 2;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void SetLoadError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::string HexWord(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

GannsIndex::GannsIndex(data::Dataset base, const Options& options)
    : base_(std::move(base)),
      options_(options),
      device_(std::make_unique<gpusim::Device>(options.device)) {}

GannsIndex GannsIndex::Build(data::Dataset base, const Options& options) {
  GANNS_CHECK_MSG(base.size() >= 1, "cannot index an empty corpus");
  GannsIndex index(std::move(base), options);

  GpuBuildParams build;
  build.nsw = options.nsw;
  build.num_groups = options.num_groups;
  build.kernel = options.construction_kernel;
  build.block_lanes = options.block_lanes;

  if (options.kind == GraphKind::kNsw) {
    GpuBuildResult result =
        BuildNswGGraphCon(*index.device_, index.base_, build);
    index.timing_.build_seconds = result.sim_seconds;
    index.nsw_ =
        std::make_unique<graph::ProximityGraph>(std::move(result.graph));
  } else {
    graph::HnswParams hnsw = options.hnsw;
    hnsw.nsw = options.nsw;
    GpuHnswBuildResult result =
        BuildHnswGGraphCon(*index.device_, index.base_, hnsw, build);
    index.timing_.build_seconds = result.sim_seconds;
    index.hnsw_ = std::make_unique<graph::HnswGraph>(std::move(result.graph));
  }

  // Compressed path: train the quantizer on the freshly indexed corpus and
  // pack per-vector codes. Training is deterministic in (corpus, options),
  // so Save/Load and a rebuild agree bit-for-bit.
  if (options.quantize.precision != data::Precision::kFloat32) {
    auto store = std::make_unique<data::QuantizedStore>();
    store->quantizer = data::Quantizer::Train(index.base_, options.quantize);
    store->codes = data::QuantizedCodes::EncodeAll(store->quantizer,
                                                   index.base_);
    index.quant_ = std::move(store);
  }
  return index;
}

const graph::ProximityGraph& GannsIndex::bottom_graph() const {
  if (nsw_ != nullptr) return *nsw_;
  GANNS_CHECK(hnsw_ != nullptr);
  return hnsw_->layer(0);
}

std::vector<std::vector<graph::Neighbor>> GannsIndex::Search(
    const data::Dataset& queries, std::size_t k, GannsParams params) {
  GANNS_CHECK(queries.dim() == base_.dim());
  params.k = k;
  if (params.l_n < k) params.l_n = gpusim::NextPow2(4 * k);

  std::vector<std::vector<graph::Neighbor>> out(queries.size());
  const graph::ProximityGraph& bottom = bottom_graph();
  const data::SearchQuantization quant = search_quantization();

  device_->ResetTimeline();
  device_->Launch(
      "ganns_index.search", static_cast<int>(queries.size()),
      options_.block_lanes,
      [&](gpusim::BlockContext& block) {
        const VertexId q = static_cast<VertexId>(block.block_id());
        // HNSW: the hierarchical zoom-in picks a per-query entry vertex;
        // flat NSW enters at the first inserted point.
        const VertexId entry =
            hnsw_ != nullptr
                ? hnsw_->DescendToLayer0(base_, queries.Point(q), nullptr,
                                         {&quant})
                : 0;
        out[q] = GannsSearchOne(block, bottom, base_, queries.Point(q),
                                params, entry, nullptr, {&quant});
      });
  timing_.last_search_seconds = device_->timeline_seconds();
  timing_.last_search_qps =
      timing_.last_search_seconds > 0
          ? static_cast<double>(queries.size()) / timing_.last_search_seconds
          : 0;
  return out;
}

std::vector<graph::Neighbor> GannsIndex::SearchOne(
    std::span<const float> query, std::size_t k, GannsParams params) {
  data::Dataset single("query", base_.dim(), base_.metric());
  single.Append(query);
  return Search(single, k, params)[0];
}

bool GannsIndex::Save(const std::string& path) const {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) return false;
  const std::uint64_t kind = options_.kind == GraphKind::kNsw ? 0 : 1;
  const std::uint64_t header[3] = {kIndexMagic, kIndexVersion, kind};
  if (std::fwrite(header, sizeof(header), 1, file.get()) != 1) return false;
  const bool graph_ok = nsw_ != nullptr ? nsw_->WriteTo(file.get())
                                        : hnsw_->WriteTo(file.get());
  if (!graph_ok) return false;
  // Optional trailing section: trained quantizer + packed codes. Absent for
  // exact indexes, so uncompressed v3 containers (and readers that stop at
  // the graph stream) are unchanged.
  if (quant_ != nullptr) {
    return data::WriteQuantizedSection(file.get(), quant_->quantizer,
                                       quant_->codes);
  }
  return true;
}

std::optional<GannsIndex> GannsIndex::Load(const std::string& path,
                                           data::Dataset base,
                                           const Options& options,
                                           std::string* error) {
  SetLoadError(error, "");
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    SetLoadError(error, "cannot open index file '" + path + "'");
    return std::nullopt;
  }
  std::uint64_t header[3] = {};
  if (std::fread(header, sizeof(header), 1, file.get()) != 1) {
    SetLoadError(error, "index header: truncated (expected 24 bytes)");
    return std::nullopt;
  }
  if (header[0] != kIndexMagic) {
    SetLoadError(error, "index header: bad magic " + HexWord(header[0]) +
                            " (expected " + HexWord(kIndexMagic) + ")");
    return std::nullopt;
  }
  if (header[1] != kIndexVersion && header[1] != kIndexVersionCompat) {
    SetLoadError(error,
                 "index header: unsupported version " +
                     std::to_string(header[1]) + " (expected " +
                     std::to_string(kIndexVersionCompat) + " or " +
                     std::to_string(kIndexVersion) + ")");
    return std::nullopt;
  }
  if (header[2] > 1) {
    SetLoadError(error, "index header: unknown graph kind " +
                            std::to_string(header[2]) +
                            " (expected 0=nsw 1=hnsw)");
    return std::nullopt;
  }

  Options adjusted = options;
  adjusted.kind = header[2] == 0 ? GraphKind::kNsw : GraphKind::kHnsw;
  GannsIndex index(std::move(base), adjusted);

  if (adjusted.kind == GraphKind::kNsw) {
    auto graph = graph::ProximityGraph::ReadFrom(file.get());
    if (!graph.has_value()) {
      SetLoadError(error, "graph stream: truncated or corrupt NSW record");
      return std::nullopt;
    }
    if (graph->num_vertices() != index.base_.size()) {
      SetLoadError(error,
                   "graph stream: vertex count mismatch (file has " +
                       std::to_string(graph->num_vertices()) +
                       " vertices, corpus has " +
                       std::to_string(index.base_.size()) + ")");
      return std::nullopt;
    }
    index.nsw_ =
        std::make_unique<graph::ProximityGraph>(*std::move(graph));
  } else {
    auto hnsw = graph::HnswGraph::ReadFrom(file.get());
    if (!hnsw.has_value()) {
      SetLoadError(error, "graph stream: truncated or corrupt HNSW record");
      return std::nullopt;
    }
    if (hnsw->num_vertices() != index.base_.size()) {
      SetLoadError(error,
                   "graph stream: vertex count mismatch (file has " +
                       std::to_string(hnsw->num_vertices()) +
                       " vertices, corpus has " +
                       std::to_string(index.base_.size()) + ")");
      return std::nullopt;
    }
    index.hnsw_ = std::make_unique<graph::HnswGraph>(*std::move(hnsw));
  }

  // Optional trailing quantized section (v3 compressed indexes). Clean EOF
  // means an exact index; a present-but-corrupt section is a load error.
  std::string quant_error;
  auto store =
      data::ReadQuantizedSection(file.get(), index.base_.size(), &quant_error);
  if (!quant_error.empty()) {
    SetLoadError(error, quant_error);
    return std::nullopt;
  }
  if (store.has_value()) {
    if (store->quantizer.dim() != index.base_.dim()) {
      SetLoadError(error,
                   "quantization section: dim mismatch (section has " +
                       std::to_string(store->quantizer.dim()) +
                       ", corpus has " + std::to_string(index.base_.dim()) +
                       ")");
      return std::nullopt;
    }
    index.quant_ =
        std::make_unique<data::QuantizedStore>(*std::move(store));
    index.options_.quantize.precision = index.quant_->quantizer.precision();
    index.options_.quantize.rerank_factor =
        index.quant_->quantizer.rerank_factor();
  }
  return index;
}

}  // namespace core
}  // namespace ganns
