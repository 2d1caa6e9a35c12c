#include "data/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/file.h"
#include "common/logging.h"
#include "common/random.h"
#include "data/distance.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace data {
namespace {

// Section layout (all little-endian u64 header words):
//   word 0  magic "GNNSGQNT"
//   word 1  version (1)
//   word 2  dim            <- element-count slot for the corruption tests
//   word 3  precision code (1 = sq8, 2 = pq)
//   word 4  pq subspaces M (0 for sq8)
//   word 5  pq centroids K (0 for sq8)
//   word 6  rerank_factor
//   word 7  reserved (0)
// payload: sq8 -> min[dim], scale[dim] floats;
//          pq  -> centroids, K * sub_dim(m) floats per subspace in order
//                 (K * dim floats total).
// Then the packed code array: u64 num_codes, num_codes * code_bytes bytes.
constexpr std::uint64_t kQuantMagic = 0x544e5147534e4e47ULL;  // "GNNSGQNT"
constexpr std::uint64_t kQuantVersion = 1;
constexpr std::size_t kQuantHeaderWords = 8;
constexpr std::uint64_t kMaxQuantDim = 1u << 16;
constexpr std::uint64_t kMaxRerankFactor = 4096;
constexpr std::uint64_t kMaxCodes = std::uint64_t{1} << 32;

std::string HexWord(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// Nearest centroid in subspace m by squared L2; ties break to the lowest
/// index (strict less-than).
std::size_t NearestCentroid(const Quantizer& q, std::size_t m,
                            const float* sub) {
  std::size_t best = 0;
  Dist best_dist = ComputeDistance(Metric::kL2, sub, q.centroid(m, 0),
                                   q.sub_dim(m));
  for (std::size_t j = 1; j < q.pq_centroids(); ++j) {
    const Dist d =
        ComputeDistance(Metric::kL2, sub, q.centroid(m, j), q.sub_dim(m));
    if (d < best_dist) {
      best_dist = d;
      best = j;
    }
  }
  return best;
}

}  // namespace

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFloat32:
      return "float";
    case Precision::kSq8:
      return "sq8";
    case Precision::kPq:
      return "pq";
  }
  return "unknown";
}

std::optional<Precision> ParsePrecision(std::string_view name) {
  if (name == "float" || name == "float32" || name == "exact") {
    return Precision::kFloat32;
  }
  if (name == "sq8" || name == "int8") return Precision::kSq8;
  if (name == "pq") return Precision::kPq;
  return std::nullopt;
}

std::size_t Quantizer::code_bytes() const {
  switch (precision_) {
    case Precision::kFloat32:
      return 0;
    case Precision::kSq8:
      return dim_;
    case Precision::kPq:
      return m_;
  }
  return 0;
}

Quantizer Quantizer::Train(const Dataset& base,
                           const QuantizerOptions& options) {
  GANNS_CHECK_MSG(options.precision != Precision::kFloat32,
                  "cannot train a float32 (identity) quantizer");
  GANNS_CHECK_MSG(base.size() >= 1 && base.dim() >= 1,
                  "cannot train a quantizer on an empty corpus");
  Quantizer q;
  q.precision_ = options.precision;
  q.dim_ = base.dim();
  q.rerank_factor_ = options.rerank_factor == 0 ? 1 : options.rerank_factor;

  if (options.precision == Precision::kSq8) {
    q.sq8_min_.assign(q.dim_, 0.0f);
    q.sq8_scale_.assign(q.dim_, 0.0f);
    std::vector<float> max(q.dim_, 0.0f);
    for (std::size_t i = 0; i < base.size(); ++i) {
      const std::span<const float> row = base.Point(static_cast<VertexId>(i));
      for (std::size_t d = 0; d < q.dim_; ++d) {
        if (i == 0 || row[d] < q.sq8_min_[d]) q.sq8_min_[d] = row[d];
        if (i == 0 || row[d] > max[d]) max[d] = row[d];
      }
    }
    for (std::size_t d = 0; d < q.dim_; ++d) {
      q.sq8_scale_[d] = (max[d] - q.sq8_min_[d]) / 255.0f;
    }
    return q;
  }

  // PQ: deterministic stride sample, stride-spread k-means++-free init,
  // Lloyd iterations with lowest-index tie-breaking and double-precision
  // mean accumulation — fully reproducible in (base, options).
  const std::size_t sample_target =
      std::max<std::size_t>(1, options.train_sample);
  const std::size_t stride = std::max<std::size_t>(1, base.size() / sample_target);
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < base.size() && sample.size() < sample_target;
       i += stride) {
    sample.push_back(i);
  }
  q.m_ = std::clamp<std::size_t>(options.pq_subspaces, 1, q.dim_);
  q.k_ = std::clamp<std::size_t>(options.pq_centroids, 1,
                                 std::min<std::size_t>(256, sample.size()));

  q.sub_offset_.resize(q.m_ + 1);
  const std::size_t base_sub = q.dim_ / q.m_;
  const std::size_t remainder = q.dim_ % q.m_;
  q.sub_offset_[0] = 0;
  for (std::size_t m = 0; m < q.m_; ++m) {
    q.sub_offset_[m + 1] =
        q.sub_offset_[m] + base_sub + (m < remainder ? 1 : 0);
  }
  q.centroids_.resize(q.k_ * q.dim_);

  for (std::size_t m = 0; m < q.m_; ++m) {
    const std::size_t sub = q.sub_dim(m);
    const std::size_t off = q.sub_offset_[m];
    float* codebook = q.centroids_.data() + q.k_ * off;
    for (std::size_t j = 0; j < q.k_; ++j) {
      const std::span<const float> row = base.Point(
          static_cast<VertexId>(sample[(j * sample.size()) / q.k_]));
      std::memcpy(codebook + j * sub, row.data() + off, sub * sizeof(float));
    }
    std::vector<std::size_t> assign(sample.size(), 0);
    std::vector<double> sums(q.k_ * sub);
    std::vector<std::size_t> counts(q.k_);
    for (std::size_t iter = 0; iter < options.pq_train_iters; ++iter) {
      for (std::size_t s = 0; s < sample.size(); ++s) {
        const std::span<const float> row =
            base.Point(static_cast<VertexId>(sample[s]));
        assign[s] = NearestCentroid(q, m, row.data() + off);
      }
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), std::size_t{0});
      for (std::size_t s = 0; s < sample.size(); ++s) {
        const std::span<const float> row =
            base.Point(static_cast<VertexId>(sample[s]));
        double* sum = sums.data() + assign[s] * sub;
        for (std::size_t d = 0; d < sub; ++d) sum[d] += row[off + d];
        ++counts[assign[s]];
      }
      for (std::size_t j = 0; j < q.k_; ++j) {
        if (counts[j] == 0) continue;  // empty cluster keeps its centroid
        for (std::size_t d = 0; d < sub; ++d) {
          codebook[j * sub + d] = static_cast<float>(
              sums[j * sub + d] / static_cast<double>(counts[j]));
        }
      }
    }
  }
  return q;
}

void Quantizer::EncodeRow(std::span<const float> row,
                          std::uint8_t* code) const {
  GANNS_DCHECK(row.size() == dim_);
  if (precision_ == Precision::kSq8) {
    for (std::size_t d = 0; d < dim_; ++d) {
      if (sq8_scale_[d] <= 0.0f) {
        code[d] = 0;
        continue;
      }
      const float level = (row[d] - sq8_min_[d]) / sq8_scale_[d];
      const long q = std::lround(level);
      code[d] = static_cast<std::uint8_t>(std::clamp<long>(q, 0, 255));
    }
    return;
  }
  for (std::size_t m = 0; m < m_; ++m) {
    code[m] = static_cast<std::uint8_t>(
        NearestCentroid(*this, m, row.data() + sub_offset_[m]));
  }
}

void Quantizer::DecodeRow(const std::uint8_t* code,
                          std::span<float> row) const {
  GANNS_DCHECK(row.size() == dim_);
  if (precision_ == Precision::kSq8) {
    for (std::size_t d = 0; d < dim_; ++d) {
      row[d] = sq8_min_[d] + static_cast<float>(code[d]) * sq8_scale_[d];
    }
    return;
  }
  for (std::size_t m = 0; m < m_; ++m) {
    std::memcpy(row.data() + sub_offset_[m], centroid(m, code[m]),
                sub_dim(m) * sizeof(float));
  }
}

bool Quantizer::WriteTo(std::FILE* file) const {
  const std::uint64_t header[kQuantHeaderWords] = {
      kQuantMagic,
      kQuantVersion,
      dim_,
      static_cast<std::uint64_t>(precision_),
      m_,
      k_,
      rerank_factor_,
      0};
  if (std::fwrite(header, sizeof(header), 1, file) != 1) return false;
  if (precision_ == Precision::kSq8) {
    return std::fwrite(sq8_min_.data(), sizeof(float), dim_, file) == dim_ &&
           std::fwrite(sq8_scale_.data(), sizeof(float), dim_, file) == dim_;
  }
  return std::fwrite(centroids_.data(), sizeof(float), centroids_.size(),
                     file) == centroids_.size();
}

std::optional<Quantizer> Quantizer::ReadBody(std::FILE* file,
                                             std::string* error) {
  std::uint64_t rest[kQuantHeaderWords - 1] = {};
  if (std::fread(rest, sizeof(rest), 1, file) != 1) {
    SetError(error, "quantization section: truncated header");
    return std::nullopt;
  }
  const std::uint64_t version = rest[0];
  const std::uint64_t dim = rest[1];
  const std::uint64_t precision = rest[2];
  const std::uint64_t m = rest[3];
  const std::uint64_t k = rest[4];
  const std::uint64_t rerank = rest[5];
  if (version != kQuantVersion) {
    SetError(error, "quantization section: unsupported version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kQuantVersion) + ")");
    return std::nullopt;
  }
  if (dim == 0 || dim > kMaxQuantDim) {
    SetError(error, "quantization section: implausible dim " +
                        std::to_string(dim) + " (cap " +
                        std::to_string(kMaxQuantDim) + ")");
    return std::nullopt;
  }
  if (precision != static_cast<std::uint64_t>(Precision::kSq8) &&
      precision != static_cast<std::uint64_t>(Precision::kPq)) {
    SetError(error, "quantization section: unknown precision code " +
                        std::to_string(precision) + " (expected 1=sq8 2=pq)");
    return std::nullopt;
  }
  if (rerank == 0 || rerank > kMaxRerankFactor) {
    SetError(error, "quantization section: implausible rerank_factor " +
                        std::to_string(rerank));
    return std::nullopt;
  }

  Quantizer q;
  q.precision_ = static_cast<Precision>(precision);
  q.dim_ = dim;
  q.rerank_factor_ = rerank;
  // Each payload must be in the file before it is allocated.
  if (q.precision_ == Precision::kSq8) {
    bool read = BytesLeft(file) >= 2 * dim * sizeof(float);
    if (read) {
      q.sq8_min_.resize(dim);
      q.sq8_scale_.resize(dim);
      read = std::fread(q.sq8_min_.data(), sizeof(float), dim, file) == dim &&
             std::fread(q.sq8_scale_.data(), sizeof(float), dim, file) == dim;
    }
    if (!read) {
      SetError(error, "quantization section: truncated sq8 affine payload");
      return std::nullopt;
    }
    return q;
  }
  if (m == 0 || m > dim) {
    SetError(error, "quantization section: pq subspaces " +
                        std::to_string(m) + " out of range for dim " +
                        std::to_string(dim));
    return std::nullopt;
  }
  if (k == 0 || k > 256) {
    SetError(error, "quantization section: pq centroid count " +
                        std::to_string(k) + " (expected 1..256)");
    return std::nullopt;
  }
  q.m_ = m;
  q.k_ = k;
  q.sub_offset_.resize(m + 1);
  const std::size_t base_sub = q.dim_ / m;
  const std::size_t remainder = q.dim_ % m;
  q.sub_offset_[0] = 0;
  for (std::size_t i = 0; i < m; ++i) {
    q.sub_offset_[i + 1] = q.sub_offset_[i] + base_sub + (i < remainder ? 1 : 0);
  }
  const std::size_t floats = q.k_ * q.dim_;
  bool read = BytesLeft(file) >= floats * sizeof(float);
  if (read) {
    q.centroids_.resize(floats);
    read = std::fread(q.centroids_.data(), sizeof(float), floats, file) ==
           floats;
  }
  if (!read) {
    SetError(error, "quantization section: truncated pq codebook payload");
    return std::nullopt;
  }
  return q;
}

QuantizedCodes QuantizedCodes::EncodeAll(const Quantizer& quantizer,
                                         const Dataset& base) {
  QuantizedCodes codes(quantizer.code_bytes());
  codes.Resize(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    quantizer.EncodeRow(base.Point(static_cast<VertexId>(i)),
                        codes.bytes_.data() + i * codes.stride_);
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("quantize.code_bytes_per_vector")
        .Set(static_cast<double>(quantizer.code_bytes()));
  }
  return codes;
}

void QuantizedCodes::EncodeRow(const Quantizer& quantizer, std::size_t slot,
                               std::span<const float> row) {
  GANNS_CHECK(stride_ == quantizer.code_bytes());
  if ((slot + 1) * stride_ > bytes_.size()) {
    bytes_.resize((slot + 1) * stride_, 0);
  }
  quantizer.EncodeRow(row, bytes_.data() + slot * stride_);
}

bool WriteQuantizedSection(std::FILE* file, const Quantizer& quantizer,
                           const QuantizedCodes& codes) {
  if (!quantizer.WriteTo(file)) return false;
  const std::uint64_t num_codes = codes.size();
  if (std::fwrite(&num_codes, sizeof(num_codes), 1, file) != 1) return false;
  const std::size_t total = codes.resident_bytes();
  if (total == 0) return true;
  return std::fwrite(codes.data(), 1, total, file) == total;
}

std::optional<QuantizedStore> ReadQuantizedSection(std::FILE* file,
                                                   std::size_t expected_slots,
                                                   std::string* error) {
  SetError(error, "");
  std::uint64_t magic = 0;
  if (std::fread(&magic, sizeof(magic), 1, file) != 1) {
    return std::nullopt;  // clean EOF: uncompressed container
  }
  if (magic != kQuantMagic) {
    SetError(error, "unknown trailing section magic " + HexWord(magic) +
                        " (expected quantization section " +
                        HexWord(kQuantMagic) + ")");
    return std::nullopt;
  }
  std::optional<Quantizer> quantizer = Quantizer::ReadBody(file, error);
  if (!quantizer.has_value()) return std::nullopt;

  std::uint64_t num_codes = 0;
  if (std::fread(&num_codes, sizeof(num_codes), 1, file) != 1) {
    SetError(error, "quantization section: truncated code array header");
    return std::nullopt;
  }
  if (num_codes > kMaxCodes) {
    SetError(error, "quantization section: implausible code count " +
                        std::to_string(num_codes));
    return std::nullopt;
  }
  if (expected_slots != SIZE_MAX && num_codes != expected_slots) {
    SetError(error, "quantization section: code count mismatch (file has " +
                        std::to_string(num_codes) + " codes, index has " +
                        std::to_string(expected_slots) + " vectors)");
    return std::nullopt;
  }
  QuantizedStore store;
  store.quantizer = *std::move(quantizer);
  store.codes = QuantizedCodes(store.quantizer.code_bytes());
  // The code array must be in the file before it is allocated.
  const std::size_t total = num_codes * store.codes.code_bytes();
  bool read = BytesLeft(file) >= total;
  if (read) {
    store.codes.Resize(num_codes);
    read = ReadBulk(file, store.codes.mutable_data(), total);
  }
  if (!read) {
    SetError(error, "quantization section: truncated code array (expected " +
                        std::to_string(total) + " bytes)");
    return std::nullopt;
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("quantize.code_bytes_per_vector")
        .Set(static_cast<double>(store.quantizer.code_bytes()));
  }
  return store;
}

}  // namespace data
}  // namespace ganns
