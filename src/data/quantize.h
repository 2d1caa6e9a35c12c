#ifndef GANNS_DATA_QUANTIZE_H_
#define GANNS_DATA_QUANTIZE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"
#include "data/dataset.h"

// Compressed-vector layer for the two-stage search path (CAGRA-style:
// approximate distances over packed codes inside the graph traversal, exact
// float rerank before result emission).
//
// Two code families:
//   - SQ8: per-dimension min/max affine scalar quantization to one byte per
//     dimension (4x smaller than float32). Asymmetric distance dequantizes
//     on the fly against the float query through the SQ8 kernels of the
//     active kernel set (data/distance_kernels.h, same determinism contract
//     as the float kernels).
//   - PQ: product quantization — the dimensions are split into M contiguous
//     subspaces, each with its own K <= 256 centroid codebook learned by
//     deterministic seeded k-means; a vector is M bytes (typically 32x
//     smaller). Per-query asymmetric distance is a table lookup: a LUT of
//     M*K partial distances is built once per query from the float
//     kernels, then each candidate costs M adds.
// Searches evaluate both through data::QueryDistance (data/query_distance.h).
//
// Codebooks and packed codes serialize as an optional trailing section of
// the v3 containers (see WriteQuantizedSection); files without the section
// load as uncompressed, preserving v1/v2/plain-v3 read-compat.

namespace ganns {
namespace data {

enum class Precision : std::uint8_t {
  kFloat32 = 0,  // exact float rows, no code array
  kSq8 = 1,      // scalar int8, dim bytes per vector
  kPq = 2,       // product quantization, M bytes per vector
};

const char* PrecisionName(Precision precision);
std::optional<Precision> ParsePrecision(std::string_view name);

/// Training/search knobs threaded from the CLI and serve configs.
struct QuantizerOptions {
  Precision precision = Precision::kFloat32;
  /// PQ subspace count M (clamped to dim). 16 subspaces over 128 dims is
  /// the classic 8 dims/byte layout.
  std::size_t pq_subspaces = 16;
  /// PQ centroids per subspace K (<= 256 so codes stay one byte; clamped to
  /// the training sample size).
  std::size_t pq_centroids = 256;
  /// Lloyd iterations for the per-subspace k-means.
  std::size_t pq_train_iters = 6;
  /// Training rows sampled (deterministic stride) from the corpus.
  std::size_t train_sample = 4096;
  std::uint64_t seed = 0x5154;  // "QT"
  /// Exact-rerank pool multiplier: the top rerank_factor * k candidates by
  /// approximate distance get exact float distances before emission.
  std::size_t rerank_factor = 4;
};

/// Trained codebooks for one corpus; immutable after Train/ReadFrom. A
/// default-constructed quantizer has precision kFloat32 (no codebooks).
class Quantizer {
 public:
  Quantizer() = default;

  /// Learns codebooks from the corpus. Deterministic in (base, options).
  /// precision must not be kFloat32.
  static Quantizer Train(const Dataset& base, const QuantizerOptions& options);

  Precision precision() const { return precision_; }
  std::size_t dim() const { return dim_; }
  /// Bytes per encoded vector: dim for SQ8, M for PQ.
  std::size_t code_bytes() const;
  std::size_t pq_subspaces() const { return m_; }
  std::size_t pq_centroids() const { return k_; }
  std::size_t rerank_factor() const { return rerank_factor_; }
  void set_rerank_factor(std::size_t factor) {
    rerank_factor_ = factor == 0 ? 1 : factor;
  }

  /// Encodes one float row (row.size() == dim) into code_bytes() bytes.
  void EncodeRow(std::span<const float> row, std::uint8_t* code) const;
  /// Reconstructs the approximate float row a code stands for.
  void DecodeRow(const std::uint8_t* code, std::span<float> row) const;

  // SQ8 affine parameters (empty unless precision == kSq8).
  std::span<const float> sq8_min() const { return sq8_min_; }
  std::span<const float> sq8_scale() const { return sq8_scale_; }

  // PQ codebook access (valid only when precision == kPq).
  std::size_t sub_dim(std::size_t m) const {
    return sub_offset_[m + 1] - sub_offset_[m];
  }
  std::size_t sub_offset(std::size_t m) const { return sub_offset_[m]; }
  const float* centroid(std::size_t m, std::size_t j) const {
    return centroids_.data() + k_ * sub_offset_[m] + j * sub_dim(m);
  }

  bool WriteTo(std::FILE* file) const;
  /// Reads a quantizer record whose magic word has already been consumed by
  /// the section reader. On failure returns nullopt and explains in *error.
  static std::optional<Quantizer> ReadBody(std::FILE* file,
                                           std::string* error);

 private:
  Precision precision_ = Precision::kFloat32;
  std::size_t dim_ = 0;
  std::size_t rerank_factor_ = 4;
  // SQ8: value = min[d] + code[d] * scale[d], scale = (max - min) / 255.
  std::vector<float> sq8_min_;
  std::vector<float> sq8_scale_;
  // PQ: M subspaces covering [sub_offset_[m], sub_offset_[m+1]); codebook m
  // holds k_ centroids of sub_dim(m) floats each, stored contiguously.
  std::size_t m_ = 0;
  std::size_t k_ = 0;
  std::vector<std::size_t> sub_offset_;
  std::vector<float> centroids_;
};

/// Packed per-slot code array mirroring a Dataset's slot space. Slot i's
/// code lives at data() + i * code_bytes; slots are re-encoded in place on
/// serve-path inserts and compactions.
class QuantizedCodes {
 public:
  QuantizedCodes() = default;
  explicit QuantizedCodes(std::size_t code_bytes) : stride_(code_bytes) {}

  /// Encodes every row of the corpus.
  static QuantizedCodes EncodeAll(const Quantizer& quantizer,
                                  const Dataset& base);

  std::size_t size() const { return stride_ == 0 ? 0 : bytes_.size() / stride_; }
  std::size_t code_bytes() const { return stride_; }
  /// Bytes resident for the code array — the quantity the serve path is
  /// shrinking relative to 4 * dim float rows.
  std::size_t resident_bytes() const { return bytes_.size(); }

  const std::uint8_t* code(std::size_t slot) const {
    return bytes_.data() + slot * stride_;
  }
  /// Grows (zero-filled) to cover `slot`, then encodes `row` into it.
  void EncodeRow(const Quantizer& quantizer, std::size_t slot,
                 std::span<const float> row);
  /// Sizes the array to `num_slots` codes; new slots are unfilled, for a
  /// caller that writes every one of them.
  void Resize(std::size_t num_slots) { bytes_.resize(num_slots * stride_); }

  const std::uint8_t* data() const { return bytes_.data(); }
  std::uint8_t* mutable_data() { return bytes_.data(); }

 private:
  std::size_t stride_ = 0;
  UnfilledVector<std::uint8_t> bytes_;
};

/// Borrowed view bundling everything a search kernel needs to run the
/// compressed path. A null/disabled view means exact float search.
struct SearchQuantization {
  const Quantizer* quantizer = nullptr;
  const QuantizedCodes* codes = nullptr;
  std::size_t rerank_factor = 4;

  bool enabled() const {
    return quantizer != nullptr && codes != nullptr &&
           quantizer->precision() != Precision::kFloat32;
  }
};

/// Serialized bundle: one quantizer record followed by the packed code
/// array, written as an optional trailing section of the v3 containers.
struct QuantizedStore {
  Quantizer quantizer;
  QuantizedCodes codes;
};

bool WriteQuantizedSection(std::FILE* file, const Quantizer& quantizer,
                           const QuantizedCodes& codes);

/// Reads the optional quantization section at the current file position.
/// Outcomes:
///   - clean EOF: returns nullopt with *error left empty (no section —
///     an uncompressed container);
///   - a valid section: returns the store;
///   - anything else (unknown trailing magic, version/dim/count mismatch,
///     truncation): returns nullopt with a named, specific *error.
/// When expected_slots != SIZE_MAX the code array must cover exactly that
/// many slots (codebook-mismatch errors cite both counts).
std::optional<QuantizedStore> ReadQuantizedSection(std::FILE* file,
                                                   std::size_t expected_slots,
                                                   std::string* error);

}  // namespace data
}  // namespace ganns

#endif  // GANNS_DATA_QUANTIZE_H_
