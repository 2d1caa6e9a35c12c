#ifndef GANNS_DATA_DATASET_H_
#define GANNS_DATA_DATASET_H_

#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/logging.h"
#include "common/types.h"

namespace ganns {
namespace data {

/// Distance metric attached to a dataset (Table I of the paper).
enum class Metric {
  /// Squared Euclidean distance. Monotone in Euclidean distance, so nearest
  /// neighbors and recall are identical while saving the sqrt — the same
  /// trick every production ANN system uses.
  kL2,
  /// Cosine distance 1 - cos(u, v). Dataset vectors are L2-normalized at
  /// construction, after which 1 - <u, v> computes it with one dot product.
  kCosine,
};

/// An in-memory collection of fixed-dimension float vectors plus its metric.
/// Rows are stored contiguously (row-major), matching the "features in GPU
/// global memory" layout the kernels index into.
///
/// Storage is padded: each row occupies padded_dim() floats — dim() rounded
/// up to a multiple of 8 — in a 32-byte-aligned buffer, so every row starts
/// on an AVX2-register boundary and the SIMD distance kernels see a regular
/// stride. Padding floats are always zero; they contribute nothing to L2 or
/// dot products and are invisible through Point().
class Dataset {
 public:
  /// Row padding granularity in floats (32 bytes = one AVX2 register).
  static constexpr std::size_t kRowAlignFloats = 8;

  Dataset(std::string name, std::size_t dim, Metric metric)
      : name_(std::move(name)),
        dim_(dim),
        padded_dim_((dim + kRowAlignFloats - 1) / kRowAlignFloats *
                    kRowAlignFloats),
        metric_(metric) {}

  const std::string& name() const { return name_; }
  std::size_t dim() const { return dim_; }
  /// Row stride of the backing buffer in floats (dim() rounded up to 8).
  std::size_t padded_dim() const { return padded_dim_; }
  Metric metric() const { return metric_; }
  std::size_t size() const {
    return padded_dim_ == 0 ? 0 : values_.size() / padded_dim_;
  }

  /// The i-th vector. Hot path: bounds are asserted in debug builds only;
  /// use PointChecked() where the index comes from untrusted input.
  std::span<const float> Point(VertexId i) const {
    GANNS_DCHECK_MSG(std::size_t{i} < size(),
                     "point " << i << " out of range (size " << size() << ")");
    return std::span<const float>(values_.data() + std::size_t{i} * padded_dim_,
                                  dim_);
  }

  /// Point() with the bounds check kept in Release builds, for non-hot
  /// callers handling external indices (file IO, CLI tools).
  std::span<const float> PointChecked(VertexId i) const {
    GANNS_CHECK_MSG(std::size_t{i} < size(),
                    "point " << i << " out of range (size " << size() << ")");
    return Point(i);
  }

  /// Appends one vector; must have exactly dim() components.
  void Append(std::span<const float> point);

  /// Appends rows already in this dataset's padded layout (stride
  /// padded_dim(), zero padding), e.g. a contiguous block of values() of a
  /// dataset with the same dim. One copy, no per-row work.
  void AppendPaddedRows(std::span<const float> rows);

  /// Appends up to n rows of dim() unpadded floats read from `file`: the
  /// complete rows the rest of the file holds, at most n, are read in one
  /// bulk read (common/file.h) into unfilled storage and, when dim() needs
  /// padding, spread to their stride in place. Returns the number of rows
  /// appended: fewer than n only when the file ends early, and 0 on a read
  /// error.
  std::size_t ReadRows(std::FILE* file, std::size_t n);

  /// Reserves storage for n points.
  void Reserve(std::size_t n) { values_.reserve(n * padded_dim_); }

  /// L2-normalizes every vector in place (no-op for all-zero rows). Called by
  /// generators for cosine datasets so that 1 - dot() is the cosine distance.
  void NormalizeRows();

  /// Keeps only the first `new_dim` coordinates of every vector (used by the
  /// Figure 9 dimensionality experiment, which truncates GIST from 960 down
  /// to 60 dims, and by SIFT10M which uses the first 32 SIFT dims).
  Dataset TruncateDims(std::size_t new_dim) const;

  /// Direct access to the padded row-major buffer (stride padded_dim()).
  std::span<const float> values() const { return values_; }

  /// Base pointer of the padded row-major buffer; row i starts at
  /// row_data() + i * padded_dim(). Used by the batched distance kernels.
  const float* row_data() const { return values_.data(); }

 private:
  std::string name_;
  std::size_t dim_;
  std::size_t padded_dim_;
  Metric metric_;
  AlignedFloatVector values_;
};

/// L2-normalizes `row` in place; a zero row stays as it is. The one cosine
/// normalizer: datasets, generators and online inserts all go through it, so
/// a point normalizes to the same floats on every path.
void NormalizeRow(std::span<float> row);

/// Computes the dataset's metric between two equal-length vectors through
/// the host distance kernels (data/distance.h). For kL2 this
/// is squared Euclidean; for kCosine it is 1 - <a, b> and assumes both
/// vectors are unit-normalized.
Dist ExactDistance(Metric metric, std::span<const float> a,
                   std::span<const float> b);

}  // namespace data
}  // namespace ganns

#endif  // GANNS_DATA_DATASET_H_
