#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/file.h"
#include "common/logging.h"
#include "data/distance.h"

namespace ganns {
namespace data {

void Dataset::Append(std::span<const float> point) {
  GANNS_CHECK_MSG(point.size() == dim_,
                  "appending " << point.size() << "-dim point to " << dim_
                               << "-dim dataset");
  values_.insert(values_.end(), point.begin(), point.end());
  values_.resize(values_.size() + (padded_dim_ - dim_), 0.0f);
}

void Dataset::AppendPaddedRows(std::span<const float> rows) {
  GANNS_CHECK_MSG(padded_dim_ > 0 && rows.size() % padded_dim_ == 0,
                  rows.size() << " floats are not whole rows of stride "
                              << padded_dim_);
  values_.insert(values_.end(), rows.begin(), rows.end());
}

std::size_t Dataset::ReadRows(std::FILE* file, std::size_t n) {
  const std::size_t row_bytes = sizeof(float) * dim_;
  if (row_bytes == 0) return 0;
  const std::size_t rows = static_cast<std::size_t>(
      std::min<std::uint64_t>(n, BytesLeft(file) / row_bytes));
  const std::size_t first = values_.size();
  values_.resize(first + rows * padded_dim_);  // unfilled: read over below
  float* out = values_.data() + first;
  if (!ReadBulk(file, out, rows * row_bytes)) {
    values_.resize(first);
    return 0;
  }
  if (padded_dim_ != dim_) {
    // The rows arrived packed; spread them to their stride from the last
    // one back, so no row is overwritten before it moves, and zero the
    // padding.
    for (std::size_t r = rows; r-- > 0;) {
      float* row = out + r * padded_dim_;
      std::memmove(row, out + r * dim_, row_bytes);
      std::fill(row + dim_, row + padded_dim_, 0.0f);
    }
  }
  return rows;
}

void Dataset::NormalizeRows() {
  for (std::size_t i = 0; i < size(); ++i) {
    NormalizeRow({values_.data() + i * padded_dim_, dim_});
  }
}

Dataset Dataset::TruncateDims(std::size_t new_dim) const {
  GANNS_CHECK(new_dim >= 1 && new_dim <= dim_);
  Dataset out(name_ + "-d" + std::to_string(new_dim), new_dim, metric_);
  out.Reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out.Append(Point(static_cast<VertexId>(i)).subspan(0, new_dim));
  }
  if (metric_ == Metric::kCosine) out.NormalizeRows();
  return out;
}

void NormalizeRow(std::span<float> row) {
  double norm_sq = 0;
  for (const float x : row) norm_sq += double{x} * x;
  if (norm_sq <= 0) return;
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (float& x : row) x *= inv;
}

Dist ExactDistance(Metric metric, std::span<const float> a,
                   std::span<const float> b) {
  GANNS_DCHECK(a.size() == b.size());
  return ComputeDistance(metric, a.data(), b.data(), a.size());
}

}  // namespace data
}  // namespace ganns
