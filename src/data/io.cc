#include "data/io.h"

#include <cstdio>

#include "common/file.h"

namespace ganns {
namespace data {

std::optional<Dataset> ReadFvecs(const std::string& path,
                                 const std::string& name, Metric metric) {
  File file(path, "rb");
  if (!file) return std::nullopt;

  std::optional<Dataset> dataset;
  std::vector<float> row;
  for (;;) {
    std::int32_t dim = 0;
    const std::size_t got = std::fread(&dim, sizeof(dim), 1, file.get());
    if (got == 0) break;  // clean EOF
    if (dim <= 0) return std::nullopt;
    row.resize(static_cast<std::size_t>(dim));
    if (std::fread(row.data(), sizeof(float), row.size(), file.get()) !=
        row.size()) {
      return std::nullopt;  // truncated record
    }
    if (!dataset.has_value()) {
      dataset.emplace(name, static_cast<std::size_t>(dim), metric);
    } else if (dataset->dim() != static_cast<std::size_t>(dim)) {
      return std::nullopt;  // inconsistent dimensions
    }
    dataset->Append(row);
  }
  if (!dataset.has_value()) return std::nullopt;  // empty file
  if (metric == Metric::kCosine) dataset->NormalizeRows();
  return dataset;
}

bool WriteFvecs(const std::string& path, const Dataset& dataset) {
  File file(path, "wb");
  if (!file) return false;
  const std::int32_t dim = static_cast<std::int32_t>(dataset.dim());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto point = dataset.PointChecked(static_cast<VertexId>(i));
    if (std::fwrite(&dim, sizeof(dim), 1, file.get()) != 1) return false;
    if (std::fwrite(point.data(), sizeof(float), point.size(), file.get()) !=
        point.size()) {
      return false;
    }
  }
  return file.Close();
}

std::optional<std::vector<std::vector<std::int32_t>>> ReadIvecs(
    const std::string& path) {
  File file(path, "rb");
  if (!file) return std::nullopt;
  std::vector<std::vector<std::int32_t>> rows;
  for (;;) {
    std::int32_t dim = 0;
    const std::size_t got = std::fread(&dim, sizeof(dim), 1, file.get());
    if (got == 0) break;
    if (dim < 0) return std::nullopt;
    std::vector<std::int32_t> row(static_cast<std::size_t>(dim));
    if (std::fread(row.data(), sizeof(std::int32_t), row.size(), file.get()) !=
        row.size()) {
      return std::nullopt;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

bool WriteIvecs(const std::string& path,
                const std::vector<std::vector<std::int32_t>>& rows) {
  File file(path, "wb");
  if (!file) return false;
  for (const auto& row : rows) {
    const std::int32_t dim = static_cast<std::int32_t>(row.size());
    if (std::fwrite(&dim, sizeof(dim), 1, file.get()) != 1) return false;
    if (!row.empty() &&
        std::fwrite(row.data(), sizeof(std::int32_t), row.size(),
                    file.get()) != row.size()) {
      return false;
    }
  }
  return file.Close();
}

}  // namespace data
}  // namespace ganns
