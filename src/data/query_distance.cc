#include "data/query_distance.h"

#include "common/logging.h"
#include "data/distance_kernels.h"

namespace ganns {
namespace data {

QueryDistance::QueryDistance(const Dataset& base, std::span<const float> query,
                             const SearchQuantization* quant)
    : base_(&base), query_(query), words_(base.dim()) {
  if (quant == nullptr || !quant->enabled()) return;
  quantizer_ = quant->quantizer;
  codes_ = quant->codes;
  rerank_factor_ = quant->rerank_factor;
  GANNS_CHECK(query.size() == quantizer_->dim());
  words_ = (quantizer_->code_bytes() + 3) / 4;
  if (quantizer_->precision() == Precision::kSq8) {
    const internal::KernelSet& set = internal::ActiveKernels();
    sq8_kernel_ = base.metric() == Metric::kL2 ? set.sq8_l2 : set.sq8_dot;
    return;
  }
  // PQ: per-query LUT of partial distances (L2) or partial dots (cosine),
  // built through the float kernels, so both kernel sets compute the same
  // table bit for bit.
  const std::size_t m = quantizer_->pq_subspaces();
  const std::size_t k = quantizer_->pq_centroids();
  lut_.resize(m * k);
  for (std::size_t i = 0; i < m; ++i) {
    const float* sub = query.data() + quantizer_->sub_offset(i);
    const std::size_t sub_dim = quantizer_->sub_dim(i);
    for (std::size_t j = 0; j < k; ++j) {
      lut_[i * k + j] =
          base.metric() == Metric::kL2
              ? ComputeDistance(Metric::kL2, sub, quantizer_->centroid(i, j),
                                sub_dim)
              : ComputeInnerProduct(sub, quantizer_->centroid(i, j), sub_dim);
    }
  }
  lut_build_words_ = k * quantizer_->dim();
}

Dist QueryDistance::CodeDistance(VertexId slot) const {
  const std::uint8_t* code = codes_->code(slot);
  const bool l2 = base_->metric() == Metric::kL2;
  if (quantizer_->precision() == Precision::kSq8) {
    const Dist d = sq8_kernel_(query_.data(), code,
                               quantizer_->sq8_min().data(),
                               quantizer_->sq8_scale().data(),
                               quantizer_->dim());
    return l2 ? d : 1.0f - d;
  }
  const std::size_t k = quantizer_->pq_centroids();
  float acc = 0.0f;
  for (std::size_t m = 0; m < quantizer_->pq_subspaces(); ++m) {
    acc += lut_[m * k + code[m]];
  }
  return l2 ? acc : 1.0f - acc;
}

}  // namespace data
}  // namespace ganns
