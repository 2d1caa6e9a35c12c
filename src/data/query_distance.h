#ifndef GANNS_DATA_QUERY_DISTANCE_H_
#define GANNS_DATA_QUERY_DISTANCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "data/dataset.h"
#include "data/distance.h"
#include "data/quantize.h"

namespace ganns {
namespace data {

/// The per-query distance evaluator every search kernel computes through.
/// Without an enabled SearchQuantization it returns exact metric distances
/// from the float rows; with one, approximate distances from the packed
/// codes: SQ8 through the SQ8 kernel of the active kernel set, PQ through an
/// M*K LUT of partial distances built here from the float kernels. Built
/// once per query; the kernels charge words() per evaluation and
/// lut_build_words() once.
class QueryDistance {
 public:
  QueryDistance(const Dataset& base, std::span<const float> query,
                const SearchQuantization* quant = nullptr);

  /// Distance (metric-final: squared L2 or 1 - dot) from the query to
  /// vertex / code slot `v`.
  Dist One(VertexId v) const {
    if (codes_ == nullptr) {
      return ExactDistance(base_->metric(), base_->Point(v), query_);
    }
    return CodeDistance(v);
  }

  /// One() for every id, written to out[i]; the exact path is one batched
  /// DistanceMany call.
  void Many(std::span<const VertexId> ids, std::span<Dist> out) const {
    if (codes_ == nullptr) {
      DistanceMany(*base_, ids, query_, out);
      return;
    }
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = CodeDistance(ids[i]);
  }

  /// True when distances come from the packed codes; the kernels then
  /// exact-rerank the top rerank_factor() * k before emitting results.
  bool quantized() const { return codes_ != nullptr; }
  std::size_t rerank_factor() const { return rerank_factor_; }

  /// 32-bit words one evaluation loads: dim for a float row,
  /// ceil(code_bytes / 4) for a code.
  std::size_t words() const { return words_; }
  /// Words of the one-time per-query LUT build (the full PQ codebook,
  /// K * dim); 0 for float rows and SQ8.
  std::size_t lut_build_words() const { return lut_build_words_; }

 private:
  using Sq8Kernel = Dist (*)(const float*, const std::uint8_t*, const float*,
                             const float*, std::size_t);

  Dist CodeDistance(VertexId slot) const;

  const Dataset* base_;
  std::span<const float> query_;
  std::size_t words_;
  std::size_t lut_build_words_ = 0;
  // Compressed path only (codes_ == nullptr on the exact path).
  const Quantizer* quantizer_ = nullptr;
  const QuantizedCodes* codes_ = nullptr;
  std::size_t rerank_factor_ = 0;
  Sq8Kernel sq8_kernel_ = nullptr;
  std::vector<float> lut_;  // PQ: [m * K + j] partial distance/dot
};

}  // namespace data
}  // namespace ganns

#endif  // GANNS_DATA_QUERY_DISTANCE_H_
