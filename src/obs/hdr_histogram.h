#ifndef GANNS_OBS_HDR_HISTOGRAM_H_
#define GANNS_OBS_HDR_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace ganns {
namespace obs {

/// Log-linear high-dynamic-range histogram of non-negative integer samples
/// (latency microseconds, queue waits, batch sizes, hop counts, degrees) —
/// the registry's one histogram type.
///
/// Bucket layout: values below 2^(kSubBucketBits+1) are counted exactly (one
/// bucket per value); above that, every power-of-two octave is split into
/// 2^kSubBucketBits linear sub-buckets, so any recorded value is represented
/// by its bucket's upper bound with relative error < 2^-kSubBucketBits
/// (< 0.8%) across the whole 64-bit range: small integer counts stay exact,
/// and p95/p99/p99.9 of latencies are credible.
///
/// Concurrency and determinism: bucket counts and the count/sum/min/max
/// aggregates are relaxed atomics, so concurrent recording merges to exact
/// totals regardless of thread interleaving, and MergeFrom is plain integer
/// addition — merging the same per-thread histograms in any order yields an
/// identical result (the property the serving SLO accounting relies on).
class HdrHistogram {
 public:
  /// Sub-bucket resolution: 128 linear sub-buckets per octave.
  static constexpr int kSubBucketBits = 7;
  static constexpr std::uint64_t kSubBucketCount = 1ull << kSubBucketBits;

  /// Sentinel for Record calls that carry no exemplar.
  static constexpr std::uint64_t kNoExemplar = ~0ull;

  /// Exemplar: the id (request id / trace id) of one of the largest recorded
  /// samples, linking a histogram tail back to its trace.
  struct Exemplar {
    std::uint64_t value = 0;
    std::uint64_t id = 0;
  };
  /// How many of the largest samples keep their exemplar link.
  static constexpr std::size_t kMaxExemplars = 4;

  HdrHistogram();
  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  void Record(std::uint64_t value) { RecordWithExemplar(value, kNoExemplar); }

  /// Records `value` and, when `exemplar_id != kNoExemplar`, offers it as an
  /// exemplar: the histogram keeps the ids of its kMaxExemplars largest
  /// exemplar-carrying samples (ties broken toward the smaller id).
  void RecordWithExemplar(std::uint64_t value, std::uint64_t exemplar_id);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  std::uint64_t min() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Nearest-rank quantile: the bucket upper bound of the ceil(q*count)-th
  /// smallest sample, clamped to max() (so ValueAtQuantile(1.0) is the exact
  /// maximum). For a sorted reference r of the same samples this equals
  /// min(HighestEquivalent(r[rank-1]), max()) — asserted by the tests.
  std::uint64_t ValueAtQuantile(double q) const;

  /// The largest value mapping to the same bucket as `value` — the
  /// representative every sample in that bucket reports as.
  static std::uint64_t HighestEquivalent(std::uint64_t value);

  /// Cumulative bucket state at one instant, stored sparsely: (bucket index,
  /// cumulative count) for every non-empty bucket, ascending by index. Two
  /// snapshots of the same histogram bracket a time window; the Delta*
  /// helpers answer quantile questions about exactly the samples recorded
  /// between them without the histogram ever being reset.
  struct BucketSnapshot {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };

  /// Copies the current bucket state. Safe under concurrent recording
  /// (relaxed reads); a racing Record may or may not be included.
  BucketSnapshot SnapshotBuckets() const;

  /// Samples recorded between `prev` and `cur` (sum of bucket deltas, so it
  /// is internally consistent even if the aggregates raced).
  static std::uint64_t DeltaCount(const BucketSnapshot& cur,
                                  const BucketSnapshot& prev);

  /// Nearest-rank quantile of the samples recorded between `prev` and `cur`,
  /// reported as the bucket upper bound (same resolution contract as
  /// ValueAtQuantile). 0 when the window is empty. `prev` may be empty
  /// (process start).
  static std::uint64_t DeltaQuantile(const BucketSnapshot& cur,
                                     const BucketSnapshot& prev, double q);

  /// Adds every bucket count, the aggregates, and the exemplars of `other`
  /// into this histogram. Deterministic: merging a fixed set of histograms
  /// yields identical state in any merge order.
  void MergeFrom(const HdrHistogram& other);

  /// Exemplars sorted descending by (value, then ascending id); at most
  /// kMaxExemplars entries.
  std::vector<Exemplar> exemplars() const;

  void Reset();

 private:
  static std::size_t BucketIndex(std::uint64_t value);
  static std::uint64_t BucketUpperBound(std::size_t index);
  static std::size_t NumBuckets();

  void OfferExemplar(std::uint64_t value, std::uint64_t id);

  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};

  mutable std::mutex exemplar_mutex_;
  std::vector<Exemplar> exemplars_;  // sorted desc by (value, -id)
};

}  // namespace obs
}  // namespace ganns

#endif  // GANNS_OBS_HDR_HISTOGRAM_H_
