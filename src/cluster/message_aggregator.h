#ifndef GANNS_CLUSTER_MESSAGE_AGGREGATOR_H_
#define GANNS_CLUSTER_MESSAGE_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ganns {
namespace cluster {

/// When the aggregator hands a buffered destination over to the wire.
enum class FlushTrigger {
  kCapacity,  ///< buffer reached max_bytes or max_messages
  kDeadline,  ///< oldest buffered message aged past deadline_us
  kShutdown,  ///< FlushAll at teardown — nothing may stay buffered
};

/// One coalesced transfer: everything buffered for `dest` at flush time.
struct FlushRecord {
  std::size_t dest = 0;
  std::size_t messages = 0;
  /// Payload bytes (header added by the transport charge, see
  /// kTransferHeaderBytes).
  std::size_t bytes = 0;
  FlushTrigger trigger = FlushTrigger::kCapacity;
  /// Caller tags of the coalesced messages, in enqueue order (the router
  /// tags each sub-query with its shard so a dropped transfer knows which
  /// shards' requests it lost).
  std::vector<std::uint32_t> tags;
  /// Trace-flow ids of the sampled requests whose sub-queries this flush
  /// coalesced (nonzero ids only, deduplicated, ascending) — the hook that
  /// lets a request's Perfetto flow pass through the aggregation boundary.
  std::vector<std::uint64_t> flows;
};

struct AggregatorOptions {
  /// Capacity triggers: flush a destination once its buffer holds this many
  /// payload bytes / messages, whichever comes first.
  std::size_t max_bytes = 8192;
  std::size_t max_messages = 64;
  /// Deadline trigger: flush once the oldest buffered message has waited
  /// this long on the simulated clock.
  double deadline_us = 100.0;
};

/// Per-transfer envelope charged on the wire in addition to the payload.
inline constexpr std::size_t kTransferHeaderBytes = 64;

/// Lifetime accounting. Every enqueued message leaves through exactly one
/// flush, so the invariant
///   capacity_flushes + deadline_flushes + shutdown_flushes == total_flushes
/// and enqueued_messages == coalesced messages across all flushes; both are
/// enforced by schema_check's cluster mode over exported reports.
struct AggregatorCounters {
  std::uint64_t enqueued_messages = 0;
  std::uint64_t enqueued_bytes = 0;
  std::uint64_t capacity_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  std::uint64_t shutdown_flushes = 0;
  std::uint64_t total_flushes = 0;
  /// Payload + header bytes handed to the wire.
  std::uint64_t sent_bytes = 0;

  /// Payload messages per transfer — the whole point of aggregation.
  double CoalescingFactor() const {
    return total_flushes == 0 ? 0.0
                              : static_cast<double>(enqueued_messages) /
                                    static_cast<double>(total_flushes);
  }
};

/// Per-destination coalescing buffer, after Grappa's RDMAAggregator: small
/// sub-query messages bound for the same node are batched into one transfer
/// so the per-message wire latency is paid once per flush instead of once
/// per sub-query. Flushes fire on capacity (bytes or message count), on
/// deadline (simulated-clock age of the oldest buffered message), or at
/// shutdown; each flush invokes the sink exactly once.
///
/// Single-threaded by design: the router enqueues on the routing thread in
/// deterministic order, and all timing is simulated — so flush order, and
/// therefore every downstream fault draw and counter, replays bit-for-bit.
class MessageAggregator {
 public:
  using FlushFn = std::function<void(const FlushRecord&)>;

  MessageAggregator(std::size_t num_destinations, AggregatorOptions options,
                    FlushFn sink);
  ~MessageAggregator();

  MessageAggregator(const MessageAggregator&) = delete;
  MessageAggregator& operator=(const MessageAggregator&) = delete;

  /// Buffers one `bytes`-sized message for `dest` at simulated time
  /// `now_us`; the destination flushes inline (kCapacity) the moment the
  /// buffer reaches max_bytes or max_messages. A nonzero `flow_id` marks
  /// the message as belonging to a sampled request's trace flow; the flush
  /// record carries the deduplicated id set.
  void Enqueue(std::size_t dest, std::size_t bytes, std::uint32_t tag,
               double now_us, std::uint64_t flow_id = 0);

  /// Advances the simulated clock: every destination whose oldest buffered
  /// message is older than deadline_us at `now_us` flushes as a deadline
  /// flush, in ascending destination order.
  void AdvanceTo(double now_us);

  /// Flushes every non-empty destination with the given trigger (ascending
  /// destination order). The destructor calls FlushAll(kShutdown) so no
  /// message is ever silently dropped by teardown.
  void FlushAll(FlushTrigger trigger);

  /// Buffered payload bytes for `dest` (tests / introspection).
  std::size_t PendingBytes(std::size_t dest) const;
  std::size_t PendingMessages(std::size_t dest) const;

  const AggregatorCounters& counters() const { return counters_; }
  const AggregatorOptions& options() const { return options_; }

 private:
  struct Buffer {
    std::size_t bytes = 0;
    double first_enqueue_us = 0.0;
    std::vector<std::uint32_t> tags;
    std::vector<std::uint64_t> flows;  // sorted unique nonzero flow ids
  };

  void Flush(std::size_t dest, FlushTrigger trigger);

  AggregatorOptions options_;
  FlushFn sink_;
  std::vector<Buffer> buffers_;
  AggregatorCounters counters_;
};

}  // namespace cluster
}  // namespace ganns

#endif  // GANNS_CLUSTER_MESSAGE_AGGREGATOR_H_
