#include "cluster/message_aggregator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ganns {
namespace cluster {

MessageAggregator::MessageAggregator(std::size_t num_destinations,
                                     AggregatorOptions options, FlushFn sink)
    : options_(options), sink_(std::move(sink)), buffers_(num_destinations) {
  GANNS_CHECK(num_destinations >= 1);
  GANNS_CHECK(options_.max_bytes >= 1);
  GANNS_CHECK(options_.max_messages >= 1);
  GANNS_CHECK(sink_ != nullptr);
}

MessageAggregator::~MessageAggregator() { FlushAll(FlushTrigger::kShutdown); }

void MessageAggregator::Enqueue(std::size_t dest, std::size_t bytes,
                                std::uint32_t tag, double now_us,
                                std::uint64_t flow_id) {
  GANNS_DCHECK(dest < buffers_.size());
  Buffer& buffer = buffers_[dest];
  if (buffer.tags.empty()) buffer.first_enqueue_us = now_us;
  buffer.bytes += bytes;
  buffer.tags.push_back(tag);
  if (flow_id != 0) {
    const auto it = std::lower_bound(buffer.flows.begin(), buffer.flows.end(),
                                     flow_id);
    if (it == buffer.flows.end() || *it != flow_id) {
      buffer.flows.insert(it, flow_id);
    }
  }
  ++counters_.enqueued_messages;
  counters_.enqueued_bytes += bytes;
  if (buffer.bytes >= options_.max_bytes ||
      buffer.tags.size() >= options_.max_messages) {
    Flush(dest, FlushTrigger::kCapacity);
  }
}

void MessageAggregator::AdvanceTo(double now_us) {
  for (std::size_t dest = 0; dest < buffers_.size(); ++dest) {
    const Buffer& buffer = buffers_[dest];
    if (buffer.tags.empty()) continue;
    if (buffer.first_enqueue_us + options_.deadline_us <= now_us) {
      Flush(dest, FlushTrigger::kDeadline);
    }
  }
}

void MessageAggregator::FlushAll(FlushTrigger trigger) {
  for (std::size_t dest = 0; dest < buffers_.size(); ++dest) {
    if (!buffers_[dest].tags.empty()) Flush(dest, trigger);
  }
}

std::size_t MessageAggregator::PendingBytes(std::size_t dest) const {
  return buffers_[dest].bytes;
}

std::size_t MessageAggregator::PendingMessages(std::size_t dest) const {
  return buffers_[dest].tags.size();
}

void MessageAggregator::Flush(std::size_t dest, FlushTrigger trigger) {
  Buffer& buffer = buffers_[dest];
  GANNS_DCHECK(!buffer.tags.empty());
  FlushRecord record;
  record.dest = dest;
  record.messages = buffer.tags.size();
  record.bytes = buffer.bytes;
  record.trigger = trigger;
  record.tags = std::move(buffer.tags);
  record.flows = std::move(buffer.flows);
  buffer.bytes = 0;
  buffer.tags.clear();  // moved-from: make the empty state explicit
  buffer.flows.clear();
  switch (trigger) {
    case FlushTrigger::kCapacity: ++counters_.capacity_flushes; break;
    case FlushTrigger::kDeadline: ++counters_.deadline_flushes; break;
    case FlushTrigger::kShutdown: ++counters_.shutdown_flushes; break;
  }
  ++counters_.total_flushes;
  counters_.sent_bytes += record.bytes + kTransferHeaderBytes;
  sink_(record);
}

}  // namespace cluster
}  // namespace ganns
