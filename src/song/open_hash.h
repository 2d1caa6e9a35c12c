#ifndef GANNS_SONG_OPEN_HASH_H_
#define GANNS_SONG_OPEN_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace song {

/// Open-addressing (linear probing) hash set of vertex ids — SONG's visited
/// table H (§II-D). H only tracks the points currently in N ∪ C: when a
/// point is evicted from either queue, SONG's "visited deletion
/// optimization" removes it from H, keeping the table at a fixed 2k-class
/// size at the cost of re-computing distances for re-encountered points.
/// Deletion uses tombstones; the table rebuilds itself when tombstones
/// would degrade probe chains. Probes are counted so the kernel can charge
/// the host lane for the operations actually executed.
class OpenHashSet {
 public:
  /// Creates a table sized for `expected` simultaneous members.
  explicit OpenHashSet(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 4 * expected) cap <<= 1;
    slots_.assign(cap, kEmpty);
    if (obs::MetricsEnabled()) {
      probe_hist_ =
          &obs::MetricsRegistry::Global().GetHdr("song.hash_probe_length");
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Probe operations (slot inspections) executed since construction,
  /// including those spent rebuilding.
  std::size_t ops() const { return ops_; }

  /// Returns true iff `v` is present.
  bool Contains(VertexId v) const {
    const std::size_t before = ops_;
    bool found = false;
    std::size_t i = Slot(v);
    for (;;) {
      ++ops_;
      const VertexId s = slots_[i];
      if (s == kEmpty) break;
      if (s == v) {
        found = true;
        break;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    RecordProbes(before);
    return found;
  }

  /// Inserts `v`; returns false if it was already present.
  bool Insert(VertexId v) {
    GANNS_CHECK(v != kEmpty && v != kTombstone);
    MaybeRebuild(/*inserting=*/true);
    const std::size_t before = ops_;
    std::size_t i = Slot(v);
    std::size_t first_tombstone = kNoSlot;
    for (;;) {
      ++ops_;
      const VertexId s = slots_[i];
      if (s == v) {
        RecordProbes(before);
        return false;
      }
      if (s == kTombstone && first_tombstone == kNoSlot) {
        first_tombstone = i;
      }
      if (s == kEmpty) {
        if (first_tombstone != kNoSlot) {
          slots_[first_tombstone] = v;
          --tombstones_;
        } else {
          slots_[i] = v;
        }
        ++size_;
        RecordProbes(before);
        return true;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Removes `v` if present (tombstone deletion); returns true on removal.
  bool Remove(VertexId v) {
    const std::size_t before = ops_;
    bool removed = false;
    std::size_t i = Slot(v);
    for (;;) {
      ++ops_;
      const VertexId s = slots_[i];
      if (s == kEmpty) break;
      if (s == v) {
        slots_[i] = kTombstone;
        --size_;
        ++tombstones_;
        removed = true;
        break;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    RecordProbes(before);
    return removed;
  }

 private:
  static constexpr VertexId kEmpty = kInvalidVertex;
  static constexpr VertexId kTombstone = kInvalidVertex - 1;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  std::size_t Slot(VertexId v) const {
    // Fibonacci hashing spreads consecutive ids across the table.
    const std::uint64_t h = std::uint64_t{v} * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> 32) & (slots_.size() - 1);
  }

  /// Keeps probe chains short: grows when genuinely over-full, compacts in
  /// place (dropping tombstones) when deletions have polluted the table.
  void MaybeRebuild(bool inserting) {
    const std::size_t load = size_ + tombstones_ + (inserting ? 1 : 0);
    if (2 * load <= slots_.size()) return;
    std::vector<VertexId> old = std::move(slots_);
    const std::size_t new_cap =
        2 * (size_ + 1) * 2 > old.size() ? old.size() * 2 : old.size();
    slots_.assign(new_cap, kEmpty);
    const std::size_t members = size_;
    size_ = 0;
    tombstones_ = 0;
    rebuilding_ = true;
    for (VertexId v : old) {
      if (v != kEmpty && v != kTombstone) Insert(v);
    }
    rebuilding_ = false;
    GANNS_CHECK(size_ == members);
  }

  /// Records one operation's probe-chain length (slot inspections) into the
  /// metrics histogram. Rebuild-internal inserts are excluded so the
  /// distribution reflects what the search's host lane observes.
  void RecordProbes(std::size_t before) const {
    if (probe_hist_ != nullptr && !rebuilding_) {
      probe_hist_->Record(ops_ - before);
    }
  }

  std::vector<VertexId> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  mutable std::size_t ops_ = 0;
  obs::HdrHistogram* probe_hist_ = nullptr;
  bool rebuilding_ = false;
};

}  // namespace song
}  // namespace ganns

#endif  // GANNS_SONG_OPEN_HASH_H_
