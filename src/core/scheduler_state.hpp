// State building blocks of the flat scheduler (core/scheduler.hpp): the
// pooled InputBundle storage, the per-vertex full-phase FIFO, and the
// bitset helpers behind its allocation-free steady state (see DESIGN.md,
// "Flat scheduler state").
#pragma once

#include <cstdint>
#include <vector>

#include "event/message.hpp"
#include "event/phase.hpp"

namespace df::core {

/// Bundle-table sentinel: no pooled bundle assigned to this vertex.
inline constexpr std::uint32_t kNoBundle = 0xffffffffu;

inline bool bit_test(const std::vector<std::uint64_t>& bits,
                     std::uint32_t v) {
  return (bits[v >> 6] >> (v & 63)) & 1u;
}
inline void bit_set(std::vector<std::uint64_t>& bits, std::uint32_t v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}
inline void bit_clear(std::vector<std::uint64_t>& bits, std::uint32_t v) {
  bits[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
}

/// Pooled InputBundle storage. Bundles are addressed by index; released
/// slots are reused, so after warm-up no transition allocates. Capacity
/// recirculates: issuing a pair moves the vector's buffer out into the
/// ReadyPair (leaving the slot hollow), and finish_execution donates the
/// executed bundle's buffer back. Hollow and warm (capacity-carrying)
/// free slots are tracked separately: acquire() prefers warm slots so a
/// donated buffer is never buried under hollow ones, which is what makes
/// steady-state transitions allocation-free once the pool has grown to
/// the peak concurrent bundle demand.
class BundlePool {
 public:
  /// Takes ownership of a caller-built bundle (phase-start sources).
  std::uint32_t adopt(event::InputBundle&& bundle) {
    const std::uint32_t idx = hollow_slot();
    store_[idx] = std::move(bundle);
    return idx;
  }
  /// An empty bundle for accumulating messages, reusing a donated buffer
  /// when one is available.
  std::uint32_t acquire() {
    if (!warm_.empty()) {
      const std::uint32_t idx = warm_.back();
      warm_.pop_back();
      return idx;
    }
    return hollow_slot();
  }
  event::InputBundle& at(std::uint32_t idx) { return store_[idx]; }
  /// Moves the bundle out and frees the (now hollow) slot in one step.
  event::InputBundle take(std::uint32_t idx) {
    event::InputBundle bundle = std::move(store_[idx]);
    store_[idx].clear();
    hollow_.push_back(idx);
    return bundle;
  }
  /// Creates `slots` extra slots whose buffers already hold capacity for
  /// `capacity` messages, so the first acquisitions do not allocate.
  void prewarm(std::size_t slots, std::size_t capacity) {
    store_.reserve(store_.size() + slots);
    warm_.reserve(store_.capacity());
    hollow_.reserve(store_.capacity());
    for (std::size_t i = 0; i < slots; ++i) {
      store_.emplace_back();
      store_.back().reserve(capacity);
      warm_.push_back(static_cast<std::uint32_t>(store_.size() - 1));
    }
  }

  /// Returns a spent bundle's buffer to the pool: a future acquire() gets
  /// its capacity instead of allocating. Donation is strictly an
  /// optimization and never grows the pool: it parks the buffer in an
  /// already-hollow slot, and only while warm slots are under half the
  /// store — acquires reopen that headroom every cycle, while workloads
  /// whose donations persistently outpace acquisitions (fan-in graphs
  /// with event-carrying sources) drop the surplus instead of hoarding
  /// slots forever. If the cap ever binds too tightly, the resulting
  /// acquire miss grows the store once and the cap rises with it.
  void donate(event::InputBundle&& bundle) {
    if (bundle.capacity() == 0 || hollow_.empty() ||
        warm_.size() >= store_.size() / 2) {
      return;  // nothing worth keeping, or no headroom: drop it
    }
    bundle.clear();
    const std::uint32_t idx = hollow_.back();
    hollow_.pop_back();
    store_[idx] = std::move(bundle);
    warm_.push_back(idx);
  }

  /// Total slots ever created; bounded by peak live-bundle demand (tests
  /// assert it stops growing at steady state).
  std::size_t slot_count() const { return store_.size(); }

 private:
  std::uint32_t hollow_slot() {
    if (!hollow_.empty()) {
      const std::uint32_t idx = hollow_.back();
      hollow_.pop_back();
      return idx;
    }
    store_.emplace_back();
    // Every slot can be on a free list at once (e.g. when the window
    // drains); sizing the lists with the store keeps even that case
    // allocation-free after the pool stops growing.
    warm_.reserve(store_.capacity());
    hollow_.reserve(store_.capacity());
    return static_cast<std::uint32_t>(store_.size() - 1);
  }

  std::vector<event::InputBundle> store_;
  std::vector<std::uint32_t> warm_;    // free slots carrying capacity
  std::vector<std::uint32_t> hollow_;  // free slots with no buffer
};

/// Per vertex: phases whose pairs are full but not yet issued, in
/// ascending order (a pair can only become full for phases later than any
/// already-full phase — see the promotion scans), stored as a flat queue
/// with a head offset; plus the at-most-one issued-but-unfinished pair.
struct VertexSchedState {
  std::vector<event::PhaseId> full_phases;
  std::uint32_t full_head = 0;
  bool in_ready = false;
  event::PhaseId ready_phase = 0;

  bool full_empty() const { return full_head == full_phases.size(); }
  event::PhaseId full_front() const { return full_phases[full_head]; }
  /// Appends a phase, first compacting the consumed prefix so the queue's
  /// footprint stays at the live count (bounded by the phase window)
  /// instead of growing with the phase index.
  void push_full(event::PhaseId p) {
    if (full_head > 0) {
      full_phases.erase(full_phases.begin(),
                        full_phases.begin() +
                            static_cast<std::ptrdiff_t>(full_head));
      full_head = 0;
    }
    full_phases.push_back(p);
  }
};

}  // namespace df::core
