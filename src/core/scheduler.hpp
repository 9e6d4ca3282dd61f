// The paper's scheduling state machine (section 3.1.2, Listings 1 and 2).
//
// The Scheduler maintains, for every active phase p, the paper's data
// structures:
//
//   x_p       highest index such that all vertices indexed <= x_p have
//             finished phase p, clamped to x_{p-1} (no overtaking);
//   partial   vertex-phase pairs with at least one message but not yet a
//             full set of inputs (eqn 9): msg(v,p) and v > m(x_p);
//   full      pairs with a full set of inputs (eqn 7): msg(v,p) and
//             x_p < v <= m(x_p);
//   ready     the subset of full with the minimum phase per vertex (eqn 8);
//             pairs enter ready exactly once and leave when executed.
//
// The Scheduler is deliberately *passive*: it has no threads and no internal
// lock. The Engine calls it while holding the single global mutex (matching
// the paper's lock/unlock discipline); unit and property tests call it
// single-threaded and check the set definitions directly.
//
// Internal vertex indices 1..N follow a satisfactory numbering, so
//   * edges go from lower to higher index,
//   * sources are exactly 1..m(0),
//   * x_p < min(pending_p) - pairs at or below the frontier are finished.
//
// Because x_p <= x_{p-1}, phases complete in order, the set of active phases
// is a contiguous window, and completed state can be retired from the front.
//
// Representation (see DESIGN.md, "Flat scheduler state"): everything the
// scheduler touches per transition lives in dense, index-addressed storage.
// Each active phase occupies a slot in a ring of preallocated PhaseSlots;
// pending and partial are bitsets over vertex indices with monotone scan
// cursors (the minimum pending vertex and the promotion bound only move
// forward within a phase's lifetime), and input bundles are pooled vectors
// referenced by index from a per-slot bundle table. Steady-state transitions
// perform zero heap allocations: callers hand executed bundles back so
// their capacity recirculates through the pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/delivery.hpp"
#include "core/scheduler_state.hpp"
#include "event/message.hpp"
#include "event/phase.hpp"
#include "graph/numbering.hpp"

namespace df::core {

class Scheduler {
 public:
  /// A vertex-phase pair that just entered the ready set, with its sealed
  /// input bundle. The caller must execute it exactly once.
  struct ReadyPair {
    std::uint32_t vertex = 0;  // internal index 1..N
    event::PhaseId phase = 0;
    event::InputBundle bundle;
  };

  /// A message produced by an execution, addressed by internal index. The
  /// same type executors emit (core::Delivery), so executor output feeds
  /// the scheduler without a per-message copy.
  using Delivery = core::Delivery;

  /// One executed pair whose application to the sets has been deferred: the
  /// arguments of a finish_execution call, recorded by a worker outside the
  /// global lock. `deliveries` is moved straight from the executor's output
  /// and `recycled` is the executed pair's input bundle (donated back to
  /// the pool on application). See DESIGN.md, "Staged delivery rings".
  struct StagedFinish {
    std::uint32_t vertex = 0;
    event::PhaseId phase = 0;
    std::vector<Delivery> deliveries;
    event::InputBundle recycled;
  };

  /// Set-membership snapshot for tracing (Figure 3 reproductions) and for
  /// property tests that re-evaluate the set definitions from scratch.
  struct Snapshot {
    struct Pair {
      std::uint32_t vertex;
      event::PhaseId phase;

      friend bool operator==(const Pair&, const Pair&) = default;
    };
    event::PhaseId pmax = 0;
    event::PhaseId completed_through = 0;
    /// (phase, x_p) for each active phase, in phase order.
    std::vector<std::pair<event::PhaseId, std::uint32_t>> x;
    std::vector<Pair> partial;
    std::vector<Pair> full;   // includes pairs currently in ready
    std::vector<Pair> ready;  // issued but not yet finished

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  /// Sentinel for the `signal_sources` constructor parameter: every vertex
  /// in 1..m(0) receives the per-phase signal (the whole-program default).
  static constexpr std::uint32_t kAllSources = 0xffffffffu;

  /// `m` is the numbering's m-vector (m[0..N]); n = m.size() - 1.
  /// `signal_sources` is the number of vertices (a prefix 1..S of the
  /// index space, S <= m(0)) that receive the implicit per-phase signal in
  /// start_phase. The default covers all of m(0) — correct for a whole
  /// program, where "no in-graph predecessors" and "driven by the
  /// environment" coincide. For a *block-local* scheduler (transport
  /// two-level mode) they diverge: m_loc(0) counts every vertex with no
  /// in-block predecessor, but only the block's true program sources (the
  /// global 1..m(0) range clipped to the block — a prefix of the block)
  /// are environment-driven; the rest wake up only when remote deliveries
  /// are injected (the start_phase `injected` span).
  explicit Scheduler(std::vector<std::uint32_t> m,
                     std::uint32_t signal_sources = kAllSources);

  /// Environment side (Listing 2 loop body): starts phase pmax+1. Source
  /// vertex i (1-based source ordinal, internal index == ordinal) receives
  /// source_bundles[i-1] plus the implicit phase signal. Appends pairs that
  /// became ready to `out_ready` (which is NOT cleared — the caller owns and
  /// reuses the buffer). `p` must equal pmax() + 1. The bundles are moved
  /// from; the span's backing vector can be reused by the caller.
  void start_phase(event::PhaseId p, std::span<event::InputBundle> bundles,
                   std::vector<ReadyPair>& out_ready);

  /// Block-scoped form: additionally injects `injected` (deliveries from
  /// outside this scheduler's index space, e.g. reassembled remote frames)
  /// into phase p as if a virtual index-0 vertex had finished first —
  /// every target enters partial exactly like an in-graph delivery, before
  /// any local pair of the phase executes. Targets must lie above the
  /// signal-source prefix (remote traffic never addresses a true source).
  /// When the phase starts with no signal sources, or when injection may
  /// have completed vertices' bundles (all-remote-predecessor vertices),
  /// the frontier/promotion/retire/collect pass runs immediately so such
  /// pairs are issued — and a phase with no work at all retires on the
  /// spot instead of waiting for a finish_execution that will never come.
  void start_phase(event::PhaseId p, std::span<event::InputBundle> bundles,
                   std::span<Delivery> injected,
                   std::vector<ReadyPair>& out_ready);

  /// Worker side (Listing 1, statements 4-31): records that (vertex, p)
  /// finished executing and produced `deliveries` (moved from). Appends
  /// pairs that became ready to `out_ready` (not cleared). `recycled` is the
  /// executed pair's input bundle, donated back to the pool so steady-state
  /// bookkeeping allocates nothing; pass {} if unavailable.
  void finish_execution(std::uint32_t vertex, event::PhaseId p,
                        std::span<Delivery> deliveries,
                        event::InputBundle recycled,
                        std::vector<ReadyPair>& out_ready);

  /// Applies a whole batch of staged finishes, then runs the frontier
  /// recomputation, promotion scan, retirement, and ready collection once
  /// for the entire batch instead of once per pair. Equivalent to calling
  /// finish_execution for each entry in order (the issued ready set and all
  /// bundle contents are identical — the batched frontier only lags inside
  /// the call, never at return), but the per-pair critical-section cost
  /// collapses to the delivery bit-flips. Entries are moved from. Every
  /// staged pair must still be outstanding (issued, not finished); batches
  /// may mix phases in any order.
  void finish_execution_batch(std::span<StagedFinish> batch,
                              std::vector<ReadyPair>& out_ready);

  event::PhaseId pmax() const { return pmax_; }
  /// All phases <= completed_through() have fully finished (x_p = N).
  event::PhaseId completed_through() const { return completed_through_; }
  bool all_started_phases_complete() const { return ring_count_ == 0; }
  std::size_t active_phase_count() const { return ring_count_; }

  /// x_p for any phase <= pmax: N for retired phases, 0 if never started.
  std::uint32_t x(event::PhaseId p) const;

  /// Bundle-pool footprint (slots ever created); flat at steady state.
  std::size_t bundle_pool_slots() const { return pool_.slot_count(); }

  std::uint32_t n() const { return n_; }
  /// Number of vertices receiving the per-phase signal (== m(0) unless a
  /// block-local signal-source prefix was configured).
  std::uint32_t source_count() const { return signal_sources_; }

  /// Pre-sizes every internal structure for a run with at most
  /// `max_inflight_phases` active phases and up to `live_bundles` pairs
  /// accumulating input simultaneously, each expecting around
  /// `bundle_capacity` messages. Purely a warm-up: transitions behave
  /// identically but reach the zero-allocation steady state immediately
  /// instead of growing into it. Call before the first start_phase.
  void reserve_steady_state(std::size_t max_inflight_phases,
                            std::size_t live_bundles,
                            std::size_t bundle_capacity = 4);

  Snapshot snapshot() const;

  /// Serializes the complete scheduler state — active-phase ring, pending/
  /// partial bitsets, cursors, per-vertex full-phase FIFOs and issued marks,
  /// and every live (partial or full-but-unissued) input bundle — into a
  /// self-validating image ("DFSC" magic, version, FNV-1a trailer; see
  /// core/checkpoint.hpp). Issued-but-unfinished pairs are recorded by
  /// membership only: their sealed bundles travel with the caller's
  /// ReadyPairs, which the caller must re-present after restore.
  std::vector<std::uint8_t> snapshot_state();

  /// Rebuilds the state from a snapshot_state image. Must be called on a
  /// fresh scheduler (no phase started) constructed with the same m-vector
  /// and signal-source prefix; both are validated against the image, as are
  /// the magic, version, checksum, and internal set counts. Any failure
  /// throws support::check_error and leaves the scheduler unspecified —
  /// discard it and fall back to an older image.
  void restore_state(const std::vector<std::uint8_t>& image);

 private:
  // BundlePool, VertexSchedState, the bundle-table sentinel and the bitset
  // helpers live in core/scheduler_state.hpp with their documentation.

  /// Per active phase state, flat. `pending` is partial ∪ full ∪ ready
  /// (vertices not yet finished for this phase) as a bitset; it drives the
  /// x computation (min pending - 1) through a forward-only word cursor.
  /// `partial` is a bitset of vertices accumulating messages; promotion
  /// scans the window (promoted_bound, m(x)] exactly once per phase because
  /// both bounds are monotone. `bundle` maps vertex -> pooled bundle index
  /// for pairs currently partial or full-but-unissued.
  struct PhaseSlot {
    event::PhaseId id = 0;
    std::uint32_t x = 0;
    std::uint32_t pending_count = 0;
    std::uint32_t partial_count = 0;
    std::uint32_t min_pending_word = 0;  // scan hint; never moves backward
    std::uint32_t promoted_bound = 0;    // vertices <= this already promoted
    std::vector<std::uint64_t> pending_bits;
    std::vector<std::uint64_t> partial_bits;
    std::vector<std::uint32_t> bundle;  // [0..n], kNoBundle when absent
  };

  using VertexState = VertexSchedState;

  std::vector<std::uint32_t> m_;
  std::uint32_t n_;
  std::uint32_t signal_sources_;  // prefix 1..S gets the phase signal
  std::uint32_t words_;  // bitset words per phase slot
  event::PhaseId pmax_ = 0;
  event::PhaseId completed_through_ = 0;

  /// Ring of phase slots: the active phases are ring_[(ring_head_ + i) %
  /// ring_.size()] for i in [0, ring_count_), oldest first. Slots keep
  /// their arrays across reuse; retiring a phase resets them in place.
  std::vector<PhaseSlot> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  event::PhaseId first_active_ = 0;  // id of the oldest active phase

  std::vector<VertexState> vertices_;  // [1..n], slot 0 unused
  BundlePool pool_;
  std::vector<std::uint32_t> affected_;  // reusable scratch for transitions

  PhaseSlot& slot_at(std::size_t ordinal) {
    return ring_[(ring_head_ + ordinal) % ring_.size()];
  }
  const PhaseSlot& slot_at(std::size_t ordinal) const {
    return ring_[(ring_head_ + ordinal) % ring_.size()];
  }
  PhaseSlot& phase_slot(event::PhaseId p);
  const PhaseSlot* find_phase(event::PhaseId p) const;
  PhaseSlot& push_phase(event::PhaseId p);

  /// Statements 4-11 of Listing 1 plus the pending-bit clear: everything
  /// finish_execution does for one pair *before* the frontier/promotion/
  /// collect pass. Safe to run repeatedly before a single deferred pass:
  /// the delivery invariants (recipient above the promotion bound, no
  /// insertion below the pending minimum) are statements about actual set
  /// membership and hold regardless of how far x lags, because x and the
  /// promotion bound only ever under-approximate between passes.
  void apply_finish(std::uint32_t vertex, event::PhaseId p,
                    std::span<Delivery> deliveries,
                    event::InputBundle recycled);

  /// Smallest pending vertex; advances the slot's word cursor (valid because
  /// insertions never land below the current minimum: deliveries go to
  /// higher indices than the finishing vertex, which is itself pending).
  std::uint32_t min_pending(PhaseSlot& slot);

  /// Statements 1.12-1.23: recompute x_i for all active phases i >= from,
  /// clamping to the previous phase's x.
  void update_x_from(event::PhaseId from);

  /// Statements 1.24-1.26: move partial pairs with vertex <= m(x_q) into
  /// full for every active phase q >= from; appends affected vertices.
  void promote_newly_full(event::PhaseId from);

  /// Statements 1.27-1.30 / 2.16-2.19: for each affected vertex (sorted,
  /// deduplicated), if it has no issued pair and a non-empty full set,
  /// issue its minimum phase.
  void collect_ready(std::vector<ReadyPair>& out_ready);

  /// Retires completed phases from the front of the window.
  void retire_completed();
};

}  // namespace df::core
