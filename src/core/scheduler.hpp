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
// forward within a phase's lifetime), and each slot keeps an inbox per
// vertex: the input bundle its pair of that phase is issued with.
// Steady-state transitions perform zero heap allocations: callers hand
// executed bundles back, and each goes into the inbox it was issued from,
// so its capacity serves the vertex again when the slot is reused.
//
// Two forms of each transition. The payload forms carry the messages:
// finish_execution appends each delivery to its recipient's inbox, and
// the issued pair's bundle holds them. The vertex-level replays
// (trace::trace_schedule, the benchmark's scheduler row) and the tests use
// them. The payload-free forms take only the recipients: they mark
// partial and pending exactly as the payload forms do, through the same
// code, and issue such a pair with its empty inbox, because its messages
// travel outside the scheduler. core::Engine uses them, with per-phase
// lanes outside the lock (DESIGN.md, "Lanes"). Both start_phase forms swap
// the signal-source bundles into their inboxes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/delivery.hpp"
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
  /// bundles[i-1] plus the implicit phase signal. Appends pairs that
  /// became ready to `out_ready` (which is NOT cleared — the caller owns and
  /// reuses the buffer). `p` must equal pmax() + 1. Each bundle is swapped
  /// with the source's inbox in the phase's slot, so bundles[i-1] comes
  /// back empty (possibly with capacity) and the span's backing vector can
  /// be reused by the caller.
  void start_phase(event::PhaseId p, std::span<event::InputBundle> bundles,
                   std::vector<ReadyPair>& out_ready);

  /// Payload-free block-scoped form: additionally marks the vertices in
  /// `injected` as having received input from outside this scheduler's
  /// index space (e.g. reassembled remote frames) in phase p, as if a
  /// virtual index-0 vertex had finished first — every target enters
  /// partial exactly like an in-graph recipient, before any local pair of
  /// the phase executes, and is issued with an empty bundle. Targets must
  /// lie above the signal-source prefix (remote traffic never addresses a
  /// true source). When the phase starts with no signal sources, or when
  /// injection may have completed vertices' inputs (all-remote-predecessor
  /// vertices), the frontier/promotion/retire/collect pass runs
  /// immediately so such pairs are issued — and a phase with no work at
  /// all retires on the spot instead of waiting for a finish that will
  /// never come.
  void start_phase(event::PhaseId p, std::span<event::InputBundle> bundles,
                   std::span<const std::uint32_t> injected,
                   std::vector<ReadyPair>& out_ready);

  /// Worker side (Listing 1, statements 4-31), payload form: records that
  /// (vertex, p) finished executing and produced `deliveries` (moved from),
  /// each appended to its recipient's inbox. Appends pairs that became
  /// ready to `out_ready` (not cleared). `recycled` is the executed pair's
  /// input bundle: it goes back, cleared, into the inbox it was issued
  /// from, so steady-state bookkeeping allocates nothing; pass {} if
  /// unavailable.
  void finish_execution(std::uint32_t vertex, event::PhaseId p,
                        std::span<Delivery> deliveries,
                        event::InputBundle recycled,
                        std::vector<ReadyPair>& out_ready);

  /// Payload-free form: the same transition, told only which vertices
  /// (`recipients`, each above `vertex`; repeats are harmless) received
  /// messages. Each newly partial recipient is issued with its empty inbox.
  void finish_execution(std::uint32_t vertex, event::PhaseId p,
                        std::span<const std::uint32_t> recipients,
                        std::vector<ReadyPair>& out_ready);

  event::PhaseId pmax() const { return pmax_; }
  /// All phases <= completed_through() have fully finished (x_p = N).
  event::PhaseId completed_through() const { return completed_through_; }
  bool all_started_phases_complete() const { return ring_count_ == 0; }
  std::size_t active_phase_count() const { return ring_count_; }

  /// x_p for any phase <= pmax: N for retired phases, 0 if never started.
  std::uint32_t x(event::PhaseId p) const;

  /// Phase slots the frontier pass has visited over this scheduler's
  /// lifetime: the per-transition cost of statements 1.12-1.26. Tests pin
  /// it at O(phases whose frontier moved), independent of the window.
  std::uint64_t frontier_slots_visited() const { return frontier_visits_; }

  std::uint32_t n() const { return n_; }
  /// Number of vertices receiving the per-phase signal (== m(0) unless a
  /// block-local signal-source prefix was configured).
  std::uint32_t source_count() const { return signal_sources_; }

  /// Pre-sizes the phase ring, the per-vertex full queues and the
  /// transition scratch for a run with at most `max_inflight_phases`
  /// active phases. Purely a warm-up: transitions behave identically, and
  /// only the inboxes still grow into their capacity on the slots' first
  /// uses. Call before the first start_phase.
  void reserve_steady_state(std::size_t max_inflight_phases);

  Snapshot snapshot() const;

  /// Resumes a checkpointed run: phases 1..p count as started and retired,
  /// so the next start_phase opens p + 1. A retired phase leaves nothing in
  /// partial, full, ready or pending, so at a boundary where every started
  /// phase has retired this one number is the whole scheduling state (the
  /// engine checkpoints only there; DESIGN.md, "Checkpoint images"). Only a
  /// fresh scheduler (no phase started) accepts it.
  void resume_after(event::PhaseId p);

 private:
  /// Per active phase state, flat. `pending` is partial ∪ full ∪ ready
  /// (vertices not yet finished for this phase) as a bitset; it drives the
  /// x computation (min pending - 1) through a forward-only word cursor.
  /// `partial` is a bitset of vertices accumulating messages; promotion
  /// scans the window (promoted_bound, m(x)] exactly once per phase because
  /// both bounds are monotone. `inbox[v]` is (v, p)'s input bundle: filled
  /// while the pair is partial or full, moved out when it is issued, and
  /// given its capacity back when it finishes.
  struct PhaseSlot {
    event::PhaseId id = 0;
    std::uint32_t x = 0;
    std::uint32_t pending_count = 0;
    std::uint32_t partial_count = 0;
    std::uint32_t min_pending_word = 0;  // scan hint; never moves backward
    std::uint32_t promoted_bound = 0;    // vertices <= this already promoted
    std::vector<std::uint64_t> pending_bits;
    std::vector<std::uint64_t> partial_bits;
    std::vector<event::InputBundle> inbox;  // [0..n]
  };

  /// Per vertex: phases whose pairs are full but not yet issued, in
  /// ascending order (a pair can only become full for phases later than
  /// any already-full phase — see the promotion scan), stored as a flat
  /// queue with a head offset; plus the at-most-one issued-but-unfinished
  /// pair.
  struct VertexState {
    std::vector<event::PhaseId> full_phases;
    std::uint32_t full_head = 0;
    bool in_ready = false;
    event::PhaseId ready_phase = 0;

    bool full_empty() const { return full_head == full_phases.size(); }
    event::PhaseId full_front() const { return full_phases[full_head]; }
    /// Appends a phase, first compacting the consumed prefix so the
    /// queue's footprint stays at the live count (bounded by the phase
    /// window) instead of growing with the phase index.
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
  std::vector<std::uint32_t> affected_;  // reusable scratch for transitions
  std::uint64_t frontier_visits_ = 0;

  PhaseSlot& slot_at(std::size_t ordinal) {
    return ring_[(ring_head_ + ordinal) % ring_.size()];
  }
  const PhaseSlot& slot_at(std::size_t ordinal) const {
    return ring_[(ring_head_ + ordinal) % ring_.size()];
  }
  PhaseSlot& phase_slot(event::PhaseId p);
  const PhaseSlot* find_phase(event::PhaseId p) const;
  PhaseSlot& push_phase(event::PhaseId p);
  /// Gives a never-used slot its arrays; reused slots keep theirs.
  void size_slot(PhaseSlot& slot) const;

  /// Smallest pending vertex; advances the slot's word cursor (valid because
  /// insertions never land below the current minimum: deliveries go to
  /// higher indices than the finishing vertex, which is itself pending).
  std::uint32_t min_pending(PhaseSlot& slot);

  /// Statements 8-11 for one recipient v of phase `slot`: puts (v, p) into
  /// partial and pending unless it is there already.
  void mark_received(PhaseSlot& slot, std::uint32_t v);

  /// The finish's head and tail, shared by both forms: checks that
  /// (vertex, p) was issued and clears its ready occupancy; then drops it
  /// from pending, runs the frontier pass and issues newly ready pairs.
  PhaseSlot& begin_finish(std::uint32_t vertex, event::PhaseId p);
  void end_finish(PhaseSlot& slot, std::uint32_t vertex,
                  std::vector<ReadyPair>& out_ready);

  /// Statements 1.12-1.23: recompute x_i = min(min pending_i - 1, x_{i-1})
  /// for the active phases from `p` on, and return the ring ordinal one
  /// past the last slot visited. Phase p is the one whose pending bits the
  /// transition changed. The walk stops at the first slot whose x did not
  /// change — a later slot's pending set is untouched and so is its
  /// predecessor's x, and every previously walked slot already satisfies
  /// the recurrence, so no later x can change either. The cost is
  /// O(phases whose frontier moved), not O(window).
  std::size_t update_x_from(event::PhaseId p);

  /// Statements 1.24-1.26: move partial pairs with vertex <= m(x_q) into
  /// full for the ring ordinals [begin, end) — the slots the frontier pass
  /// just visited. A slot past them kept its x, hence its bound m(x), and
  /// received no delivery, so it has nothing to promote. Appends affected
  /// vertices.
  void promote_newly_full(std::size_t begin, std::size_t end);

  /// The Listing 1 tail every transition shares: frontier pass from phase
  /// p, the one the transition touched, promotion over the visited slots,
  /// and retirement of completed phases from the front.
  void advance_frontier(event::PhaseId p);

  /// Statements 1.27-1.30 / 2.16-2.19: for each affected vertex (sorted,
  /// deduplicated), if it has no issued pair and a non-empty full set,
  /// issue its minimum phase with that phase's inbox.
  void collect_ready(std::vector<ReadyPair>& out_ready);

  /// Retires completed phases from the front of the window.
  void retire_completed();
};

}  // namespace df::core
