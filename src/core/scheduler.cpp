#include "core/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/check.hpp"

namespace df::core {
namespace {

bool bit_test(const std::vector<std::uint64_t>& bits, std::uint32_t v) {
  return (bits[v >> 6] >> (v & 63)) & 1u;
}
void bit_set(std::vector<std::uint64_t>& bits, std::uint32_t v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}
void bit_clear(std::vector<std::uint64_t>& bits, std::uint32_t v) {
  bits[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
}

}  // namespace

Scheduler::Scheduler(std::vector<std::uint32_t> m,
                     std::uint32_t signal_sources)
    : m_(std::move(m)), n_(static_cast<std::uint32_t>(m_.size() - 1)) {
  DF_CHECK(!m_.empty(), "m vector must have at least m(0)");
  DF_CHECK(m_[n_] == n_, "m(N) != N — numbering is not satisfactory");
  signal_sources_ = signal_sources == kAllSources ? m_[0] : signal_sources;
  DF_CHECK(signal_sources_ <= m_[0],
           "signal sources must be a prefix of 1..m(0)");
  words_ = (n_ + 1 + 63) / 64;
  vertices_.resize(n_ + 1);
}

Scheduler::PhaseSlot& Scheduler::phase_slot(event::PhaseId p) {
  DF_CHECK(ring_count_ > 0, "no active phases");
  DF_CHECK(p >= first_active_ && p < first_active_ + ring_count_, "phase ", p,
           " is not active");
  return slot_at(p - first_active_);
}

const Scheduler::PhaseSlot* Scheduler::find_phase(event::PhaseId p) const {
  if (ring_count_ == 0 || p < first_active_ ||
      p >= first_active_ + ring_count_) {
    return nullptr;
  }
  return &slot_at(p - first_active_);
}

Scheduler::PhaseSlot& Scheduler::push_phase(event::PhaseId p) {
  if (ring_count_ == ring_.size()) {
    // Grow the ring, re-linearizing the active slots from the head. Slots
    // keep their preallocated arrays; this happens only until the window
    // reaches its steady-state depth.
    std::vector<PhaseSlot> grown(std::max<std::size_t>(4, ring_.size() * 2));
    for (std::size_t i = 0; i < ring_count_; ++i) {
      grown[i] = std::move(slot_at(i));
    }
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  if (ring_count_ == 0) {
    first_active_ = p;
  }
  PhaseSlot& slot = ring_[(ring_head_ + ring_count_) % ring_.size()];
  ++ring_count_;
  size_slot(slot);
  slot.id = p;
  slot.x = 0;
  slot.pending_count = 0;
  slot.partial_count = 0;
  slot.min_pending_word = 0;
  slot.promoted_bound = 0;
  return slot;
}

void Scheduler::size_slot(PhaseSlot& slot) const {
  if (slot.pending_bits.size() != words_) {
    // First use of this slot: allocate its arrays. Reused slots were left
    // all-clear by retire_completed (their counts were checked to be zero),
    // and their inboxes empty.
    slot.pending_bits.assign(words_, 0);
    slot.partial_bits.assign(words_, 0);
    slot.inbox.resize(n_ + 1);
  }
}

void Scheduler::reserve_steady_state(std::size_t max_inflight_phases) {
  DF_CHECK(ring_count_ == 0 && pmax_ == 0,
           "reserve_steady_state must precede the first start_phase");
  if (max_inflight_phases > ring_.size()) {
    ring_.resize(max_inflight_phases);
    ring_head_ = 0;
    for (PhaseSlot& slot : ring_) {
      size_slot(slot);
    }
  }
  for (std::uint32_t v = 1; v <= n_; ++v) {
    vertices_[v].full_phases.reserve(max_inflight_phases + 1);
  }
  // One transition can touch a vertex once per active phase (promotion
  // across the window), so (n+1)*window is the scratch buffer's hard
  // bound; cap the upfront reservation so huge graph*window products do
  // not pre-pay hundreds of megabytes for a bound rarely approached.
  affected_.reserve(std::min<std::size_t>(
      (n_ + 1) * std::max<std::size_t>(1, max_inflight_phases),
      (n_ + 1) + 65536));
}

void Scheduler::resume_after(event::PhaseId p) {
  DF_CHECK(ring_count_ == 0 && pmax_ == 0,
           "resume_after must precede the first start_phase");
  pmax_ = p;
  completed_through_ = p;
}

std::uint32_t Scheduler::x(event::PhaseId p) const {
  if (p == 0 || p <= completed_through_) {
    return n_;  // x_0 = N by definition; retired phases are complete
  }
  const PhaseSlot* slot = find_phase(p);
  return slot == nullptr ? 0 : slot->x;
}

void Scheduler::start_phase(event::PhaseId p,
                            std::span<event::InputBundle> bundles,
                            std::vector<ReadyPair>& out_ready) {
  start_phase(p, bundles, std::span<const std::uint32_t>{}, out_ready);
}

void Scheduler::start_phase(event::PhaseId p,
                            std::span<event::InputBundle> bundles,
                            std::span<const std::uint32_t> injected,
                            std::vector<ReadyPair>& out_ready) {
  // Listing 2, statements 11-19.
  DF_CHECK(p == pmax_ + 1, "phases must start in order: expected ", pmax_ + 1,
           ", got ", p);
  DF_CHECK(bundles.size() == signal_sources_,
           "need one bundle per signal-source vertex");
  pmax_ = p;
  PhaseSlot& slot = push_phase(p);

  // Signal-source vertices are a prefix 1..S of the index space (the whole
  // 1..m(0) for a full program); each receives its external bundle plus the
  // implicit phase signal, entering the full set directly (x_p = 0 and
  // 0 < v <= S <= m(0) = m(x_p)). The swap hands the caller the inbox's
  // empty buffer, so nothing is freed here.
  for (std::uint32_t s = 1; s <= signal_sources_; ++s) {
    VertexState& vs = vertices_[s];
    DF_DCHECK(vs.full_empty() || vs.full_phases.back() < p,
              "duplicate phase start");
    std::swap(slot.inbox[s], bundles[s - 1]);
    bit_set(slot.pending_bits, s);
    ++slot.pending_count;
    vs.push_full(p);
    affected_.push_back(s);
  }

  // Remote input enters partial exactly like a finish's recipients — as if
  // a virtual index-0 vertex finished before any local pair.
  for (const std::uint32_t v : injected) {
    DF_CHECK(v > signal_sources_ && v <= n_,
             "injected delivery must target a non-source block vertex, got ",
             v);
    mark_received(slot, v);
  }

  if (!injected.empty() || signal_sources_ == 0) {
    // Block-scoped start (see the header): run the full Listing 1 tail now.
    // Injected vertices whose predecessors are all remote sit at or below
    // m(x_p) already and must be promoted and issued here (no local finish
    // may ever reference this phase), and a phase that started with nothing
    // pending retires on the spot. The pass is phase-p-local: p is the
    // newest phase, so no other slot is visited.
    advance_frontier(p);
  }
  collect_ready(out_ready);
}

void Scheduler::finish_execution(std::uint32_t vertex, event::PhaseId p,
                                 std::span<Delivery> deliveries,
                                 event::InputBundle recycled,
                                 std::vector<ReadyPair>& out_ready) {
  PhaseSlot& slot = begin_finish(vertex, p, std::move(recycled));
  // Statements 8-11: new messages put successors into the partial set.
  for (Delivery& d : deliveries) {
    DF_CHECK(d.to_index > vertex,
             "messages must flow to higher-indexed vertices");
    mark_received(slot, d.to_index);
    slot.inbox[d.to_index].push_back(
        event::Message{d.to_port, std::move(d.value)});
  }
  end_finish(slot, vertex, out_ready);
}

void Scheduler::finish_execution(std::uint32_t vertex, event::PhaseId p,
                                 std::span<const std::uint32_t> recipients,
                                 event::InputBundle recycled,
                                 std::vector<ReadyPair>& out_ready) {
  PhaseSlot& slot = begin_finish(vertex, p, std::move(recycled));
  // Statements 8-11, without the messages.
  for (const std::uint32_t v : recipients) {
    DF_CHECK(v > vertex, "messages must flow to higher-indexed vertices");
    mark_received(slot, v);
  }
  end_finish(slot, vertex, out_ready);
}

Scheduler::PhaseSlot& Scheduler::begin_finish(std::uint32_t vertex,
                                              event::PhaseId p,
                                              event::InputBundle recycled) {
  // Listing 1, statements 4-31.
  DF_CHECK(vertex >= 1 && vertex <= n_, "vertex index out of range");
  VertexState& vs = vertices_[vertex];
  DF_CHECK(vs.in_ready && vs.ready_phase == p,
           "finish_execution for a pair that was not issued: vertex ", vertex,
           " phase ", p);
  // Statements 5-7: remove (v,p) from full/ready (the full entry was taken
  // when the pair was issued; here we clear the ready occupancy).
  vs.in_ready = false;
  // The executed bundle's buffer goes back into the inbox it was issued
  // from, which serves the vertex again when the slot is reused.
  PhaseSlot& slot = phase_slot(p);
  recycled.clear();
  slot.inbox[vertex] = std::move(recycled);
  return slot;
}

void Scheduler::mark_received(PhaseSlot& slot, std::uint32_t v) {
  if (bit_test(slot.partial_bits, v)) {
    return;
  }
  // The recipient cannot already be full/ready/executing for p: that would
  // require all its predecessors (including the sender) to have finished
  // p. For the same reason it cannot sit at or below the promotion bound
  // m(x_p).
  DF_DCHECK(!bit_test(slot.pending_bits, v),
            "delivery to a vertex already past partial in this phase");
  DF_DCHECK(v > slot.promoted_bound, "delivery below the promotion bound");
  bit_set(slot.partial_bits, v);
  ++slot.partial_count;
  bit_set(slot.pending_bits, v);
  ++slot.pending_count;
}

void Scheduler::end_finish(PhaseSlot& slot, std::uint32_t vertex,
                           std::vector<ReadyPair>& out_ready) {
  // (v,p) is finished: drop it from the pending index behind x_p.
  DF_CHECK(bit_test(slot.pending_bits, vertex),
           "finished vertex was not pending");
  bit_clear(slot.pending_bits, vertex);
  --slot.pending_count;
  affected_.push_back(vertex);  // vertex may have a later full phase queued

  // Statements 12-26: only phase p's pending set changed, so the frontier
  // pass starts at p and stops at the first x that does not change.
  advance_frontier(slot.id);
  // Statements 27-30: issue newly ready pairs.
  collect_ready(out_ready);
}

std::uint32_t Scheduler::min_pending(PhaseSlot& slot) {
  std::uint32_t w = slot.min_pending_word;
  while (slot.pending_bits[w] == 0) {
    ++w;
  }
  slot.min_pending_word = w;
  return (w << 6) +
         static_cast<std::uint32_t>(std::countr_zero(slot.pending_bits[w]));
}

std::size_t Scheduler::update_x_from(event::PhaseId p) {
  DF_CHECK(p >= first_active_ && p < first_active_ + ring_count_,
           "frontier pass outside the active window");
  std::size_t i = p - first_active_;
  for (; i < ring_count_; ++i) {
    PhaseSlot& slot = slot_at(i);
    ++frontier_visits_;
    // Statement 15/17: x_i = N if no pair with phase i remains, otherwise
    // min vertex still pending minus one.
    std::uint32_t candidate =
        slot.pending_count == 0 ? n_ : min_pending(slot) - 1;
    // Statements 19-21: never overtake the previous phase.
    const std::uint32_t previous =
        i == 0 ? x(slot.id - 1) : slot_at(i - 1).x;
    candidate = std::min(candidate, previous);
    DF_CHECK(candidate >= slot.x, "x must be monotone within a phase");
    if (candidate == slot.x) {
      return i + 1;  // every later slot keeps its x (see the header)
    }
    slot.x = candidate;
  }
  return i;
}

void Scheduler::promote_newly_full(std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    PhaseSlot& slot = slot_at(i);
    const std::uint32_t bound = m_[slot.x];
    if (bound <= slot.promoted_bound) {
      continue;  // the promotion window only moves forward
    }
    if (slot.partial_count == 0) {
      slot.promoted_bound = bound;
      continue;
    }
    // Scan partial bits in [promoted_bound + 1, bound]. New partial entries
    // always land above the current bound (their predecessors are not all
    // finished), so every vertex is scanned at most once per phase.
    const std::uint32_t lo = slot.promoted_bound + 1;
    std::uint32_t w = lo >> 6;
    const std::uint32_t w_hi = bound >> 6;
    std::uint64_t word = slot.partial_bits[w] &
                         (~std::uint64_t{0} << (lo & 63));
    while (true) {
      if (w == w_hi) {
        const std::uint32_t top = bound & 63;
        if (top != 63) {
          word &= (std::uint64_t{1} << (top + 1)) - 1;
        }
      }
      while (word != 0) {
        const std::uint32_t v =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        bit_clear(slot.partial_bits, v);
        --slot.partial_count;
        VertexState& vs = vertices_[v];
        // A pair can only become full for a phase later than any of the
        // vertex's existing full phases: v <= m(x_p) means all of v's
        // predecessors finished p, so no earlier-phase message can arrive.
        DF_DCHECK(vs.full_empty() || vs.full_phases.back() < slot.id,
                  "full phases must be issued in ascending order");
        vs.push_full(slot.id);
        affected_.push_back(v);
      }
      if (w == w_hi) {
        break;
      }
      ++w;
      word = slot.partial_bits[w];
    }
    slot.promoted_bound = bound;
  }
}

void Scheduler::advance_frontier(event::PhaseId p) {
  const std::size_t begin = p - first_active_;
  const std::size_t end = update_x_from(p);
  promote_newly_full(begin, end);
  // Phases whose frontier reached N are complete; retire from the front.
  retire_completed();
}

void Scheduler::collect_ready(std::vector<ReadyPair>& out_ready) {
  // Deterministic issue order (ascending vertex), matching the ordered-set
  // iteration of the reference implementation.
  std::sort(affected_.begin(), affected_.end());
  for (std::size_t i = 0; i < affected_.size(); ++i) {
    const std::uint32_t v = affected_[i];
    if (i > 0 && affected_[i - 1] == v) {
      continue;
    }
    VertexState& vs = vertices_[v];
    if (vs.in_ready || vs.full_empty()) {
      continue;  // at most one issued pair per vertex; phases in order
    }
    const event::PhaseId p = vs.full_front();
    ++vs.full_head;
    if (vs.full_empty()) {
      vs.full_phases.clear();  // keeps capacity
      vs.full_head = 0;
    }
    vs.in_ready = true;
    vs.ready_phase = p;
    out_ready.push_back(
        ReadyPair{v, p, std::move(phase_slot(p).inbox[v])});
  }
  affected_.clear();
}

void Scheduler::retire_completed() {
  while (ring_count_ > 0 && ring_[ring_head_].x == n_) {
    PhaseSlot& slot = ring_[ring_head_];
    DF_CHECK(slot.pending_count == 0,
             "complete phase still has pending pairs");
    DF_CHECK(slot.partial_count == 0,
             "complete phase still has partial pairs");
    // pending_count == 0 implies every inbox was issued and both bitsets
    // are all-clear, so the slot is reusable as-is.
    completed_through_ = slot.id;
    ring_head_ = (ring_head_ + 1) % ring_.size();
    --ring_count_;
    ++first_active_;
  }
}

Scheduler::Snapshot Scheduler::snapshot() const {
  Snapshot snap;
  snap.pmax = pmax_;
  snap.completed_through = completed_through_;
  for (std::size_t i = 0; i < ring_count_; ++i) {
    const PhaseSlot& slot = slot_at(i);
    snap.x.emplace_back(slot.id, slot.x);
    for (std::uint32_t w = 0; w < words_; ++w) {
      std::uint64_t word = slot.partial_bits[w];
      while (word != 0) {
        const std::uint32_t v =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        snap.partial.push_back(Snapshot::Pair{v, slot.id});
      }
    }
  }
  for (std::uint32_t v = 1; v <= n_; ++v) {
    const VertexState& vs = vertices_[v];
    for (std::size_t i = vs.full_head; i < vs.full_phases.size(); ++i) {
      snap.full.push_back(Snapshot::Pair{v, vs.full_phases[i]});
    }
    if (vs.in_ready) {
      // Issued pairs remain in the paper's full ∩ ready until finished.
      snap.full.push_back(Snapshot::Pair{v, vs.ready_phase});
      snap.ready.push_back(Snapshot::Pair{v, vs.ready_phase});
    }
  }
  const auto by_phase_vertex = [](const Snapshot::Pair& a,
                                  const Snapshot::Pair& b) {
    return a.phase != b.phase ? a.phase < b.phase : a.vertex < b.vertex;
  };
  std::sort(snap.partial.begin(), snap.partial.end(), by_phase_vertex);
  std::sort(snap.full.begin(), snap.full.end(), by_phase_vertex);
  std::sort(snap.ready.begin(), snap.ready.end(), by_phase_vertex);
  return snap;
}

}  // namespace df::core
