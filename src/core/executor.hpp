// Common executor interface plus the shared vertex-execution helper.
//
// Five executors implement this interface: the paper's parallel engine
// (core::Engine), the sequential phase-at-a-time reference
// (baseline::SequentialExecutor), the barrier-synchronized parallel baseline
// (baseline::LockstepExecutor), the non-Δ "obvious solution"
// (baseline::EagerExecutor), and the partitioned multi-engine transport
// (distrib::TransportEngine). Benches and the serializability checker swap
// them freely over the same Program.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/delivery.hpp"
#include "core/program.hpp"
#include "core/sink_store.hpp"
#include "event/message.hpp"
#include "event/phase.hpp"

namespace df::core {

/// Supplies the external events for each phase as it starts. Phases are
/// requested in order 1, 2, 3, ...
class PhaseFeed {
 public:
  virtual ~PhaseFeed() = default;
  virtual std::vector<event::ExternalEvent> events_for(event::PhaseId p) = 0;
};

/// A feed with no external events: sources run purely off phase signals and
/// their own rng streams (the paper's simulation mode).
class NullFeed final : public PhaseFeed {
 public:
  std::vector<event::ExternalEvent> events_for(event::PhaseId) override {
    return {};
  }
};

/// Replays pre-assembled batches (index 0 holds phase 1's events).
class VectorFeed final : public PhaseFeed {
 public:
  explicit VectorFeed(std::vector<std::vector<event::ExternalEvent>> batches)
      : batches_(std::move(batches)) {}
  std::vector<event::ExternalEvent> events_for(event::PhaseId p) override {
    return p - 1 < batches_.size() ? batches_[p - 1]
                                   : std::vector<event::ExternalEvent>{};
  }

 private:
  std::vector<std::vector<event::ExternalEvent>> batches_;
};

/// Adapts a lambda.
class CallbackFeed final : public PhaseFeed {
 public:
  using Fn = std::function<std::vector<event::ExternalEvent>(event::PhaseId)>;
  explicit CallbackFeed(Fn fn) : fn_(std::move(fn)) {}
  std::vector<event::ExternalEvent> events_for(event::PhaseId p) override {
    return fn_(p);
  }

 private:
  Fn fn_;
};

/// Counters every executor reports. "Compute" covers module on_phase
/// bodies. "Bookkeeping" covers everything else an engine worker does per
/// pair: decoding and routing its unit's deliveries, staging the finish,
/// the global-lock wait and the scheduler transition, the run-queue push
/// with its wake-ups, and retire()'s on_phase_complete hook — on the
/// transport that hook is the egress flush: wire encode and channel send,
/// which on the socket channel only queues the frame for the channel's
/// writer thread. hook_ns reports the hook's time on its own.
struct ExecStats {
  /// Vertex-phase pairs executed (module calls), whatever the unit plan.
  std::uint64_t executed_pairs = 0;
  /// Unit-phase pairs the scheduler issued and a worker ran (DESIGN.md,
  /// "Unit scheduling"); equals executed_pairs under the identity plan.
  /// 0 for executors without a scheduler.
  std::uint64_t scheduled_pairs = 0;
  /// Scheduling units in the engine's plan, summed over a transport's
  /// blocks; 0 for executors without a scheduler.
  std::uint64_t units = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t sink_records = 0;
  std::uint64_t phases_completed = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t bookkeeping_ns = 0;
  /// Time inside the on_phase_complete hook, wherever retire() ran it (a
  /// worker, inside bookkeeping_ns, or the thread starting phases); 0 for
  /// executors without a hook.
  std::uint64_t hook_ns = 0;
  std::uint64_t max_inflight_phases = 0;
  double mean_inflight_phases = 0.0;
  double wall_seconds = 0.0;
  // Wake cadence of the engine's waits (DESIGN.md, "Wake only when the
  // waiter can proceed"); 0 for executors without a phase window.
  /// start_phase calls that found the phase window full and waited.
  std::uint64_t window_waits = 0;
  /// Returns from a wait for window room or for every started phase to
  /// complete (start_phase, quiesce(), finish()).
  std::uint64_t progress_wakeups = 0;
  /// Times a worker blocked on the empty run queue.
  std::uint64_t queue_parks = 0;
  // Legacy dispatch counters, always 0: no executor steals work, and
  // `parks` predates the run-queue count above — queue_parks is the real
  // one. Kept only because the benchmark of record (benchmark/suite.cpp)
  // still reads both fields for its core.dispatch.* rows.
  std::uint64_t steals_ok = 0;
  std::uint64_t parks = 0;

  double pairs_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(executed_pairs) / wall_seconds;
  }
  double phases_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(phases_completed) / wall_seconds;
  }
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs phases 1..num_phases to completion. `feed` may be null (NullFeed
  /// semantics). Callable once per executor instance.
  virtual void run(event::PhaseId num_phases, PhaseFeed* feed) = 0;

  virtual const SinkStore& sinks() const = 0;
  virtual ExecStats stats() const = 0;
};

/// Result of executing one vertex-phase pair: messages to deliver downstream
/// (already split per route), sink records, and the raw port-level emissions
/// (used by the eager baseline to forward last outputs every phase).
struct ExecutionResult {
  /// (to_internal_index, to_port, value) triples, in emission order. The
  /// type is the scheduler's own delivery type (core::Delivery), so engine
  /// workers move the vector wholesale into a staged finish — no per-pair
  /// repack between "what execution produced" and "what the scheduler
  /// applies".
  using Delivery = core::Delivery;
  std::vector<Delivery> deliveries;
  std::vector<SinkRecord> sink_records;
  std::vector<event::Message> emissions;
};

/// Applies the input bundle to the vertex's latest-value table, runs the
/// module, and routes emissions. Shared by every executor so Δ-semantics are
/// identical everywhere. Not thread-safe per vertex (executors guarantee a
/// vertex executes one phase at a time).
ExecutionResult execute_vertex(ProgramInstance& instance, std::uint32_t index,
                               event::PhaseId phase,
                               const event::InputBundle& bundle);
/// The same, into `result`: its vectors are cleared first and keep their
/// capacity, so a caller running many vertices reuses one result. If the
/// module throws, `result.emissions` holds what it emitted before the
/// throw and the other vectors are empty.
void execute_vertex(ProgramInstance& instance, std::uint32_t index,
                    event::PhaseId phase, const event::InputBundle& bundle,
                    ExecutionResult& result);

}  // namespace df::core
