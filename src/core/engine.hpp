// The parallel event-correlation engine (paper section 3.2).
//
// Structure mirrors the paper exactly:
//   * an arbitrary number of *computation processes* (worker threads), each
//     an infinite loop: dequeue a ready vertex-phase pair from the run
//     queue, execute it, lock, update the scheduler's sets, unlock
//     (Listing 1). The scheduled "vertex" is a *unit*: a contiguous run of
//     the satisfactory numbering (see below);
//   * an *environment* that starts phases by injecting source vertex-phase
//     pairs into the full set (Listing 2). Here the environment runs on the
//     caller's thread — run() drives it from a PhaseFeed, or the streaming
//     API (start / start_phase / finish) lets applications start phases as
//     real event batches arrive (event/phase.hpp assembles those);
//   * one global lock guards all scheduler state; module execution happens
//     outside the lock with the sealed input bundle from the queue item.
//
// Deviations from the listings, documented in DESIGN.md:
//   * termination: the paper's loops never exit; we close the run queue
//     once every started phase has completed, and workers exit on a drained
//     closed queue;
//   * backpressure: the paper's environment "sleeps for some amount of
//     time"; we bound the number of in-flight phases instead so memory use
//     is bounded at any event rate. A thread waiting on the engine
//     (start_phase on a full window, finish(), quiesce()) is woken only
//     once it can proceed: a full window of W phases reopens when
//     max(1, W/8) slots are free, so a closed loop refills it in batches
//     rather than one wake-up per retired phase (DESIGN.md, "Wake only
//     when the waiter can proceed");
//   * staged deliveries: with several workers, an executed pair is not
//     applied to the sets under the lock by the worker that ran it.
//     Instead the worker appends a StagedFinish record to its own SPSC
//     staging ring and one drainer at a time (whoever wins the `draining_`
//     flag) applies whole batches with a single frontier/promotion/collect
//     pass, shrinking both the number of lock acquisitions and the work
//     done per acquisition (DESIGN.md, "Staged delivery rings"). A single
//     worker, a per-transition observer, and a full staging ring use the
//     Listing 1 per-pair apply instead; the engine picks it on its own;
//   * worker-local next pair: on the per-pair path a worker keeps one of
//     the pairs its own finish readied and runs it next, handing only the
//     rest to the run queue. This is the single-worker fast path every
//     default transport partition takes. The staged drain still hands
//     every pair to the queue, so the drainer does not sit on work the
//     other workers could start;
//   * unit scheduling: the scheduler sees contiguous numbering runs
//     ("units", about two per worker) as single vertices, and a worker runs
//     a unit's members for one phase in numbering order under the
//     sequential executor's Δ rule (DESIGN.md, "Unit scheduling"). Members
//     of a multi-member unit learn their inputs from run headers inside the
//     unit's bundle. Where coarsening cannot pay — an observer is
//     installed, the graph is too small for the pool, or the phase window
//     is narrower than the unit count — every vertex is its own unit and
//     the engine schedules exactly as the listings do.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "concurrency/annotations.hpp"
#include "concurrency/blocking_queue.hpp"
#include "concurrency/sharded_counter.hpp"
#include "concurrency/spsc_ring.hpp"
#include "core/executor.hpp"
#include "core/observer.hpp"
#include "core/program.hpp"
#include "core/scheduler.hpp"
#include "core/sink_store.hpp"
#include "support/histogram.hpp"

namespace df::core {

struct EngineOptions {
  /// Computation threads (the paper's thread pool size). The environment
  /// runs on the calling thread, matching the paper's "always at least two
  /// threads contending for the data structures".
  std::size_t threads = 2;
  /// Maximum phases in flight before start_phase blocks; 0 = unbounded.
  std::size_t max_inflight_phases = 64;
  /// Optional set-membership observer (tracing); see core/observer.hpp.
  SchedulerObserver* observer = nullptr;
  /// When true, records a histogram of in-flight phase counts sampled at
  /// every pair completion (the Figure 1 pipelining measurement).
  bool sample_inflight = false;
  /// Per-worker staging-ring capacity; rounded up to a power of two. A
  /// full ring never blocks a worker — it falls back to applying that pair
  /// directly under the lock.
  std::size_t staging_ring_capacity = 256;

  /// Restricts the engine to one contiguous block [begin, end] of the
  /// program's satisfactory numbering (the transport's two-level mode: a
  /// full worker pool inside every partition block). The engine still
  /// instantiates the complete ProgramInstance — module state and rng
  /// streams fork by *global* internal index, bit-identical to the
  /// sequential reference — but schedules only the block: it cuts local
  /// indices 1..B (B = end - begin + 1) into units by the same rule as a
  /// whole-program engine, and its Scheduler tables, bitsets and FIFOs
  /// are sized and indexed to those units via graph::block_local_m.
  ///
  /// Seam contracts:
  ///  * deliveries an executed pair addresses beyond `end` are handed to
  ///    `egress` (global index preserved) instead of entering the
  ///    scheduler — the transport routes them onto the wire. Within one
  ///    executed unit they arrive in member order and, per member, in
  ///    emission order;
  ///  * remote deliveries for a phase are injected through the
  ///    start_phase(events, remote) overload when the phase window opens
  ///    (the caller guarantees completeness — the watermark handshake). A
  ///    vertex fed only by remote deliveries is not a signal source: it
  ///    runs in a phase only if one of them reached it;
  ///  * when `sinks` is non-null, workers record sink batches there
  ///    (shared across the block engines of one transport run) instead of
  ///    the engine's own store.
  /// begin > end describes an empty block (B = 0): every phase retires at
  /// start and the engine only paces watermarks.
  struct BlockScope {
    std::uint32_t begin = 1;
    std::uint32_t end = 0;
    std::function<void(Delivery&&, event::PhaseId)> egress;
    SinkStore* sinks = nullptr;
  };
  std::optional<BlockScope> block;

  /// Fired (outside every engine lock, possibly concurrently from several
  /// worker threads and the environment thread) each time
  /// completed_phases() advances, with the new completed-through value.
  /// Values may arrive out of order across threads; consumers needing
  /// monotonicity (e.g. the transport's watermark flush) must impose it
  /// themselves. The callback may block (it sends on channels); it must
  /// not call back into the engine.
  std::function<void(event::PhaseId)> on_phase_complete;
};

/// The engine's unit plan (DESIGN.md, "Unit scheduling"): cuts the
/// `vertices` an engine schedules (a whole program, or its transport
/// block), whose first `signal_sources` are environment-signalled, into
/// contiguous units. Returns local bounds {0, b_1, ..., vertices}; unit k
/// covers (b_{k-1}, b_k]. With U = 2 * threads the engine coarsens only
/// when no observer is installed, vertices >= 2U, and the phase window is
/// unbounded (0) or at least U; the signal-source prefix and the rest are
/// then split separately into count-balanced units. Otherwise every
/// vertex is its own unit (the identity plan).
std::vector<std::uint32_t> plan_units(std::uint32_t vertices,
                                      std::uint32_t signal_sources,
                                      std::size_t threads,
                                      std::size_t max_inflight_phases,
                                      bool observed);

class Engine final : public Executor {
 public:
  Engine(const Program& program, EngineOptions options = {});
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executor interface: drives the environment from `feed` for
  /// `num_phases` phases and blocks until all of them complete.
  void run(event::PhaseId num_phases, PhaseFeed* feed) override;

  // Streaming interface --------------------------------------------------
  /// Spawns the computation threads. Idempotent.
  void start();
  /// Starts the next phase carrying `events` (may be empty: pure phase
  /// signal). Blocks while max_inflight_phases are active. The rvalue
  /// overload moves the event payloads into the source bundles instead of
  /// copying them.
  void start_phase(const std::vector<event::ExternalEvent>& events);
  void start_phase(std::vector<event::ExternalEvent>&& events);
  /// Block-mode phase start (requires EngineOptions::block): `remote`
  /// carries the reassembled cross-boundary deliveries for this phase,
  /// addressed by *global* internal index inside the block; they are
  /// translated to local indices and injected as the phase's virtual
  /// index-0 inputs before any in-block pair of the phase executes (the
  /// watermark handshake makes the set complete at call time). The vector
  /// is consumed (payloads moved out).
  void start_phase(const std::vector<event::ExternalEvent>& events,
                   std::vector<Scheduler::Delivery>& remote);
  /// Blocks until every started phase has completed, then stops workers.
  /// If any module threw during execution, the first exception is rethrown
  /// here (the failed pair is treated as having produced no output, so the
  /// rest of the computation still drains deterministically).
  void finish();

  /// Phases fully completed so far (prefix 1..k).
  event::PhaseId completed_phases() const;

  // Checkpointing (crash-restart recovery; DESIGN.md "Crash-restart
  // recovery").
  /// Blocks until every started phase has completed and every staged finish
  /// has been applied (workers drain their rings before blocking, so this
  /// needs no help from the caller). The engine stays running; this is the
  /// quiescent point snapshots are taken at.
  void quiesce();
  /// Serializes the block's full execution state into a self-validating
  /// "DFEG" image: the block range and unit plan, the scheduler image
  /// (nested "DFSC" blob), and, for every owned vertex, the module state
  /// (Module::persist_state), the rng stream, and the latest-value cache.
  /// Call only at a quiescent point (after quiesce(), with no concurrent
  /// start_phase) — module state is read without locks on the guarantee
  /// that no worker is executing.
  std::vector<std::uint8_t> snapshot_state();
  /// Rebuilds state from a snapshot_state image. Must be called after
  /// start() (reserve_steady_state precedes the first phase) and before any
  /// start_phase on this engine. Magic, version, checksum, block range,
  /// unit plan, and scheduler geometry are all validated; the range and
  /// plan are checked before any state changes (an image taken at another
  /// thread count or window may carry another plan). Failure throws
  /// support::check_error and leaves the engine unusable — discard it and
  /// retry with an older image.
  void restore_state(const std::vector<std::uint8_t>& image);

  const SinkStore& sinks() const override { return sinks_; }
  ExecStats stats() const override;

  /// In-flight phase distribution (only populated with sample_inflight).
  const support::CountHistogram& inflight_histogram() const {
    return inflight_;
  }

  const ProgramInstance& instance() const { return instance_; }

 private:
  void worker_main(std::size_t worker_index);
  /// What a scheduler transition hands to retire(): its new
  /// completed-through value, or 0 if it retired no phase, and whether a
  /// recorded progress_cv_ waiter can now proceed.
  struct Retirement {
    event::PhaseId completed_now = 0;
    bool wake_progress = false;
  };
  /// Called under mutex_ right after every scheduler transition, with the
  /// completed-through value from before it. Only a phase retirement frees
  /// window room or completes the started phases, so only then does it
  /// check the recorded waiters; it claims (clears) each one whose
  /// condition now holds, so later retirements do not wake it again.
  Retirement note_retirement(event::PhaseId completed_before)
      DF_REQUIRES(mutex_);
  /// Applies one finished pair under the global lock and appends the pairs
  /// it readied to `ready` — the paper's Listing 1 tail. Used with a single
  /// worker, with a per-transition observer, and when a staging ring is
  /// full. Returns the transition's retirement for retire().
  Retirement apply_finish_locked(Scheduler::StagedFinish& staged,
                                 std::vector<Scheduler::ReadyPair>& ready);
  /// Staged path: drain whatever is visible in the staging rings whenever
  /// at least `threshold` entries are pending and nobody else holds the
  /// drain flag. The post-release re-check closes the classic stranding
  /// window: a worker that staged an entry after the current drainer swept
  /// its ring and then lost the flag race is covered by the drainer's next
  /// staged_pending_ check. Threshold 1 = drain everything (the mandatory
  /// pre-block call); the batch target trades a little latency for one
  /// frontier pass per batch.
  void maybe_drain(std::size_t threshold);
  /// One drain pass: pops every visible staged finish (ring consumer side,
  /// exclusive via draining_), applies the whole batch to the scheduler
  /// under one short lock acquisition, then retires. Returns the number of
  /// entries applied. Caller holds draining_ and goes straight back to the
  /// run queue afterwards.
  std::size_t drain_staged();
  /// The single phase-retire site, called outside every engine lock after
  /// each scheduler transition (phase start, per-pair apply, batched
  /// drain). It notifies progress_cv_ only when the transition made a
  /// recorded waiter's condition hold (`retired.wake_progress`); then it
  /// hands `ready` to the workers and, last, fires on_phase_complete if a
  /// phase retired — after the enqueue, so a hook blocked on a channel
  /// send never starves the pool of the pairs just issued.
  /// `caller_pops_next` says the calling worker goes straight back to the
  /// run queue and will take one of the pairs itself, so that pair wakes
  /// no one — unless the hook is about to run first, since it may block.
  void retire(std::vector<Scheduler::ReadyPair>& ready, Retirement retired,
              bool caller_pops_next = false);
  /// Hands every pair to the run queue with one lock acquisition and
  /// clears `ready` so the caller can reuse the buffer. `caller_pops` of
  /// the pairs are left for the caller, which pops next, and wake no one.
  void enqueue_ready(std::vector<Scheduler::ReadyPair>& ready,
                     std::size_t caller_pops);
  /// Blocks until every started phase has completed (finish, quiesce).
  void wait_all_complete();
  /// Shared tail of the start_phase overloads: env_bundles_ holds one laid
  /// out bundle per signal-source unit; `injected` carries block-mode
  /// remote deliveries already addressed to units.
  void start_phase_bundles(std::span<Scheduler::Delivery> injected = {});
  /// Checks `events` against the block's source range and lays out
  /// env_bundles_: one bundle per signal-source unit, sized for its events
  /// plus, in a multi-member unit, one run header per member with events.
  /// env_cursor_[s - 1] is then where source s's next event goes.
  void lay_out_source_bundles(const std::vector<event::ExternalEvent>& events);
  /// The slot lay_out_source_bundles reserved for event i of the batch.
  event::Message& event_slot(std::size_t i);
  /// Moves the stretch of consecutive deliveries that starts at `i` and
  /// shares its to_index (local vertex `local`) into `out`, addressed to
  /// that vertex's unit and, when the unit has more than one member,
  /// behind a run header: port = the member's offset in its unit, value =
  /// the stretch length. Returns the index past the stretch.
  std::size_t frame_stretch(std::span<Scheduler::Delivery> deliveries,
                            std::size_t i, std::uint32_t local,
                            std::vector<Scheduler::Delivery>& out) const;

  /// Per-worker scratch of the unit executor, reused across pairs.
  struct UnitScratch {
    std::vector<event::InputBundle> members;  // one bundle per member
    ExecutionResult result;  // the member being routed; capacity reused
    std::vector<SinkRecord> sinks;
    /// The largest framed output this worker has produced: each unit's
    /// output vector (handed on to the scheduler) is allocated once at
    /// that size instead of growing through reallocations.
    std::size_t out_capacity = 0;
    std::uint64_t compute_ns = 0;
    std::uint64_t executed = 0;
    std::uint64_t messages = 0;
  };
  /// The unit executor: runs unit pair `pair` — every member that is a
  /// signal source or received input, in numbering order — and returns
  /// the deliveries for later units of this engine, framed for the
  /// scheduler. Deliveries inside the unit go straight to the later
  /// member's bundle and deliveries past the block go to the egress hook.
  /// Records the unit's sink output with one batch. Called from the worker
  /// loop outside any engine lock.
  std::vector<Scheduler::Delivery> run_unit(Scheduler::ReadyPair& pair,
                                            UnitScratch& scratch);
  /// Executes local vertex `local` at its global index into
  /// `scratch.result`. A throwing module records the first error and
  /// produces nothing.
  ExecutionResult& execute_member(std::uint32_t local, event::PhaseId phase,
                                  const event::InputBundle& bundle,
                                  UnitScratch& scratch);

  /// Scheduling geometry resolved from options before member construction:
  /// the unit plan and its m-vector, how many leading local indices are
  /// environment-signalled sources, and the local<->global index
  /// translation.
  struct BlockPlan {
    std::vector<std::uint32_t> units;  // local unit bounds {0, ..., B}
    std::vector<std::uint32_t> m;      // unit m-vector, m[0..U]
    std::uint32_t signal_sources = 0;  // vertex-level prefix 1..S
    std::uint32_t source_units = 0;    // units covering 1..S
    std::uint32_t offset = 0;     // global == local + offset
    std::uint32_t block_end = 0;  // global index of the last block vertex
  };
  static BlockPlan plan_scope(const Program& program,
                              const EngineOptions& options);
  Engine(const Program& program, EngineOptions options, BlockPlan plan);

  ProgramInstance instance_;
  EngineOptions options_;
  /// The scheduler is passive: every call happens under mutex_ (the
  /// paper's single global lock), which the annotation enforces.
  Scheduler scheduler_ DF_GUARDED_BY(mutex_);
  SinkStore sinks_;
  std::uint32_t offset_ = 0;     // block mode: global == local + offset_
  std::uint32_t block_end_ = 0;  // block mode: last owned global index
  SinkStore* sink_target_ = nullptr;  // where workers record (usually own)
  // The unit plan (immutable after construction). unit_bounds_[u - 1] + 1
  // .. unit_bounds_[u] are unit u's local vertices; unit_of_[y] is local
  // vertex y's unit.
  std::vector<std::uint32_t> unit_bounds_;
  std::vector<std::uint32_t> unit_of_;
  std::uint32_t signal_sources_ = 0;  // vertex-level, local prefix 1..S
  std::uint32_t source_units_ = 0;    // units covering 1..S
  std::uint32_t max_unit_size_ = 1;

  // Environment-thread scratch (start_phase is called by one thread only):
  // reused across phases so steady-state phase starts stay allocation-light.
  std::vector<event::InputBundle> env_bundles_;
  std::vector<std::uint32_t> env_indices_;
  std::vector<std::size_t> env_counts_;
  std::vector<std::size_t> env_cursor_;
  std::vector<Scheduler::Delivery> env_injected_;
  std::vector<Scheduler::ReadyPair> env_ready_;

  mutable conc::Mutex mutex_;  // the paper's single global lock
  conc::CondVar progress_cv_;
  // Progress waiters (DESIGN.md, "Wake only when the waiter can proceed").
  // A thread records what it waits for under mutex_ right before each
  // progress_cv_ wait, and note_retirement() notifies only once that
  // holds. An admission wait, entered only on a full window, needs
  // admit_batch_ = max(1, W / 8) free slots; a completion wait needs every
  // started phase complete.
  const std::size_t admit_batch_;
  bool admission_waiting_ DF_GUARDED_BY(mutex_) = false;
  bool completion_waiting_ DF_GUARDED_BY(mutex_) = false;
  std::uint64_t window_waits_ DF_GUARDED_BY(mutex_) = 0;
  std::uint64_t progress_wakeups_ DF_GUARDED_BY(mutex_) = 0;
  conc::BlockingQueue<Scheduler::ReadyPair> run_queue_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool finished_ = false;
  /// Set by the destructor when tearing down with work outstanding; lets
  /// workers drop ready pairs instead of treating a closed queue as a bug.
  /// Ordering: the destructor stores this *before* closing the run queue,
  /// and the rejected-push check reads it only after observing the closed
  /// queue, so the queue mutex's release/acquire edge makes the store
  /// visible — a late rejected push can never see abandoning_ == false
  /// (see ~Engine). A worker also reads it before running its local next
  /// pair; a stale false there only runs one more pair.
  std::atomic<bool> abandoning_{false};
  std::exception_ptr first_error_ DF_GUARDED_BY(mutex_);

  // Staged delivery rings (DESIGN.md "Staged delivery rings"). Worker i is
  // the only producer of staging_[i]; the consumer side of every ring
  // belongs to whoever holds draining_ (the flag exchange is the
  // acquire/release handoff SpscRing requires).
  // staged_pending_ counts entries staged but not yet applied; it is
  // incremented *before* the ring push so a drainer's pending check can
  // never miss an entry it might also fail to see in the ring (it spins
  // through the sub-nanosecond publication window instead of exiting).
  //
  // Staged finishes accumulate until drain_threshold_ are pending before
  // anyone volunteers to drain, so each drain amortizes its lock
  // acquisition and frontier pass over a real batch: one pair per worker,
  // capped so drain latency stays small relative to the window's refill
  // rate. Liveness does not depend on it — a worker always drains
  // everything pending before it would block on an empty run queue.
  bool use_staging_ = false;         // resolved in start()
  std::size_t drain_threshold_ = 1;  // resolved in start()
  std::vector<std::unique_ptr<conc::SpscRing<Scheduler::StagedFinish>>>
      staging_;
  std::atomic<std::size_t> staged_pending_{0};
  std::atomic<bool> draining_{false};
  // Drain-pass scratch, reused across drains; owned by the draining_
  // holder, so unsynchronized access is safe.
  std::vector<Scheduler::StagedFinish> drain_batch_;
  std::vector<Scheduler::ReadyPair> drain_ready_;

  // Statistics.
  conc::ShardedCounter executed_pairs_;
  conc::ShardedCounter scheduled_pairs_;
  conc::ShardedCounter messages_delivered_;
  conc::ShardedCounter sink_records_;
  conc::ShardedCounter compute_ns_;
  conc::ShardedCounter bookkeeping_ns_;
  conc::ShardedCounter hook_ns_;
  std::uint64_t max_inflight_ DF_GUARDED_BY(mutex_) = 0;
  std::uint64_t inflight_samples_ DF_GUARDED_BY(mutex_) = 0;
  std::uint64_t inflight_sum_ DF_GUARDED_BY(mutex_) = 0;
  // Written under mutex_; inflight_histogram() hands out a const reference
  // for post-run inspection, so this stays outside the static annotation.
  support::CountHistogram inflight_{256};
  double wall_seconds_ = 0.0;
};

}  // namespace df::core
