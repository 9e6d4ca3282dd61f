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
//     outside the lock. Under the lock a finish only tells the scheduler
//     which units received input: the messages themselves travel in
//     per-phase *lanes*, one per pair of units a program edge joins,
//     written by the sending unit's worker before it takes the lock and
//     read by the receiving unit's worker once the pair is issued.
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
//   * worker-local next pair: a worker keeps one of the pairs its own
//     finish readied and runs it next, handing only the rest to the run
//     queue, so a chain of pairs runs without a queue round trip per pair;
//   * spin before parking: a worker that finds the global lock held, or
//     the run queue empty, spins for about what a park and wake-up cost
//     before it blocks in the kernel (conc::Mutex::lock, BlockingQueue::pop;
//     DESIGN.md, "Spin before parking"). The paper's dequeue "suspends
//     until an item is available"; here a wait shorter than the spin never
//     reaches the kernel. ExecStats::lock_waits counts the lock
//     acquisitions that blocked;
//   * unit scheduling: the scheduler sees contiguous numbering runs
//     ("units") as single vertices, and a worker runs a unit's members for
//     one phase in numbering order under the sequential executor's Δ rule
//     (DESIGN.md, "Unit scheduling"). Members of a multi-member unit learn
//     their inputs from run headers inside the unit's lanes. An engine
//     starts on about two count-balanced units per worker, or, where that
//     cannot pay (the graph is too small for the pool, or the phase window
//     is narrower than the unit count), on one unit per vertex, scheduling
//     exactly as the listings do. Once its sampled timings cover every
//     unit, it re-cuts its units once, by measured member cost, to the
//     plan with the least predicted phase period;
//   * lanes: the paper's finish moves each message into its recipient's
//     set entry under the lock. Here the scheduler holds set membership
//     only, and a unit's input waits in the phase's lanes, one per sending
//     unit, which its worker reads in ascending sender order (DESIGN.md,
//     "Lanes"). Each lane has one writer and one reader, ordered by the
//     global lock; lanes are the engine's one unguarded hand-off;
//   * sampled timers: a worker times a random 1 in 16 of its unit pairs
//     (support::SampledStopwatch), so ExecStats' *_ns fields are estimates.
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
#include "core/executor.hpp"
#include "core/program.hpp"
#include "core/scheduler.hpp"
#include "core/sink_store.hpp"
#include "support/stopwatch.hpp"

namespace df::core {

struct EngineOptions {
  /// Computation threads (the paper's thread pool size). The environment
  /// runs on the calling thread, matching the paper's "always at least two
  /// threads contending for the data structures".
  std::size_t threads = 2;
  /// Maximum phases in flight before start_phase blocks; 0 = unbounded.
  std::size_t max_inflight_phases = 64;

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
  std::optional<BlockScope> block{};

  /// Fired (outside every engine lock, possibly concurrently from several
  /// worker threads and the environment thread) each time
  /// completed_phases() advances, with the new completed-through value.
  /// Values may arrive out of order across threads; consumers needing
  /// monotonicity (e.g. the transport's watermark flush) must impose it
  /// themselves. The callback may block (it sends on channels); it must
  /// not call back into the engine.
  std::function<void(event::PhaseId)> on_phase_complete{};
};

/// The engine's starting unit plan (DESIGN.md, "Unit scheduling"): cuts
/// the `vertices` an engine schedules (a whole program, or its transport
/// block), whose first `signal_sources` are environment-signalled, into
/// contiguous units. Returns local bounds {0, b_1, ..., vertices}; unit k
/// covers (b_{k-1}, b_k]. With U = 2 * threads the engine coarsens only
/// when vertices >= 2U and the phase window is unbounded (0) or at least
/// U; the signal-source prefix and the rest are then split separately into
/// count-balanced units. Otherwise every vertex is its own unit (the
/// identity plan).
std::vector<std::uint32_t> plan_units(std::uint32_t vertices,
                                      std::uint32_t signal_sources,
                                      std::size_t threads,
                                      std::size_t max_inflight_phases);

/// The re-cut's plan (DESIGN.md, "Unit scheduling"): `costs[y - 1]` is
/// local vertex y's sampled member time per phase and `overhead_ns` the
/// sampled engine time per unit pair outside members. Among U = threads ..
/// min(vertices, max_inflight_phases) units (.. vertices when the window
/// is unbounded), every split of U between the signal-source prefix and
/// the rest, each range cut by the min-max contiguous split of its costs
/// with no unit above 2^16 members, it returns the bounds of the plan with
/// the least predicted_period_ns, the smallest U on ties; no bounds at all
/// when no U is admissible.
std::vector<std::uint32_t> plan_units(std::span<const std::uint64_t> costs,
                                      std::uint32_t signal_sources,
                                      std::uint64_t overhead_ns,
                                      std::size_t threads,
                                      std::size_t max_inflight_phases);

/// The re-cut's model of a plan's phase period on `threads` workers: the
/// costliest unit plus one pair's overhead, or the phase's whole work
/// spread over the workers, whichever is larger:
/// max(max_u (c_u + o), (sum_u c_u + U * o) / threads).
double predicted_period_ns(std::span<const std::uint64_t> costs,
                           std::span<const std::uint32_t> bounds,
                           std::uint64_t overhead_ns, std::size_t threads);

class Engine final : public Executor {
 public:
  Engine(const Program& program, EngineOptions options = {});
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executor interface: drives the environment from `feed` for
  /// `num_phases` phases and blocks until all of them complete — start(),
  /// one start_phase per phase, finish().
  void run(event::PhaseId num_phases, PhaseFeed* feed) override;

  // Streaming interface --------------------------------------------------
  /// Spawns the computation threads and starts the wall clock that
  /// finish() reads into ExecStats::wall_seconds. Idempotent.
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
  /// Blocks until every started phase has completed, then stops workers
  /// and records the wall time since start(). If any module threw during
  /// execution, the first exception is rethrown here (the failed pair is
  /// treated as having produced no output, so the rest of the computation
  /// still drains deterministically).
  void finish();

  /// Phases fully completed so far (prefix 1..k).
  event::PhaseId completed_phases() const;

  // Checkpointing (crash-restart recovery; DESIGN.md "Crash-restart
  // recovery").
  /// Blocks until every started phase has completed. The engine stays
  /// running; this is the quiescent point snapshots are taken at.
  void quiesce();
  /// Serializes the block's execution state into a self-validating "DFEG"
  /// image: the block range, the program's m-vector, the completed phase,
  /// and, for every owned vertex, the rng stream, the latest-value cache
  /// and the module state (Module::persist_state). With every started
  /// phase retired the scheduler holds nothing but that phase number
  /// (DESIGN.md, "Checkpoint images"). Call only at a quiescent point
  /// (after quiesce(), with no concurrent start_phase): a phase still in
  /// flight throws support::check_error. Module state is read without
  /// locks after the check's lock hold, on the guarantee that no worker is
  /// executing.
  std::vector<std::uint8_t> snapshot_state();
  /// Rebuilds state from a snapshot_state image; the next start_phase
  /// opens the phase after the image's. Must be called after start()
  /// (reserve_steady_state precedes the first phase) and before any
  /// start_phase on this engine. Magic, version, checksum, block range and
  /// m-vector are validated, the range and m-vector before any state
  /// changes. The image holds no unit state, so any thread count or window
  /// restores it. Failure throws support::check_error and leaves the
  /// engine unusable — discard it and retry with an older image.
  void restore_state(const std::vector<std::uint8_t>& image);

  const SinkStore& sinks() const override { return sinks_; }
  ExecStats stats() const override;

  const ProgramInstance& instance() const { return instance_; }

 private:
  /// One worker's cost sample for the re-cut (DESIGN.md, "Unit
  /// scheduling"), taken on its timed pairs. The worker is the only writer
  /// and stores with relaxed atomics outside every engine lock; the
  /// environment thread reads them, also relaxed, to decide when and how
  /// to re-cut. Indexed by local vertex, so they outlive a re-cut.
  struct Sample {
    struct Vertex {
      /// Its timed member stretches (module call and routing), in ns.
      std::atomic<std::uint64_t> stretch_ns{0};
      std::atomic<std::uint64_t> stretches{0};
      /// Timed pairs of the unit it is the first member of.
      std::atomic<std::uint64_t> unit_pairs{0};
    };
    explicit Sample(std::size_t vertices) : vertices(vertices + 1) {}
    std::vector<Vertex> vertices;  // by local index
    /// Timed pairs, and their time outside member stretches in ns.
    std::atomic<std::uint64_t> pairs{0};
    std::atomic<std::uint64_t> overhead_ns{0};
  };
  /// Listing 1: dequeue a pair (or take the local next pair), execute it
  /// outside the lock, apply the finish under mutex_, keep one readied pair
  /// and retire the rest. `seed` seeds the worker's sampled timers, whose
  /// timed pairs feed `sample`.
  void worker_main(std::uint64_t seed, Sample& sample);
  /// What a scheduler transition hands to retire(): its new
  /// completed-through value, or 0 if it retired no phase, and whether a
  /// recorded progress_cv_ waiter can now proceed.
  struct Retirement {
    event::PhaseId completed_now = 0;
    bool wake_progress = false;
  };
  /// Called under mutex_ right after every scheduler transition, with the
  /// completed-through value from before it and the pairs it issued. It
  /// points each issued pair at its phase's lane block and recycles the
  /// blocks of the phases it retired. Only a phase retirement frees window
  /// room or completes the started phases, so only then does it check the
  /// recorded waiters; it claims (clears) each one whose condition now
  /// holds, so later retirements do not wake it again.
  Retirement note_transition(event::PhaseId completed_before,
                             std::span<const Scheduler::ReadyPair> issued)
      DF_REQUIRES(mutex_);
  /// The single phase-retire site, called outside every engine lock after
  /// each scheduler transition (phase start, finish). It notifies
  /// progress_cv_ only when the transition made a recorded waiter's
  /// condition hold (`retired.wake_progress`); then it hands `ready` to the
  /// run queue with one lock acquisition, clearing it for reuse, and, last,
  /// fires on_phase_complete if a phase retired — after the enqueue, so a
  /// hook blocked on a channel send never starves the pool of the pairs
  /// just issued. `timer` decides whether the hook is timed.
  void retire(std::vector<Scheduler::ReadyPair>& ready, Retirement retired,
              const support::SampledStopwatch& timer);
  /// Blocks until every started phase has completed (finish, quiesce,
  /// the re-cut).
  void wait_all_complete();
  /// The re-cut, run by every start_phase before it lays anything out:
  /// once every unit has kRecutPairs timed pairs, or kRecutPhases phases
  /// have started, it derives each member's time per phase and the
  /// per-pair overhead from the workers' samples and computes the
  /// weighted plan. Only if that plan differs does it wait until every
  /// started phase has completed and, under mutex_, install it with a
  /// fresh scheduler resumed at the completed phase. Runs once per engine.
  void maybe_recut();
  /// Derives the tables of the plan in unit_bounds_: unit_of_,
  /// source_units_, the lane layout and unit_lanes_. The constructor and
  /// the re-cut call it; the re-cut holds mutex_, so the first pair issued
  /// on the new plan is ordered after it.
  void lay_out_units();
  /// Shared tail of the start_phase overloads: env_bundles_ holds one laid
  /// out bundle per signal-source unit, and env_targets_ the units whose
  /// injected lanes of env_lanes() hold block-mode remote deliveries.
  void start_phase_bundles();
  /// Checks `events` against the block's source range and lays out
  /// env_bundles_: one bundle per signal-source unit, sized for its events
  /// plus, in a multi-member unit, one run header per member with events.
  /// env_cursor_[s - 1] is then where source s's next event goes.
  void lay_out_source_bundles(const std::vector<event::ExternalEvent>& events);
  /// The slot lay_out_source_bundles reserved for event i of the batch.
  event::Message& event_slot(std::size_t i);
  /// Moves the stretch of consecutive deliveries that starts at `i` and
  /// shares its to_index (local vertex `local`) into `lane`, behind a run
  /// header when the vertex's unit has more than one member: port = the
  /// member's offset in its unit, value = the stretch length. Returns the
  /// index past the stretch.
  std::size_t frame_stretch(std::span<Scheduler::Delivery> deliveries,
                            std::size_t i, std::uint32_t local,
                            event::InputBundle& lane) const;

  /// One phase's lanes (DESIGN.md, "Lanes"): lanes[k] is lane k of the
  /// layout below, cleared by its reader, so a block whose phase retired
  /// is empty and is reused for a later phase.
  struct LaneBlock {
    std::vector<event::InputBundle> lanes;
  };
  /// Lane (sender unit `from`, receiver unit `to`); from = 0 is the
  /// injected lane of a block-mode phase start.
  std::uint32_t lane_index(std::uint32_t from, std::uint32_t to) const;
  /// The environment's block for the next phase start, allocated on first
  /// use; env_lanes_ holds it until a start hands it to its phase.
  LaneBlock& env_lanes();

  /// Per-worker scratch of the unit executor, reused across pairs.
  struct UnitScratch {
    /// One bundle per member, grown to the largest unit the worker ran.
    std::vector<event::InputBundle> members;
    ExecutionResult result;  // the member being routed; capacity reused
    std::vector<SinkRecord> sinks;
    /// The later units of this engine the unit wrote lanes to: what the
    /// payload-free finish tells the scheduler.
    std::vector<std::uint32_t> targets;
    Sample* sample = nullptr;  // the worker's cost sample
    std::uint32_t first = 0;   // the unit's first member (local index)
    bool timed = false;  // whether this pair's members are timed
    // On a timed pair: the member whose stretch is open (0: none) and
    // when it began, and the pair's member stretches so far.
    std::uint32_t member = 0;
    std::uint64_t member_start_ns = 0;
    std::uint64_t member_ns = 0;
    std::uint64_t compute_ns = 0;
    std::uint64_t executed = 0;
    std::uint64_t messages = 0;
  };
  /// The unit executor: runs unit pair `pair` on its input — the bundle
  /// the pair carries (a signal-source unit's events) or its lanes, which
  /// it reads in ascending sender order and clears — running every member
  /// that is a signal source or received input, in numbering order.
  /// Deliveries inside the unit go straight to the later member's bundle,
  /// deliveries to a later unit of this engine into the lane for it (noted
  /// in `scratch.targets`), and deliveries past the block to the egress
  /// hook. Records the unit's sink output with one batch. Called from the
  /// worker loop outside any engine lock.
  void run_unit(Scheduler::ReadyPair& pair, UnitScratch& scratch);
  /// Moves the runs of a multi-member unit's framed `input` into
  /// `scratch.members` and clears `input`.
  void decode_runs(event::InputBundle& input, std::uint32_t unit,
                   UnitScratch& scratch) const;
  /// Executes local vertex `local` at its global index into
  /// `scratch.result`. A throwing module records the first error and
  /// produces nothing. On a timed pair it closes the previous member's
  /// stretch and opens this one's.
  ExecutionResult& execute_member(std::uint32_t local, event::PhaseId phase,
                                  const event::InputBundle& bundle,
                                  UnitScratch& scratch);
  /// Closes the open member stretch of a timed pair at `now_ns` into the
  /// worker's sample.
  static void end_member(UnitScratch& scratch, std::uint64_t now_ns);

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
  /// Phases the scheduler's steady-state reservation is sized for.
  std::size_t reserved_window() const;
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
  // The unit plan, written by the constructor and at most once more by the
  // re-cut (maybe_recut), which rewrites it and every table below derived
  // from it under mutex_ while no phase is in flight. Workers read these
  // tables without the lock, but only while running a pair they got through
  // run_queue_ or their own finish after that lock hold, so the queue's
  // mutex or mutex_ orders every such read after the rewrite. The
  // environment thread, which rewrites them, reads them freely.
  // unit_bounds_[u - 1] + 1 .. unit_bounds_[u] are unit u's local vertices;
  // unit_of_[y] is local vertex y's unit.
  std::vector<std::uint32_t> unit_bounds_;
  std::vector<std::uint32_t> unit_of_;
  std::uint32_t signal_sources_ = 0;  // vertex-level, local prefix 1..S
  std::uint32_t source_units_ = 0;    // units covering 1..S
  // The lane layout: one lane per pair of units that some program edge
  // joins, plus an injected lane (sender 0) per unit with a predecessor
  // before the block. Lanes are numbered by receiver, then ascending
  // sender, so unit t reads lanes in_lanes_[t] .. in_lanes_[t + 1] - 1 in
  // sender order. Sender s finds its lanes in
  // lanes_from_[out_lanes_[s] .. out_lanes_[s + 1] - 1] as (receiver,
  // lane), in ascending receiver order.
  std::vector<std::uint32_t> in_lanes_;   // [0..U+1]
  std::vector<std::uint32_t> out_lanes_;  // [0..U+1]
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lanes_from_;

  /// Timed pairs every unit needs before the re-cut (DESIGN.md, "Unit
  /// scheduling"): about 512 of its pairs at 1 in 16. A unit that has not
  /// reached them after kRecutPhases phases runs in fewer than about one
  /// phase in four, and the re-cut goes ahead without it.
  static constexpr std::uint64_t kRecutPairs = 32;
  static constexpr std::uint64_t kRecutPhases =
      4 * support::SampledStopwatch::kEvery * kRecutPairs;
  // One cost sample per worker, made by start() before the workers.
  std::vector<std::unique_ptr<Sample>> samples_;
  // Environment thread only: whether the re-cut is still to come, and the
  // phases started before it.
  bool recut_pending_ = true;
  std::uint64_t recut_phases_ = 0;

  // Environment-thread scratch (start_phase is called by one thread only):
  // reused across phases so steady-state phase starts allocate nothing.
  // env_bundles_[u - 1] is signal-source unit u's bundle; the scheduler's
  // start_phase swaps it for the buffer that unit's executed pair gave
  // back to the phase slot, which the next layout fills.
  std::vector<event::InputBundle> env_bundles_;
  std::vector<std::uint32_t> env_indices_;
  std::vector<std::size_t> env_counts_;
  std::vector<std::size_t> env_cursor_;
  std::vector<std::uint32_t> env_targets_;
  std::vector<Scheduler::ReadyPair> env_ready_;
  support::SampledStopwatch env_timer_{0};
  // Every lane block, allocated by the environment in the run (never at
  // construction or start), and the one reserved for its next phase.
  std::vector<std::unique_ptr<LaneBlock>> lane_blocks_;
  LaneBlock* env_lanes_ = nullptr;

  mutable conc::Mutex mutex_;  // the paper's single global lock
  conc::CondVar progress_cv_;
  // Progress waiters (DESIGN.md, "Wake only when the waiter can proceed").
  // A thread records what it waits for under mutex_ right before each
  // progress_cv_ wait, and note_transition() notifies only once that
  // holds. An admission wait, entered only on a full window, needs
  // admit_batch_ = max(1, W / 8) free slots; a completion wait needs every
  // started phase complete.
  const std::size_t admit_batch_;
  bool admission_waiting_ DF_GUARDED_BY(mutex_) = false;
  bool completion_waiting_ DF_GUARDED_BY(mutex_) = false;
  std::uint64_t window_waits_ DF_GUARDED_BY(mutex_) = 0;
  std::uint64_t progress_wakeups_ DF_GUARDED_BY(mutex_) = 0;
  // Lane blocks of the active phases: phase p's is at
  // p % phase_lanes_.size(), and the ring grows while it is full. Blocks
  // of retired phases wait in free_lanes_ for a later phase.
  std::vector<LaneBlock*> phase_lanes_ DF_GUARDED_BY(mutex_);
  std::vector<LaneBlock*> free_lanes_ DF_GUARDED_BY(mutex_);
  // unit_lanes_[u] is the lane block of unit u's issued pair. Written under
  // mutex_ when the pair is issued, read without it by the worker running
  // the pair, which received it through run_queue_ or its own local next
  // pair after that lock hold; the next write follows that pair's finish.
  std::vector<LaneBlock*> unit_lanes_;
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

  // Statistics.
  conc::ShardedCounter executed_pairs_;
  conc::ShardedCounter scheduled_pairs_;
  conc::ShardedCounter messages_delivered_;
  conc::ShardedCounter sink_records_;
  conc::ShardedCounter compute_ns_;
  conc::ShardedCounter bookkeeping_ns_;
  conc::ShardedCounter hook_ns_;
  conc::ShardedCounter lock_wait_ns_;
  conc::ShardedCounter lock_hold_ns_;
  std::uint64_t max_inflight_ DF_GUARDED_BY(mutex_) = 0;
  /// Restarted by start(); finish() stores its reading in wall_seconds_.
  /// Both run on the thread driving the engine, like start_phase.
  support::Stopwatch wall_;
  double wall_seconds_ = 0.0;
};

}  // namespace df::core
