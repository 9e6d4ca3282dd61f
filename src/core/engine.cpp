#include "core/engine.hpp"

#include <algorithm>
#include <bit>

#include "core/checkpoint.hpp"
#include "graph/partition.hpp"
#include "support/check.hpp"
#include "support/state_archive.hpp"
#include "support/stopwatch.hpp"

namespace df::core {

Engine::BlockPlan Engine::plan_scope(const Program& program,
                                     const EngineOptions& options) {
  BlockPlan plan;
  const std::uint32_t n = static_cast<std::uint32_t>(program.numbering.size());
  if (!options.block.has_value()) {
    plan.m = program.numbering.m;
    plan.signal_sources = Scheduler::kAllSources;
    plan.offset = 0;
    plan.block_end = n;
    return plan;
  }
  const EngineOptions::BlockScope& scope = *options.block;
  DF_CHECK(scope.egress != nullptr, "block-scoped engine needs an egress hook");
  if (scope.begin > scope.end) {
    // Empty block (a machine owning no vertices): zero vertices, zero
    // signal sources, so every phase retires at start and the engine only
    // paces phase windows / watermark forwarding.
    plan.m = {0};
    plan.signal_sources = 0;
    plan.offset = scope.begin == 0 ? 0 : scope.begin - 1;
    plan.block_end = plan.offset;
    return plan;
  }
  DF_CHECK(scope.begin >= 1 && scope.end <= n, "block [", scope.begin, ", ",
           scope.end, "] outside internal index range 1..", n);
  plan.m = graph::block_local_m(program.dag, program.numbering, scope.begin,
                                scope.end);
  // The block's environment-signalled sources are exactly the global
  // sources it owns: global indices [begin, min(end, m[0])], i.e. a local
  // prefix. m_loc[0] may be larger (vertices whose predecessors are all
  // remote become locally release-0) — those are fed by injected remote
  // deliveries, never by the environment.
  const std::uint32_t m0 = program.numbering.m[0];
  plan.signal_sources =
      scope.begin <= m0 ? std::min(scope.end, m0) - scope.begin + 1 : 0;
  plan.offset = scope.begin - 1;
  plan.block_end = scope.end;
  return plan;
}

Engine::Engine(const Program& program, EngineOptions options)
    : Engine(program, options, plan_scope(program, options)) {}

Engine::Engine(const Program& program, EngineOptions options, BlockPlan plan)
    : instance_(program),
      options_(std::move(options)),
      scheduler_(plan.m, plan.signal_sources),
      offset_(plan.offset),
      block_end_(plan.block_end) {
  sink_target_ = options_.block.has_value() && options_.block->sinks != nullptr
                     ? options_.block->sinks
                     : &sinks_;
  DF_CHECK(options_.threads >= 1, "engine needs at least one worker thread");
}

Engine::~Engine() {
  if (started_ && !finished_) {
    // Abandoned engine: stop workers without waiting for phase completion.
    // Workers may still try to enqueue newly ready pairs; the flag lets
    // them drop those instead of flagging the closed queue as a bug.
    //
    // Ordering argument (the teardown race this guards against): a worker
    // decides "the queue rejected my push" only inside push_all, under the
    // queue's mutex, after reading closed_ == true. close() sets closed_
    // under that same mutex, and this thread stores abandoning_ *before*
    // calling close(), so the mutex release/acquire edge publishes the
    // store to any worker that observes the rejection — the subsequent
    // abandoning_ check cannot read a stale false. The only other closer is
    // finish(), which runs after every started phase completed, when no
    // nonempty ready batch can exist anymore (an issued-but-unfinished pair
    // keeps its phase active, so finish() would still be waiting). Staged
    // finishes left in the rings are simply destroyed with the engine.
    abandoning_.store(true, std::memory_order_release);
    run_queue_.close();
    for (auto& worker : workers_) {
      worker.join();
    }
  }
}

void Engine::start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Warm the scheduler's flat structures to the run's expected footprint so
  // the locked bookkeeping path is allocation-free from the first phase
  // (unbounded windows get a representative depth; the structures still
  // grow organically past it).
  const std::size_t window = options_.max_inflight_phases == 0
                                 ? 64
                                 : options_.max_inflight_phases;
  {
    // No worker exists yet; taking the lock here is free and keeps the
    // scheduler_-under-mutex_ contract unconditional for the analysis.
    conc::MutexLock lock(mutex_);
    scheduler_.reserve_steady_state(
        std::min<std::size_t>(window, 64),
        std::min<std::size_t>(2 * scheduler_.n(), 65536));
  }
  // Staging pays off by amortizing lock traffic across workers; with a
  // single worker there is nothing to contend with, and a per-transition
  // observer needs the per-pair path for its snapshots.
  use_staging_ = options_.threads > 1 && options_.observer == nullptr;
  drain_threshold_ = std::min<std::size_t>(16, 2 * options_.threads);
  if (use_staging_) {
    const std::size_t capacity = std::bit_ceil(
        std::max<std::size_t>(2, options_.staging_ring_capacity));
    staging_.reserve(options_.threads);
    for (std::size_t i = 0; i < options_.threads; ++i) {
      staging_.push_back(
          std::make_unique<conc::SpscRing<Scheduler::StagedFinish>>(capacity));
    }
    drain_batch_.reserve(options_.threads * capacity);
  }
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void Engine::reserve_source_bundles(
    const std::vector<event::ExternalEvent>& events) {
  // Group the batch into per-source input bundles (Listing 2's "phase
  // signal" is implicit: every source gets a pair, with or without events).
  // Resolve indices once, then reserve exact per-source counts so each
  // bundle is built with at most one allocation.
  env_bundles_.clear();
  env_bundles_.resize(scheduler_.source_count());
  env_indices_.clear();
  for (const event::ExternalEvent& ev : events) {
    const std::uint32_t index = instance_.internal_index(ev.vertex);
    DF_CHECK(instance_.is_source(index),
             "external events may only target source vertices, got '",
             instance_.name(index), "'");
    // Block mode: the transport routes each event to the block owning its
    // target, so the global index must sit in this block's source prefix;
    // translate it to the scheduler's local indexing.
    DF_CHECK(index > offset_ && index - offset_ <= scheduler_.source_count(),
             "external event for '", instance_.name(index),
             "' (index ", index, ") is outside this block's source range");
    env_indices_.push_back(index - offset_);
  }
  env_counts_.assign(scheduler_.source_count(), 0);
  for (const std::uint32_t index : env_indices_) {
    ++env_counts_[index - 1];
  }
  for (std::size_t s = 0; s < env_counts_.size(); ++s) {
    if (env_counts_[s] != 0) {
      env_bundles_[s].reserve(env_counts_[s]);
    }
  }
}

void Engine::start_phase(const std::vector<event::ExternalEvent>& events) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  reserve_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    env_bundles_[env_indices_[i] - 1].push_back(
        event::Message{events[i].port, events[i].value});
  }
  start_phase_bundles(env_bundles_);
}

void Engine::start_phase(std::vector<event::ExternalEvent>&& events) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  reserve_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    env_bundles_[env_indices_[i] - 1].push_back(
        event::Message{events[i].port, std::move(events[i].value)});
  }
  start_phase_bundles(env_bundles_);
}

void Engine::start_phase(const std::vector<event::ExternalEvent>& events,
                         std::vector<Scheduler::Delivery>& remote) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  DF_CHECK(options_.block.has_value(),
           "remote-injection start_phase requires a block-scoped engine");
  reserve_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    env_bundles_[env_indices_[i] - 1].push_back(
        event::Message{events[i].port, events[i].value});
  }
  // Translate the reassembled cross-boundary deliveries to local indexing
  // up front; the scheduler overload below injects them before any pair of
  // the phase is issued, and additionally DF_CHECKs each target sits above
  // the signal-source prefix (remote senders are lower-numbered than every
  // in-block non-source, so a remote delivery can never target a source).
  for (Scheduler::Delivery& d : remote) {
    DF_CHECK(d.to_index > offset_ && d.to_index <= block_end_,
             "remote delivery for index ", d.to_index,
             " does not belong to block (", offset_, ", ", block_end_, "]");
    d.to_index -= offset_;
  }
  start_phase_bundles(env_bundles_, std::span<Scheduler::Delivery>(remote));
}

void Engine::start_phase_bundles(std::vector<event::InputBundle>& bundles,
                                 std::span<Scheduler::Delivery> injected) {
  env_ready_.clear();
  // Starting a phase can also *complete* it (block mode: an empty block,
  // or a phase whose in-block work is finished by the injected deliveries
  // alone — e.g. sink-only blocks with no local sources). Both scheduler
  // overloads then retire inside the start call, so this is a retire site
  // like the apply paths.
  event::PhaseId completed_now = 0;
  {
    conc::UniqueLock lock(mutex_);
    // Backpressure wait. Every transition that shrinks the window is a
    // phase retirement inside retire_completed(), which always advances
    // completed_through — and retire() notifies progress_cv_ exactly when
    // that happens, so this wait cannot miss a shrink even with
    // max_inflight_phases == 1. Written as an explicit loop (not a
    // wait-with-predicate lambda) because the predicate reads the
    // mutex_-guarded scheduler_.
    while (!(options_.max_inflight_phases == 0 ||
             scheduler_.active_phase_count() < options_.max_inflight_phases)) {
      progress_cv_.wait(lock);
    }
    const event::PhaseId p = scheduler_.pmax() + 1;
    const event::PhaseId completed_before = scheduler_.completed_through();
    scheduler_.start_phase(p, std::span<event::InputBundle>(bundles), injected,
                           env_ready_);
    if (scheduler_.completed_through() != completed_before) {
      completed_now = scheduler_.completed_through();
    }
    max_inflight_ = std::max<std::uint64_t>(max_inflight_,
                                            scheduler_.active_phase_count());
    if (options_.observer != nullptr) {
      options_.observer->on_transition(
          SchedulerObserver::Transition::kPhaseStarted, 0, p,
          scheduler_.snapshot());
    }
  }
  retire(env_ready_, completed_now);
}

void Engine::finish() {
  DF_CHECK(started_, "finish() before start()");
  if (finished_) {
    return;
  }
  {
    conc::UniqueLock lock(mutex_);
    // Explicit loop: the predicate reads the guarded scheduler_.
    while (!scheduler_.all_started_phases_complete()) {
      progress_cv_.wait(lock);
    }
  }
  run_queue_.close();
  for (auto& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  finished_ = true;
  std::exception_ptr error;
  {
    conc::MutexLock lock(mutex_);
    error = first_error_;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void Engine::run(event::PhaseId num_phases, PhaseFeed* feed) {
  support::Stopwatch wall;
  NullFeed null_feed;
  PhaseFeed& source = feed != nullptr ? *feed : null_feed;
  start();
  for (event::PhaseId p = 1; p <= num_phases; ++p) {
    start_phase(source.events_for(p));
  }
  finish();
  wall_seconds_ = wall.elapsed_s();
}

namespace {

constexpr std::uint32_t kEngineImageMagic = 0x44464547u;  // "DFEG"
constexpr std::uint32_t kEngineImageVersion = 1;

}  // namespace

void Engine::quiesce() {
  DF_CHECK(started_ && !finished_, "quiesce outside start()/finish()");
  conc::UniqueLock lock(mutex_);
  // Explicit loop: the predicate reads the guarded scheduler_. Workers
  // apply everything staged before blocking on an empty run queue (the
  // pre-block hook), so completion of the last started phase is always
  // reached and notified without caller involvement.
  while (!scheduler_.all_started_phases_complete()) {
    progress_cv_.wait(lock);
  }
}

std::vector<std::uint8_t> Engine::snapshot_state() {
  DF_CHECK(started_ && !finished_, "snapshot_state outside start()/finish()");
  auto ar = support::StateArchive::saver();
  std::uint32_t magic = kEngineImageMagic;
  std::uint32_t version = kEngineImageVersion;
  ar.u32(magic);
  ar.u32(version);
  std::vector<std::uint8_t> sched;
  {
    conc::MutexLock lock(mutex_);
    sched = scheduler_.snapshot_state();
  }
  ar.sequence(sched,
              [](support::StateArchive& a, std::uint8_t& b) { a.u8(b); });
  // Module/rng/latest state for every owned vertex, by global index. Read
  // without locks: the quiescent-point precondition guarantees no worker is
  // executing (an issued-but-unfinished pair would keep its phase active).
  std::uint32_t begin = offset_ + 1;
  std::uint32_t end = block_end_;
  ar.u32(begin);
  ar.u32(end);
  for (std::uint32_t v = begin; v <= end; ++v) {
    VertexRuntime& rt = instance_.runtime(v);
    rt.rng.persist(ar);
    ar.sequence(rt.latest, [](support::StateArchive& a, event::Value& value) {
      persist_value(a, value);
    });
    ar.bool_vector(rt.has_latest);
    rt.module->persist_state(ar);
  }
  return seal_image(std::move(ar).take());
}

void Engine::restore_state(const std::vector<std::uint8_t>& image) {
  DF_CHECK(started_ && !finished_,
           "restore_state requires a started engine (before any phase)");
  auto ar = support::StateArchive::loader(open_image(image, "engine"));
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  ar.u32(magic);
  DF_CHECK(magic == kEngineImageMagic,
           "engine checkpoint: bad magic (not a DFEG image)");
  ar.u32(version);
  DF_CHECK(version == kEngineImageVersion,
           "engine checkpoint: unsupported version ", version);
  std::vector<std::uint8_t> sched;
  ar.sequence(sched,
              [](support::StateArchive& a, std::uint8_t& b) { a.u8(b); });
  {
    conc::MutexLock lock(mutex_);
    scheduler_.restore_state(sched);
  }
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  ar.u32(begin);
  ar.u32(end);
  DF_CHECK(begin == offset_ + 1 && end == block_end_,
           "engine checkpoint: block range mismatch");
  for (std::uint32_t v = begin; v <= end; ++v) {
    VertexRuntime& rt = instance_.runtime(v);
    rt.rng.persist(ar);
    ar.sequence(rt.latest, [](support::StateArchive& a, event::Value& value) {
      persist_value(a, value);
    });
    ar.bool_vector(rt.has_latest);
    DF_CHECK(rt.latest.size() == rt.has_latest.size(),
             "engine checkpoint: latest-value cache size mismatch");
    rt.module->persist_state(ar);
  }
  ar.finish();
}

event::PhaseId Engine::completed_phases() const {
  conc::MutexLock lock(mutex_);
  return scheduler_.completed_through();
}

void Engine::enqueue_ready(std::vector<Scheduler::ReadyPair>& ready) {
  if (ready.empty()) {
    return;
  }
  // One lock acquisition and a bounded number of wakeups for the whole
  // batch, instead of a push per pair.
  const bool accepted = run_queue_.push_all(ready);
  DF_CHECK(accepted || abandoning_.load(std::memory_order_acquire),
           "run queue closed while work was outstanding");
  ready.clear();
}

void Engine::retire(std::vector<Scheduler::ReadyPair>& ready,
                    event::PhaseId completed_now) {
  if (completed_now != 0) {
    // Phase retirement is the only transition that shrinks the in-flight
    // window (retire_completed always advances completed_through when it
    // drops a slot), so this one notify covers every progress_cv_ waiter:
    // finish()/quiesce() waiting for all phases and start_phase waiting
    // for window room — including the max_inflight_phases == 1 case, where
    // every retirement must wake the environment. Notifying after the
    // transition's lock release cannot lose the wakeup: the waiters test
    // their predicates under mutex_, and the transition changed the state
    // under mutex_ before this call.
    progress_cv_.notify_all();
  }
  enqueue_ready(ready);
  // Completion hook outside every engine lock: it may block (channel send),
  // and it must never be able to deadlock against engine-internal waiters.
  // A drainer still holds draining_ here, so a blocking hook stalls
  // threshold-1 drain volunteers in their yield loop — a bounded stall,
  // not a deadlock: the hook's channel send completes once the downstream
  // machine drains its ingress, which needs no progress from this engine
  // (see DESIGN.md, "Two-level parallelism").
  if (completed_now != 0 && options_.on_phase_complete) {
    options_.on_phase_complete(completed_now);
  }
}

event::PhaseId Engine::apply_finish_locked(
    Scheduler::StagedFinish& staged, std::vector<Scheduler::ReadyPair>& ready) {
  conc::MutexLock lock(mutex_);
  const event::PhaseId completed_before = scheduler_.completed_through();
  scheduler_.finish_execution(
      staged.vertex, staged.phase,
      std::span<Scheduler::Delivery>(staged.deliveries),
      std::move(staged.recycled), ready);
  if (options_.sample_inflight) {
    const std::uint64_t active = scheduler_.active_phase_count();
    inflight_.add(active);
    inflight_sum_ += active;
    ++inflight_samples_;
  }
  if (options_.observer != nullptr) {
    options_.observer->on_transition(
        SchedulerObserver::Transition::kPairFinished, staged.vertex,
        staged.phase, scheduler_.snapshot());
  }
  return scheduler_.completed_through() != completed_before
             ? scheduler_.completed_through()
             : 0;
}

std::size_t Engine::drain_staged() {
  // Ring consumption happens outside the global lock (we are the exclusive
  // consumer while holding draining_); only the batch application below
  // takes it, and the moved-from staged shells are destroyed after release.
  drain_batch_.clear();
  for (auto& ring : staging_) {
    // Winning the draining_ exchange was the consumer-role handoff; claim
    // the role before touching the rings (debug-only SPSC owner check).
    ring->adopt_consumer();
    ring->drain([this](Scheduler::StagedFinish&& staged) {
      drain_batch_.push_back(std::move(staged));
    });
  }
  if (drain_batch_.empty()) {
    return 0;
  }
  drain_ready_.clear();
  event::PhaseId completed_now = 0;
  {
    conc::MutexLock lock(mutex_);
    const event::PhaseId completed_before = scheduler_.completed_through();
    scheduler_.finish_execution_batch(
        std::span<Scheduler::StagedFinish>(drain_batch_), drain_ready_);
    if (options_.sample_inflight) {
      // One sample per drained pair, all taken at the post-batch state:
      // keeps the Figure 1 histogram weighted per completion.
      const std::uint64_t active = scheduler_.active_phase_count();
      for (std::size_t i = 0; i < drain_batch_.size(); ++i) {
        inflight_.add(active);
        inflight_sum_ += active;
      }
      inflight_samples_ += drain_batch_.size();
    }
    if (scheduler_.completed_through() != completed_before) {
      completed_now = scheduler_.completed_through();
    }
  }
  const std::size_t drained = drain_batch_.size();
  staged_pending_.fetch_sub(drained);
  retire(drain_ready_, completed_now);
  return drained;
}

void Engine::maybe_drain(std::size_t threshold) {
  for (;;) {
    if (staged_pending_.load() < threshold) {
      return;
    }
    if (draining_.exchange(true)) {
      // Someone else holds the drain. A lazy (batch-target) caller can
      // leave: the holder re-checks staged_pending_ after releasing, and
      // our increment is seq_cst-ordered before this failed exchange, so
      // entries at or above the shared target cannot be missed. A
      // must-drain caller (threshold 1, about to block on the run queue)
      // cannot rely on that — the holder's re-check uses the *batch*
      // target and may rightly leave a sub-target residue — so it waits
      // for the flag and drains the residue itself.
      if (threshold > 1) {
        return;
      }
      std::this_thread::yield();
      continue;
    }
    // We hold the drain. An entry counted in staged_pending_ may not be
    // ring-visible for a moment (the producer increments before pushing);
    // the outer loop simply tries again until the counter agrees.
    const std::size_t drained = drain_staged();
    draining_.store(false);
    // Re-check after release: an entry staged after our ring sweep whose
    // owner lost the exchange above must not be stranded.
    if (drained == 0) {
      // Counted-but-invisible entry: give its producer a chance to finish
      // the push instead of spinning through a whole timeslice.
      std::this_thread::yield();
    }
  }
}

void Engine::route_deliveries(std::vector<Scheduler::Delivery>& deliveries,
                              event::PhaseId phase) {
  if (!options_.block.has_value()) {
    return;  // whole-program engine: every delivery is local, untranslated
  }
  // Split an executed pair's output at the block boundary: deliveries for
  // indices beyond the block leave through the egress hook with their
  // global index intact (the transport routes them by the partition cut);
  // in-block ones are translated to local indices and compacted to the
  // front so the vector feeds the scheduler unchanged. Runs on worker
  // threads outside every engine lock — the hook does its own locking.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    Scheduler::Delivery& d = deliveries[i];
    if (d.to_index > block_end_) {
      options_.block->egress(std::move(d), phase);
      continue;
    }
    d.to_index -= offset_;
    if (keep != i) {
      deliveries[keep] = std::move(d);
    }
    ++keep;
  }
  deliveries.resize(keep);
}

void Engine::worker_main(std::size_t worker_index) {
  // Listing 1: dequeue, execute outside the lock, then either stage the
  // finished pair for batched application (staged path) or update the sets
  // under the lock directly. The ready buffer is reused across iterations;
  // the executed pair's bundle is recycled into the scheduler's pool, so
  // the locked bookkeeping path allocates nothing at steady state.
  std::vector<Scheduler::ReadyPair> ready;
  conc::SpscRing<Scheduler::StagedFinish>* ring =
      use_staging_ ? staging_[worker_index].get() : nullptr;
  // Pre-block hook: about to block, apply everything pending first
  // (threshold 1), so no staged finish — possibly the one that completes a
  // phase or readies the only runnable pair — waits on a batch that will
  // never fill. This is what makes the lazy batch target below safe. The
  // drain may enqueue fresh ready pairs; the queue re-checks for work
  // after the hook.
  const auto pre_block = [this, ring] {
    if (ring != nullptr) {
      maybe_drain(1);
    }
  };
  for (;;) {
    std::optional<Scheduler::ReadyPair> item =
        run_queue_.pop_with_preblock(pre_block);
    if (!item.has_value()) {
      break;  // closed and drained
    }
    support::Stopwatch compute_timer;
    ExecutionResult result;
    try {
      // The scheduler speaks block-local indices; the instance is always
      // the full program, so execution (module state, rng forks, routing)
      // happens at the global index — bit-identical to the sequential
      // reference. offset_ is 0 outside block mode.
      result = execute_vertex(instance_, item->vertex + offset_, item->phase,
                              item->bundle);
    } catch (...) {
      // Record the first failure and let the pair complete with no output,
      // so the remaining phases drain and finish() can rethrow cleanly.
      conc::MutexLock lock(mutex_);
      if (first_error_ == nullptr) {
        first_error_ = std::current_exception();
      }
      result = ExecutionResult{};
    }
    compute_ns_.add(compute_timer.elapsed_ns());

    if (!result.sink_records.empty()) {
      sink_records_.add(result.sink_records.size());
      sink_target_->record_batch(std::move(result.sink_records));
    }
    // Delivered-message accounting is pre-routing: cross-boundary messages
    // count here and are reclassified remote by the transport's stats fold.
    messages_delivered_.add(result.deliveries.size());

    support::Stopwatch bookkeeping_timer;
    route_deliveries(result.deliveries, item->phase);
    // Deliveries unification: the executor's output vector moves straight
    // into the staged record — no per-message repack.
    Scheduler::StagedFinish staged{item->vertex, item->phase,
                                   std::move(result.deliveries),
                                   std::move(item->bundle)};
    bool staged_ok = false;
    if (ring != nullptr) {
      // Count first, push second: a drainer that sees the count but not
      // yet the entry spins, whereas the reverse order could let a drain
      // consume an uncounted entry and underflow the counter.
      staged_pending_.fetch_add(1);
      staged_ok = ring->try_push(staged);
      if (!staged_ok) {
        staged_pending_.fetch_sub(1);  // ring full: apply this one directly
      }
    }
    if (staged_ok) {
      maybe_drain(drain_threshold_);
    } else {
      ready.clear();
      retire(ready, apply_finish_locked(staged, ready));
    }
    bookkeeping_ns_.add(bookkeeping_timer.elapsed_ns());
    executed_pairs_.add(1);
  }
}

ExecStats Engine::stats() const {
  ExecStats stats;
  stats.executed_pairs = executed_pairs_.value();
  stats.messages_delivered = messages_delivered_.value();
  stats.sink_records = sink_records_.value();
  stats.compute_ns = compute_ns_.value();
  stats.bookkeeping_ns = bookkeeping_ns_.value();
  stats.wall_seconds = wall_seconds_;
  {
    conc::MutexLock lock(mutex_);
    stats.phases_completed = scheduler_.completed_through();
    stats.max_inflight_phases = max_inflight_;
    stats.mean_inflight_phases =
        inflight_samples_ == 0
            ? 0.0
            : static_cast<double>(inflight_sum_) /
                  static_cast<double>(inflight_samples_);
  }
  return stats;
}

}  // namespace df::core
