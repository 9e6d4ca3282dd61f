#include "core/engine.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "core/checkpoint.hpp"
#include "graph/partition.hpp"
#include "support/check.hpp"
#include "support/state_archive.hpp"
#include "support/stopwatch.hpp"

namespace df::core {

namespace {

/// A run header names its member by a 16-bit port, which caps a unit's
/// size; the cap only bites past 2^16 vertices per unit.
constexpr std::uint64_t kMaxUnitMembers = std::uint64_t{1} << 16;

/// Appends `count` count-balanced contiguous units covering local indices
/// (lo, hi] to `bounds`.
void split_units(std::uint32_t lo, std::uint32_t hi, std::uint64_t count,
                 std::vector<std::uint32_t>& bounds) {
  const std::uint64_t length = hi - lo;
  count = std::max(count, (length + kMaxUnitMembers - 1) / kMaxUnitMembers);
  for (std::uint64_t k = 1; k <= count; ++k) {
    bounds.push_back(lo + static_cast<std::uint32_t>(k * length / count));
  }
}

}  // namespace

std::vector<std::uint32_t> plan_units(std::uint32_t vertices,
                                      std::uint32_t signal_sources,
                                      std::size_t threads,
                                      std::size_t max_inflight_phases,
                                      bool observed) {
  DF_CHECK(signal_sources <= vertices, "signal sources (", signal_sources,
           ") exceed the scheduled vertices (", vertices, ")");
  std::vector<std::uint32_t> bounds{0};
  const std::uint64_t units = 2 * static_cast<std::uint64_t>(threads);
  // Units pipeline across phases and give up intra-phase width, so a
  // window narrower than U cannot keep the workers busy; an observer needs
  // vertex-level transitions; and below two members per unit there is
  // nothing to amortize.
  const bool coarsen =
      units > 0 && !observed && vertices >= 2 * units &&
      (max_inflight_phases == 0 || max_inflight_phases >= units);
  if (!coarsen) {
    bounds.reserve(vertices + 1);
    for (std::uint32_t y = 1; y <= vertices; ++y) {
      bounds.push_back(y);
    }
    return bounds;
  }
  // Signal sources and the rest are split separately: a signal-source unit
  // enters the full set at phase start, so it must hold no vertex with a
  // predecessor outside itself. The sources get their share of the U
  // units, rounded, at least one and at most one per source.
  const std::uint64_t b = vertices;
  const std::uint64_t s = signal_sources;
  const std::uint64_t source_units =
      s == 0 ? 0
             : std::min(s, std::max<std::uint64_t>(
                               1, (2 * units * s + b) / (2 * b)));
  split_units(0, signal_sources, source_units, bounds);
  if (b > s) {
    split_units(signal_sources, vertices,
                std::min(b - s, std::max<std::uint64_t>(
                                    1, units - source_units)),
                bounds);
  }
  return bounds;
}

Engine::BlockPlan Engine::plan_scope(const Program& program,
                                     const EngineOptions& options) {
  BlockPlan plan;
  std::uint32_t begin = 1;
  std::uint32_t end = static_cast<std::uint32_t>(program.numbering.size());
  if (options.block.has_value()) {
    const EngineOptions::BlockScope& scope = *options.block;
    DF_CHECK(scope.egress != nullptr,
             "block-scoped engine needs an egress hook");
    if (scope.begin > scope.end) {
      // Empty block (a machine owning no vertices): zero vertices, zero
      // units, so every phase retires at start and the engine only paces
      // phase windows / watermark forwarding.
      plan.units = {0};
      plan.m = {0};
      plan.offset = scope.begin == 0 ? 0 : scope.begin - 1;
      plan.block_end = plan.offset;
      return plan;
    }
    DF_CHECK(scope.begin >= 1 && scope.end <= end, "block [", scope.begin,
             ", ", scope.end, "] outside internal index range 1..", end);
    begin = scope.begin;
    end = scope.end;
  }
  // The environment-signalled sources are exactly the program sources the
  // engine owns: global indices [begin, min(end, m[0])], i.e. a local
  // prefix. In block mode, units whose predecessors are all remote have
  // release 0 too — those are fed by injected remote deliveries, never by
  // the environment.
  const std::uint32_t m0 = program.numbering.m[0];
  plan.signal_sources = begin <= m0 ? std::min(end, m0) - begin + 1 : 0;
  plan.offset = begin - 1;
  plan.block_end = end;
  plan.units = plan_units(end - plan.offset, plan.signal_sources,
                          options.threads, options.max_inflight_phases,
                          options.observer != nullptr);
  plan.m = graph::block_local_m(program.dag, program.numbering, begin, end,
                                plan.units);
  // The plan splits at S, so the units ending at or before it cover
  // exactly the signal-source prefix.
  plan.source_units = static_cast<std::uint32_t>(
      std::count_if(plan.units.begin() + 1, plan.units.end(),
                    [&plan](std::uint32_t bound) {
                      return bound <= plan.signal_sources;
                    }));
  return plan;
}

Engine::Engine(const Program& program, EngineOptions options)
    : Engine(program, options, plan_scope(program, options)) {}

Engine::Engine(const Program& program, EngineOptions options, BlockPlan plan)
    : instance_(program),
      options_(std::move(options)),
      scheduler_(std::move(plan.m), plan.source_units),
      offset_(plan.offset),
      block_end_(plan.block_end),
      unit_bounds_(std::move(plan.units)),
      signal_sources_(plan.signal_sources),
      source_units_(plan.source_units),
      admit_batch_(std::max<std::size_t>(1, options_.max_inflight_phases / 8)) {
  sink_target_ = options_.block.has_value() && options_.block->sinks != nullptr
                     ? options_.block->sinks
                     : &sinks_;
  DF_CHECK(options_.threads >= 1, "engine needs at least one worker thread");
  unit_of_.assign(unit_bounds_.back() + 1, 0);
  for (std::uint32_t u = 1; u < unit_bounds_.size(); ++u) {
    const std::uint32_t size = unit_bounds_[u] - unit_bounds_[u - 1];
    max_unit_size_ = std::max(max_unit_size_, size);
    for (std::uint32_t y = unit_bounds_[u - 1] + 1; y <= unit_bounds_[u];
         ++y) {
      unit_of_[y] = u;
    }
  }
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
  // One pair per worker under every plan: a coarsened phase stages only
  // about two units per worker, so a target of two per worker would hold
  // every unit's successors back for a whole phase, and per-vertex plans
  // measured no better at two (DESIGN.md, "Staged delivery rings").
  drain_threshold_ = std::min<std::size_t>(16, options_.threads);
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

void Engine::lay_out_source_bundles(
    const std::vector<event::ExternalEvent>& events) {
  // Group the batch into per-unit input bundles (Listing 2's "phase
  // signal" is implicit: every source gets a pair, with or without events).
  // Resolve indices once, then lay each bundle out at its final size so it
  // is built with at most one allocation.
  env_bundles_.clear();
  env_bundles_.resize(source_units_);
  env_indices_.clear();
  for (const event::ExternalEvent& ev : events) {
    const std::uint32_t index = instance_.internal_index(ev.vertex);
    DF_CHECK(instance_.is_source(index),
             "external events may only target source vertices, got '",
             instance_.name(index), "'");
    // Block mode: the transport routes each event to the block owning its
    // target, so the global index must sit in this block's source prefix;
    // translate it to the engine's local indexing. (Checked against the
    // vertex-level prefix: the scheduler counts units.)
    DF_CHECK(index > offset_ && index - offset_ <= signal_sources_,
             "external event for '", instance_.name(index),
             "' (index ", index, ") is outside this block's source range");
    env_indices_.push_back(index - offset_);
  }
  env_counts_.assign(signal_sources_, 0);
  for (const std::uint32_t index : env_indices_) {
    ++env_counts_[index - 1];
  }
  // A multi-member unit frames each member's events as one run: a header
  // (port = the member's offset in its unit, value = the run length), then
  // the events in batch order. Event ports are arbitrary, so only the
  // header can say which member a message is for. A one-member unit
  // carries its events plain.
  env_cursor_.resize(signal_sources_);
  for (std::uint32_t u = 1; u <= source_units_; ++u) {
    const std::uint32_t first = unit_bounds_[u - 1] + 1;
    const std::uint32_t last = unit_bounds_[u];
    const std::size_t header = last != first ? 1 : 0;
    std::size_t size = 0;
    for (std::uint32_t s = first; s <= last; ++s) {
      if (env_counts_[s - 1] != 0) {
        size += header;
        env_cursor_[s - 1] = size;
        size += env_counts_[s - 1];
      }
    }
    if (size == 0) {
      continue;
    }
    event::InputBundle& bundle = env_bundles_[u - 1];
    bundle.resize(size);
    for (std::uint32_t s = first; header != 0 && s <= last; ++s) {
      if (env_counts_[s - 1] != 0) {
        bundle[env_cursor_[s - 1] - 1] = event::Message{
            static_cast<graph::Port>(s - first),
            event::Value(static_cast<std::int64_t>(env_counts_[s - 1]))};
      }
    }
  }
}

event::Message& Engine::event_slot(std::size_t i) {
  const std::uint32_t s = env_indices_[i];
  return env_bundles_[unit_of_[s] - 1][env_cursor_[s - 1]++];
}

void Engine::start_phase(const std::vector<event::ExternalEvent>& events) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  lay_out_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    event_slot(i) = event::Message{events[i].port, events[i].value};
  }
  start_phase_bundles();
}

void Engine::start_phase(std::vector<event::ExternalEvent>&& events) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  lay_out_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    event_slot(i) =
        event::Message{events[i].port, std::move(events[i].value)};
  }
  start_phase_bundles();
}

void Engine::start_phase(const std::vector<event::ExternalEvent>& events,
                         std::vector<Scheduler::Delivery>& remote) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  DF_CHECK(options_.block.has_value(),
           "remote-injection start_phase requires a block-scoped engine");
  lay_out_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    event_slot(i) = event::Message{events[i].port, events[i].value};
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
  // Address each delivery to its unit, framed exactly as a worker frames
  // a finish.
  env_injected_.clear();
  const std::span<Scheduler::Delivery> deliveries(remote);
  for (std::size_t i = 0; i < deliveries.size();) {
    i = frame_stretch(deliveries, i, deliveries[i].to_index, env_injected_);
  }
  start_phase_bundles(std::span<Scheduler::Delivery>(env_injected_));
}

void Engine::start_phase_bundles(std::span<Scheduler::Delivery> injected) {
  env_ready_.clear();
  // Starting a phase can also *complete* it (block mode: an empty block,
  // or a phase whose in-block work is finished by the injected deliveries
  // alone — e.g. sink-only blocks with no local sources). Both scheduler
  // overloads then retire inside the start call, so this is a retire site
  // like the apply paths.
  Retirement retired;
  {
    conc::UniqueLock lock(mutex_);
    // Backpressure wait (DESIGN.md, "Wake only when the waiter can
    // proceed"). Only a full window waits, and then until admit_batch_
    // slots are free, so a closed loop refills the window admit_batch_
    // phases per wake-up. The waiter records itself under mutex_ before
    // every wait, and every transition that frees a slot is a phase
    // retirement whose note_retirement() reads that record in the same
    // lock hold, so the wait cannot miss its wake-up even with
    // max_inflight_phases == 1. Written as an explicit loop (not a
    // wait-with-predicate lambda) because the predicate reads the
    // mutex_-guarded scheduler_.
    const std::size_t window = options_.max_inflight_phases;
    if (window != 0 && scheduler_.active_phase_count() >= window) {
      ++window_waits_;
      while (scheduler_.active_phase_count() + admit_batch_ > window) {
        admission_waiting_ = true;
        progress_cv_.wait(lock);
        ++progress_wakeups_;
      }
    }
    const event::PhaseId p = scheduler_.pmax() + 1;
    const event::PhaseId completed_before = scheduler_.completed_through();
    scheduler_.start_phase(p, std::span<event::InputBundle>(env_bundles_),
                           injected, env_ready_);
    retired = note_retirement(completed_before);
    max_inflight_ = std::max<std::uint64_t>(max_inflight_,
                                            scheduler_.active_phase_count());
    if (options_.observer != nullptr) {
      options_.observer->on_transition(
          SchedulerObserver::Transition::kPhaseStarted, 0, p,
          scheduler_.snapshot());
    }
  }
  retire(env_ready_, retired);
}

void Engine::wait_all_complete() {
  conc::UniqueLock lock(mutex_);
  // Explicit loop: the predicate reads the guarded scheduler_. Recorded
  // before every wait, so the retirement that completes the last started
  // phase notifies, and none before it does (note_retirement).
  while (!scheduler_.all_started_phases_complete()) {
    completion_waiting_ = true;
    progress_cv_.wait(lock);
    ++progress_wakeups_;
  }
}

void Engine::finish() {
  DF_CHECK(started_, "finish() before start()");
  if (finished_) {
    return;
  }
  wait_all_complete();
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
// Version 2 added the unit plan.
constexpr std::uint32_t kEngineImageVersion = 2;

void persist_bounds(support::StateArchive& ar,
                    std::vector<std::uint32_t>& bounds) {
  ar.sequence(bounds,
              [](support::StateArchive& a, std::uint32_t& b) { a.u32(b); });
}

}  // namespace

void Engine::quiesce() {
  DF_CHECK(started_ && !finished_, "quiesce outside start()/finish()");
  // Workers apply everything staged before blocking on an empty run queue
  // (the pre-block hook), so completion of the last started phase is always
  // reached and notified without caller involvement.
  wait_all_complete();
}

std::vector<std::uint8_t> Engine::snapshot_state() {
  DF_CHECK(started_ && !finished_, "snapshot_state outside start()/finish()");
  auto ar = support::StateArchive::saver();
  std::uint32_t magic = kEngineImageMagic;
  std::uint32_t version = kEngineImageVersion;
  ar.u32(magic);
  ar.u32(version);
  std::uint32_t begin = offset_ + 1;
  std::uint32_t end = block_end_;
  ar.u32(begin);
  ar.u32(end);
  std::vector<std::uint32_t> units = unit_bounds_;
  persist_bounds(ar, units);
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
  // Geometry first, before any state changes: the scheduler image indexes
  // units, so an image taken under another plan (another thread count or
  // window) cannot be restored here.
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  ar.u32(begin);
  ar.u32(end);
  DF_CHECK(begin == offset_ + 1 && end == block_end_,
           "engine checkpoint: block range mismatch");
  std::vector<std::uint32_t> units;
  persist_bounds(ar, units);
  DF_CHECK(units == unit_bounds_, "engine checkpoint: unit plan mismatch (",
           "image has ", units.size() - 1, " units, this engine ",
           unit_bounds_.size() - 1,
           "); restore with the threads and window the image was taken at");
  std::vector<std::uint8_t> sched;
  ar.sequence(sched,
              [](support::StateArchive& a, std::uint8_t& b) { a.u8(b); });
  {
    conc::MutexLock lock(mutex_);
    scheduler_.restore_state(sched);
  }
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

void Engine::enqueue_ready(std::vector<Scheduler::ReadyPair>& ready,
                           std::size_t caller_pops) {
  if (ready.empty()) {
    return;
  }
  // One lock acquisition and a bounded number of wakeups for the whole
  // batch, instead of a push per pair.
  const bool accepted = run_queue_.push_all(ready, caller_pops);
  DF_CHECK(accepted || abandoning_.load(std::memory_order_acquire),
           "run queue closed while work was outstanding");
  ready.clear();
}

Engine::Retirement Engine::note_retirement(event::PhaseId completed_before) {
  Retirement retired;
  if (scheduler_.completed_through() == completed_before) {
    return retired;
  }
  // Phase retirement is the only transition that shrinks the in-flight
  // window (retire_completed always advances completed_through when it
  // drops a slot) or completes the started phases, so it is the only one
  // that can make a recorded waiter's condition hold.
  retired.completed_now = scheduler_.completed_through();
  if (admission_waiting_ && scheduler_.active_phase_count() + admit_batch_ <=
                                options_.max_inflight_phases) {
    admission_waiting_ = false;
    retired.wake_progress = true;
  }
  if (completion_waiting_ && scheduler_.all_started_phases_complete()) {
    completion_waiting_ = false;
    retired.wake_progress = true;
  }
  return retired;
}

void Engine::retire(std::vector<Scheduler::ReadyPair>& ready,
                    Retirement retired, bool caller_pops_next) {
  if (retired.wake_progress) {
    // Notifying after the transition's lock release cannot lose the
    // wake-up: the waiter recorded itself and began waiting within one
    // mutex_ hold, before the transition's hold that claimed the record.
    progress_cv_.notify_all();
  }
  const bool runs_hook =
      retired.completed_now != 0 && options_.on_phase_complete != nullptr;
  // A drainer takes one of these pairs itself when it pops next, so that
  // one wakes no one. Not when the hook runs first: it may block on a
  // channel send while a parked worker could be running the pair. A
  // drainer whose maybe_drain loops for another pass leaves that pair to
  // the workers already awake or to its own later pop; none is stranded,
  // since it always returns to the queue.
  enqueue_ready(ready, caller_pops_next && !runs_hook ? 1 : 0);
  // Completion hook outside every engine lock: it may block (channel send),
  // and it must never be able to deadlock against engine-internal waiters.
  // A drainer still holds draining_ here, so a blocking hook stalls
  // threshold-1 drain volunteers in their yield loop — a bounded stall,
  // not a deadlock: the hook's channel send completes once the downstream
  // machine drains its ingress, which needs no progress from this engine
  // (see DESIGN.md, "Two-level parallelism").
  if (runs_hook) {
    const support::Stopwatch hook_timer;
    options_.on_phase_complete(retired.completed_now);
    hook_ns_.add(hook_timer.elapsed_ns());
  }
}

Engine::Retirement Engine::apply_finish_locked(
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
  return note_retirement(completed_before);
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
  Retirement retired;
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
    retired = note_retirement(completed_before);
  }
  const std::size_t drained = drain_batch_.size();
  staged_pending_.fetch_sub(drained);
  retire(drain_ready_, retired, /*caller_pops_next=*/true);
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

std::size_t Engine::frame_stretch(std::span<Scheduler::Delivery> deliveries,
                                  std::size_t i, std::uint32_t local,
                                  std::vector<Scheduler::Delivery>& out) const {
  // The scheduler appends each finish's deliveries to a unit's bundle in
  // order, so the run stays contiguous there. Each input port has a single
  // writer, so keeping every stretch in order keeps every port's messages
  // in emission order.
  std::size_t end = i + 1;
  while (end < deliveries.size() &&
         deliveries[end].to_index == deliveries[i].to_index) {
    ++end;
  }
  const std::uint32_t unit = unit_of_[local];
  const std::uint32_t first = unit_bounds_[unit - 1] + 1;
  if (unit_bounds_[unit] != first) {
    out.push_back(Scheduler::Delivery{
        unit, static_cast<graph::Port>(local - first),
        event::Value(static_cast<std::int64_t>(end - i))});
  }
  for (; i < end; ++i) {
    out.push_back(Scheduler::Delivery{unit, deliveries[i].to_port,
                                      std::move(deliveries[i].value)});
  }
  return end;
}

ExecutionResult& Engine::execute_member(std::uint32_t local,
                                        event::PhaseId phase,
                                        const event::InputBundle& bundle,
                                        UnitScratch& scratch) {
  support::Stopwatch compute_timer;
  ExecutionResult& result = scratch.result;
  try {
    // The scheduler speaks block-local indices; the instance is always
    // the full program, so execution (module state, rng forks, routing)
    // happens at the global index — bit-identical to the sequential
    // reference. offset_ is 0 outside block mode.
    execute_vertex(instance_, local + offset_, phase, bundle, result);
  } catch (...) {
    // Record the first failure and let the member complete with no output,
    // so the remaining phases drain and finish() can rethrow cleanly.
    conc::MutexLock lock(mutex_);
    if (first_error_ == nullptr) {
      first_error_ = std::current_exception();
    }
    result.deliveries.clear();
    result.sink_records.clear();
  }
  scratch.compute_ns += compute_timer.elapsed_ns();
  ++scratch.executed;
  // Delivered-message accounting is pre-routing: cross-boundary messages
  // count here and are reclassified remote by the transport's stats fold.
  scratch.messages += result.deliveries.size();
  return result;
}

std::vector<Scheduler::Delivery> Engine::run_unit(Scheduler::ReadyPair& pair,
                                                  UnitScratch& scratch) {
  const event::PhaseId phase = pair.phase;
  const std::uint32_t first = unit_bounds_[pair.vertex - 1] + 1;
  const std::uint32_t last = unit_bounds_[pair.vertex];
  std::vector<Scheduler::Delivery> out;
  out.reserve(scratch.out_capacity);
  // Routes one member's output by target: later members of this unit get
  // it straight into their bundles, later units of this engine get it
  // framed into the staged finish, and the egress hook gets what lies past
  // the block — in member order and, per member, emission order.
  const auto route = [&](ExecutionResult& result) {
    std::span<Scheduler::Delivery> deliveries(result.deliveries);
    for (std::size_t i = 0; i < deliveries.size();) {
      Scheduler::Delivery& d = deliveries[i];
      if (d.to_index > block_end_) {
        options_.block->egress(std::move(d), phase);
        ++i;
        continue;
      }
      const std::uint32_t local = d.to_index - offset_;
      if (local <= last) {
        scratch.members[local - first].push_back(
            event::Message{d.to_port, std::move(d.value)});
        ++i;
        continue;
      }
      i = frame_stretch(deliveries, i, local, out);
    }
    if (scratch.sinks.empty()) {
      scratch.sinks = std::move(result.sink_records);
    } else {
      std::move(result.sink_records.begin(), result.sink_records.end(),
                std::back_inserter(scratch.sinks));
    }
  };
  if (first == last) {
    // A one-member unit carries plain messages: run on its bundle.
    route(execute_member(first, phase, pair.bundle, scratch));
  } else {
    // Decode the unit's bundle into its members' bundles: each run is a
    // header (port = member offset, value = run length) followed by that
    // many payload messages on their real ports.
    event::InputBundle& framed = pair.bundle;
    for (std::size_t i = 0; i < framed.size();) {
      const std::uint32_t member = framed[i].port;
      const auto length = static_cast<std::size_t>(framed[i].value.as_int());
      DF_CHECK(member <= last - first && length >= 1 &&
                   length < framed.size() - i,
               "malformed run header in unit ", pair.vertex);
      event::InputBundle& in = scratch.members[member];
      for (std::size_t k = i + 1; k <= i + length; ++k) {
        in.push_back(std::move(framed[k]));
      }
      i += length + 1;
    }
    for (std::uint32_t y = first; y <= last; ++y) {
      event::InputBundle& in = scratch.members[y - first];
      // The sequential executor's Δ rule: a member runs iff it is a
      // signal source or received input this phase.
      if (y > signal_sources_ && in.empty()) {
        continue;
      }
      route(execute_member(y, phase, in, scratch));
      in.clear();
    }
  }
  if (!scratch.sinks.empty()) {
    sink_records_.add(scratch.sinks.size());
    sink_target_->record_batch(std::move(scratch.sinks));
    scratch.sinks.clear();
  }
  scratch.out_capacity = std::max(scratch.out_capacity, out.size());
  return out;
}

void Engine::worker_main(std::size_t worker_index) {
  // Listing 1: dequeue, execute outside the lock, then either stage the
  // finished pair for batched application (staged path) or update the sets
  // under the lock directly. The ready buffer and the unit executor's
  // member bundles are reused across iterations; the executed pair's
  // bundle is recycled into the scheduler's pool, so the locked
  // bookkeeping path allocates nothing at steady state.
  std::vector<Scheduler::ReadyPair> ready;
  UnitScratch scratch;
  scratch.members.resize(max_unit_size_);
  // Per-pair path only: one of the pairs this worker's own finish readied,
  // run next without the round trip through run_queue_ (DESIGN.md, "Engine
  // deviations from the paper's listings").
  std::optional<Scheduler::ReadyPair> local;
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
    if (local.has_value() && abandoning_.load(std::memory_order_acquire)) {
      local.reset();  // dropped like the pairs the closed queue rejects
    }
    std::optional<Scheduler::ReadyPair> item =
        std::exchange(local, std::nullopt);
    if (!item.has_value()) {
      item = run_queue_.pop_with_preblock(pre_block);
      if (!item.has_value()) {
        break;  // closed and drained
      }
    }
    support::Stopwatch pair_timer;
    scratch.compute_ns = 0;
    scratch.executed = 0;
    scratch.messages = 0;
    // Deliveries unification: the unit's framed output moves straight
    // into the staged record — no per-message repack.
    Scheduler::StagedFinish staged{item->vertex, item->phase,
                                   run_unit(*item, scratch),
                                   std::move(item->bundle)};
    executed_pairs_.add(scratch.executed);
    messages_delivered_.add(scratch.messages);
    compute_ns_.add(scratch.compute_ns);
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
      const Retirement retired = apply_finish_locked(staged, ready);
      if (!ready.empty()) {
        local = std::move(ready.back());
        ready.pop_back();
      }
      retire(ready, retired);
    }
    bookkeeping_ns_.add(pair_timer.elapsed_ns() - scratch.compute_ns);
    scheduled_pairs_.add(1);
  }
}

ExecStats Engine::stats() const {
  ExecStats stats;
  stats.executed_pairs = executed_pairs_.value();
  stats.scheduled_pairs = scheduled_pairs_.value();
  stats.units = unit_bounds_.size() - 1;
  stats.messages_delivered = messages_delivered_.value();
  stats.sink_records = sink_records_.value();
  stats.compute_ns = compute_ns_.value();
  stats.bookkeeping_ns = bookkeeping_ns_.value();
  stats.hook_ns = hook_ns_.value();
  stats.wall_seconds = wall_seconds_;
  stats.queue_parks = run_queue_.parks();
  {
    conc::MutexLock lock(mutex_);
    stats.window_waits = window_waits_;
    stats.progress_wakeups = progress_wakeups_;
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
