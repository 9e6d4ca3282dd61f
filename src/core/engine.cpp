#include "core/engine.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
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

/// The units of `bounds` that end at or before S. Every plan splits at S,
/// so they cover exactly the signal-source prefix.
std::uint32_t count_source_units(const std::vector<std::uint32_t>& bounds,
                                 std::uint32_t signal_sources) {
  return static_cast<std::uint32_t>(
      std::count_if(bounds.begin() + 1, bounds.end(),
                    [signal_sources](std::uint32_t bound) {
                      return bound <= signal_sources;
                    }));
}

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
                                      std::size_t max_inflight_phases) {
  DF_CHECK(signal_sources <= vertices, "signal sources (", signal_sources,
           ") exceed the scheduled vertices (", vertices, ")");
  std::vector<std::uint32_t> bounds{0};
  const std::uint64_t units = 2 * static_cast<std::uint64_t>(threads);
  // Units pipeline across phases and give up intra-phase width, so a
  // window narrower than U cannot keep the workers busy; and below two
  // members per unit there is nothing to amortize.
  const bool coarsen =
      units > 0 && vertices >= 2 * units &&
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

namespace {

/// Adds to a counter that only the calling thread writes.
void bump(std::atomic<std::uint64_t>& total, std::uint64_t by) {
  total.store(total.load(std::memory_order_relaxed) + by,
              std::memory_order_relaxed);
}

/// The re-cut's period model; both the search and predicted_period_ns
/// evaluate it here, so a plan's period reads the same from both.
double period_of(std::uint64_t costliest_unit, std::uint64_t total,
                 std::uint64_t units, std::uint64_t overhead_ns,
                 std::size_t threads) {
  return std::max(static_cast<double>(costliest_unit + overhead_ns),
                  static_cast<double>(total + units * overhead_ns) /
                      static_cast<double>(threads));
}

/// Min-max contiguous cuts of one range of a plan (the signal-source
/// prefix or the rest) into k units, none above kMaxUnitMembers members:
/// the chains-on-chains partitioning problem (Pinar and Aykanat, JPDC
/// 2004), solved by bisecting on the bottleneck with a greedy probe.
class RangeCut {
 public:
  explicit RangeCut(std::span<const std::uint64_t> costs)
      : prefix_(costs.size() + 1, 0) {
    for (std::size_t i = 0; i < costs.size(); ++i) {
      prefix_[i + 1] = prefix_[i] + costs[i];
      max_cost_ = std::max(max_cost_, costs[i]);
    }
  }

  std::uint64_t size() const { return prefix_.size() - 1; }
  /// The fewest units the member cap allows (0 for an empty range).
  std::uint64_t min_units() const {
    return (size() + kMaxUnitMembers - 1) / kMaxUnitMembers;
  }

  /// The least possible cost of the costliest unit over cuts into exactly
  /// k units, min_units() <= k <= size(). Computed for ascending k and
  /// kept: it never rises with k, so each k bisects below the last.
  std::uint64_t bottleneck(std::uint64_t k) {
    while (bottleneck_.size() <= k - min_units()) {
      const std::uint64_t units = min_units() + bottleneck_.size();
      const std::uint64_t total = prefix_.back();
      std::uint64_t lo = std::max(max_cost_, (total + units - 1) / units);
      std::uint64_t hi = bottleneck_.empty() ? total : bottleneck_.back();
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (fits(mid, units)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      bottleneck_.push_back(hi);
    }
    return bottleneck_[k - min_units()];
  }

  /// Appends the bounds of a cut into exactly k units, none costing more
  /// than bottleneck(k), shifted by `base`. Each unit takes the longest
  /// run that fits while leaving one vertex for every later unit; the
  /// greedy stays ahead of any feasible cut, so the last unit fits too.
  void cut(std::uint64_t k, std::uint32_t base,
           std::vector<std::uint32_t>& bounds) {
    const std::uint64_t bound = bottleneck(k);
    std::uint64_t i = 0;
    for (std::uint64_t unit = 1; unit <= k; ++unit) {
      i = reach(i, bound, size() - (k - unit));
      bounds.push_back(base + static_cast<std::uint32_t>(i));
    }
    DF_CHECK(i == size(), "weighted cut left vertices uncovered");
  }

 private:
  /// The furthest end j <= limit of a unit starting after vertex i whose
  /// cost stays within `bound` and whose size within the member cap.
  std::uint64_t reach(std::uint64_t i, std::uint64_t bound,
                      std::uint64_t limit) const {
    const std::uint64_t last = std::min(limit, i + kMaxUnitMembers);
    const auto it = std::upper_bound(prefix_.begin() + i + 1,
                                     prefix_.begin() + last + 1,
                                     prefix_[i] + bound);
    return static_cast<std::uint64_t>(it - prefix_.begin()) - 1;
  }

  /// Whether at most k units, none costing more than `bound`, cover the
  /// range: the greedy that makes every unit as long as it can.
  bool fits(std::uint64_t bound, std::uint64_t k) const {
    std::uint64_t units = 0;
    for (std::uint64_t i = 0; i < size();) {
      const std::uint64_t next = reach(i, bound, size());
      if (next == i || ++units > k) {
        return false;
      }
      i = next;
    }
    return true;
  }

  std::vector<std::uint64_t> prefix_;
  std::uint64_t max_cost_ = 0;
  std::vector<std::uint64_t> bottleneck_;  // [k - min_units()]
};

}  // namespace

std::vector<std::uint32_t> plan_units(std::span<const std::uint64_t> costs,
                                      std::uint32_t signal_sources,
                                      std::uint64_t overhead_ns,
                                      std::size_t threads,
                                      std::size_t max_inflight_phases) {
  DF_CHECK(signal_sources <= costs.size(), "signal sources (",
           signal_sources, ") exceed the scheduled vertices (", costs.size(),
           ")");
  DF_CHECK(threads >= 1, "a plan needs at least one worker");
  // The signal-source prefix and the rest are cut apart, as in the
  // starting plan.
  RangeCut sources(costs.first(signal_sources));
  RangeCut rest(costs.subspan(signal_sources));
  const std::uint64_t vertices = costs.size();
  const std::uint64_t most =
      max_inflight_phases == 0
          ? vertices
          : std::min<std::uint64_t>(vertices, max_inflight_phases);
  std::uint64_t total = 0;
  std::uint64_t costliest = 0;
  for (const std::uint64_t cost : costs) {
    total += cost;
    costliest = std::max(costliest, cost);
  }
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t best_sources = 0;
  std::uint64_t best_rest = 0;
  for (std::uint64_t units = threads; units <= most; ++units) {
    // No cut of this many units, or of more, beats this bound: the unit
    // holding the costliest member, and the work spread over the workers,
    // which grows with the unit count.
    if (period_of(costliest, total, units, overhead_ns, threads) >= best) {
      break;
    }
    if (units < rest.min_units()) {
      continue;
    }
    // k source units and units - k for the rest, each range getting at
    // least its member-cap minimum and at most one unit per vertex.
    const std::uint64_t lo = std::max(
        sources.min_units(), units > rest.size() ? units - rest.size() : 0);
    const std::uint64_t hi =
        std::min(sources.size(), units - rest.min_units());
    for (std::uint64_t k = lo; k <= hi; ++k) {
      const std::uint64_t costliest_unit =
          std::max(k == 0 ? 0 : sources.bottleneck(k),
                   k == units ? 0 : rest.bottleneck(units - k));
      const double period =
          period_of(costliest_unit, total, units, overhead_ns, threads);
      if (period < best) {
        best = period;
        best_sources = k;
        best_rest = units - k;
      }
    }
  }
  std::vector<std::uint32_t> bounds;
  if (best_sources + best_rest == 0) {
    return bounds;
  }
  bounds.push_back(0);
  if (best_sources != 0) {
    sources.cut(best_sources, 0, bounds);
  }
  if (best_rest != 0) {
    rest.cut(best_rest, signal_sources, bounds);
  }
  return bounds;
}

double predicted_period_ns(std::span<const std::uint64_t> costs,
                           std::span<const std::uint32_t> bounds,
                           std::uint64_t overhead_ns, std::size_t threads) {
  DF_CHECK(!bounds.empty() && bounds.front() == 0 &&
               bounds.back() == costs.size(),
           "unit bounds must run from 0 to the vertex count");
  std::uint64_t total = 0;
  std::uint64_t costliest_unit = 0;
  for (std::size_t u = 1; u < bounds.size(); ++u) {
    std::uint64_t unit = 0;
    for (std::uint32_t y = bounds[u - 1]; y < bounds[u]; ++y) {
      unit += costs[y];
    }
    total += unit;
    costliest_unit = std::max(costliest_unit, unit);
  }
  return period_of(costliest_unit, total, bounds.size() - 1, overhead_ns,
                   threads);
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
                          options.threads, options.max_inflight_phases);
  plan.m = graph::block_local_m(program.dag, program.numbering, begin, end,
                                plan.units);
  plan.source_units = count_source_units(plan.units, plan.signal_sources);
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
      admit_batch_(std::max<std::size_t>(1, options_.max_inflight_phases / 8)) {
  sink_target_ = options_.block.has_value() && options_.block->sinks != nullptr
                     ? options_.block->sinks
                     : &sinks_;
  DF_CHECK(options_.threads >= 1, "engine needs at least one worker thread");
  lay_out_units();
}

void Engine::lay_out_units() {
  const Program& program = instance_.program();
  source_units_ = count_source_units(unit_bounds_, signal_sources_);
  unit_of_.assign(unit_bounds_.back() + 1, 0);
  for (std::uint32_t u = 1; u < unit_bounds_.size(); ++u) {
    for (std::uint32_t y = unit_bounds_[u - 1] + 1; y <= unit_bounds_[u];
         ++y) {
      unit_of_[y] = u;
    }
  }
  // The lane layout: every (receiver, sender) unit pair that a program edge
  // joins, sender 0 standing for any predecessor before the block.
  const auto units = static_cast<std::uint32_t>(unit_bounds_.size() - 1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> joined;
  for (std::uint32_t y = 1; y < unit_of_.size(); ++y) {
    const std::uint32_t to = unit_of_[y];
    const graph::VertexId v = program.numbering.vertex_at[y + offset_];
    for (const graph::Edge& e : program.dag.in_edges(v)) {
      const std::uint32_t pred = program.numbering.index_of[e.from];
      const std::uint32_t from = pred <= offset_ ? 0 : unit_of_[pred - offset_];
      if (from != to) {
        joined.emplace_back(to, from);
      }
    }
  }
  std::sort(joined.begin(), joined.end());
  joined.erase(std::unique(joined.begin(), joined.end()), joined.end());
  in_lanes_.assign(units + 2, 0);
  out_lanes_.assign(units + 2, 0);
  for (const auto& [to, from] : joined) {
    ++in_lanes_[to + 1];
    ++out_lanes_[from + 1];
  }
  for (std::uint32_t u = 1; u < units + 2; ++u) {
    in_lanes_[u] += in_lanes_[u - 1];
    out_lanes_[u] += out_lanes_[u - 1];
  }
  lanes_from_.resize(joined.size());
  std::vector<std::uint32_t> next(out_lanes_.begin(), out_lanes_.end() - 1);
  for (std::uint32_t k = 0; k < joined.size(); ++k) {
    lanes_from_[next[joined[k].second]++] = {joined[k].first, k};
  }
  unit_lanes_.assign(units + 1, nullptr);
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
    // keeps its phase active, so finish() would still be waiting).
    abandoning_.store(true, std::memory_order_release);
    run_queue_.close();
    for (auto& worker : workers_) {
      worker.join();
    }
  }
}

std::size_t Engine::reserved_window() const {
  // Unbounded windows get a representative depth; the structures still
  // grow organically past it.
  const std::size_t window = options_.max_inflight_phases == 0
                                 ? 64
                                 : options_.max_inflight_phases;
  return std::min<std::size_t>(window, 64);
}

void Engine::start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Warm the scheduler's flat structures to the run's expected footprint so
  // the locked bookkeeping path is allocation-free from the first phase.
  {
    // No worker exists yet; taking the lock here is free and keeps the
    // scheduler_-under-mutex_ contract unconditional for the analysis.
    // The payload-free transitions only swap signal-source bundles through
    // the scheduler's inboxes, which therefore need no capacity.
    conc::MutexLock lock(mutex_);
    scheduler_.reserve_steady_state(reserved_window());
  }
  wall_.restart();
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    samples_.push_back(std::make_unique<Sample>(unit_bounds_.back()));
    workers_.emplace_back(
        [this, i, &sample = *samples_.back()] { worker_main(i + 1, sample); });
  }
}

void Engine::maybe_recut() {
  if (!recut_pending_) {
    return;
  }
  // Relaxed loads: the counts only decide when to cut, and a stale one
  // only delays the cut by a phase.
  const std::uint64_t started = recut_phases_++;
  for (std::size_t u = 1; u < unit_bounds_.size() && started < kRecutPhases;
       ++u) {
    std::uint64_t pairs = 0;
    for (const std::unique_ptr<Sample>& sample : samples_) {
      pairs += sample->vertices[unit_bounds_[u - 1] + 1].unit_pairs.load(
          std::memory_order_relaxed);
    }
    if (pairs < kRecutPairs) {
      return;
    }
  }
  recut_pending_ = false;
  std::size_t in_flight = 0;
  {
    conc::MutexLock lock(mutex_);
    in_flight = scheduler_.active_phase_count();
  }
  // Timed pairs come from every phase this engine started, and the phases
  // in flight ran about half their pairs.
  const double phases =
      std::max(1.0, static_cast<double>(started) -
                        static_cast<double>(in_flight) / 2.0);
  // A stretch holds about two clock reads of its own: the one that ends
  // its module call, and the halves of the reads that open it and the
  // next. Untimed pairs pay neither, so each stretch sheds them.
  constexpr int kReads = 64;
  const std::uint64_t first_read = support::SampledStopwatch::now_ns();
  for (int i = 2; i < kReads; ++i) {
    support::SampledStopwatch::now_ns();
  }
  const std::uint64_t read_ns =
      (support::SampledStopwatch::now_ns() - first_read) / (kReads - 1);
  const std::uint32_t vertices = unit_bounds_.back();
  std::vector<std::uint64_t> costs(vertices);
  std::uint64_t pairs = 0;
  std::uint64_t overhead_ns = 0;
  for (const std::unique_ptr<Sample>& sample : samples_) {
    pairs += sample->pairs.load(std::memory_order_relaxed);
    overhead_ns += sample->overhead_ns.load(std::memory_order_relaxed);
  }
  overhead_ns /= std::max<std::uint64_t>(pairs, 1);
  for (std::uint32_t y = 1; y <= vertices; ++y) {
    std::uint64_t stretch_ns = 0;
    std::uint64_t reads_ns = 0;
    for (const std::unique_ptr<Sample>& sample : samples_) {
      const Sample::Vertex& v = sample->vertices[y];
      stretch_ns += v.stretch_ns.load(std::memory_order_relaxed);
      reads_ns += 2 * read_ns * v.stretches.load(std::memory_order_relaxed);
    }
    costs[y - 1] = static_cast<std::uint64_t>(
        static_cast<double>(support::SampledStopwatch::kEvery *
                            (stretch_ns - std::min(stretch_ns, reads_ns))) /
        phases);
  }
  std::vector<std::uint32_t> bounds =
      plan_units(costs, signal_sources_, overhead_ns, options_.threads,
                 options_.max_inflight_phases);
  if (bounds.empty() || bounds == unit_bounds_) {
    return;
  }
  // Between phases the scheduler holds nothing but the completed phase and
  // every lane is empty, so the new plan needs only fresh tables: the
  // restore_state seam.
  wait_all_complete();
  std::vector<std::uint32_t> m = graph::block_local_m(
      instance_.program().dag, instance_.program().numbering, offset_ + 1,
      block_end_, bounds);
  conc::MutexLock lock(mutex_);
  unit_bounds_ = std::move(bounds);
  lay_out_units();
  for (const std::unique_ptr<LaneBlock>& block : lane_blocks_) {
    block->lanes.resize(lanes_from_.size());
  }
  const event::PhaseId resumed = scheduler_.completed_through();
  scheduler_ = Scheduler(std::move(m), source_units_);
  scheduler_.reserve_steady_state(reserved_window());
  scheduler_.resume_after(resumed);
}

void Engine::lay_out_source_bundles(
    const std::vector<event::ExternalEvent>& events) {
  // Group the batch into per-unit input bundles (Listing 2's "phase
  // signal" is implicit: every source gets a pair, with or without events).
  // Resolve indices once, then lay each bundle out at its final size in
  // the buffer the last phase start swapped back, which allocates only
  // while the buffers grow to the largest batches.
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
    event::InputBundle& bundle = env_bundles_[u - 1];
    bundle.clear();
    if (size == 0) {
      continue;
    }
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
  maybe_recut();
  lay_out_source_bundles(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    event_slot(i) = event::Message{events[i].port, events[i].value};
  }
  start_phase_bundles();
}

void Engine::start_phase(std::vector<event::ExternalEvent>&& events) {
  DF_CHECK(started_ && !finished_, "start_phase outside start()/finish()");
  maybe_recut();
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
  maybe_recut();
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
  // Frame each delivery into its unit's injected lane of the phase's block,
  // exactly as a worker frames its output, before the lock is taken.
  LaneBlock& block = env_lanes();
  const std::span<Scheduler::Delivery> deliveries(remote);
  for (std::size_t i = 0; i < deliveries.size();) {
    const std::uint32_t local = deliveries[i].to_index;
    const std::uint32_t unit = unit_of_[local];
    event::InputBundle& lane = block.lanes[lane_index(0, unit)];
    if (lane.empty()) {
      env_targets_.push_back(unit);
    }
    i = frame_stretch(deliveries, i, local, lane);
  }
  start_phase_bundles();
}

Engine::LaneBlock& Engine::env_lanes() {
  if (env_lanes_ == nullptr) {
    lane_blocks_.push_back(std::make_unique<LaneBlock>());
    lane_blocks_.back()->lanes.resize(lanes_from_.size());
    env_lanes_ = lane_blocks_.back().get();
  }
  return *env_lanes_;
}

std::uint32_t Engine::lane_index(std::uint32_t from, std::uint32_t to) const {
  const auto first = lanes_from_.begin() + out_lanes_[from];
  const auto last = lanes_from_.begin() + out_lanes_[from + 1];
  const auto it = std::lower_bound(
      first, last, to, [](const std::pair<std::uint32_t, std::uint32_t>& lane,
                          std::uint32_t unit) { return lane.first < unit; });
  DF_DCHECK(it != last && it->first == to, "no lane from unit ", from,
            " to unit ", to);
  return it->second;
}

void Engine::start_phase_bundles() {
  env_ready_.clear();
  LaneBlock* const block = &env_lanes();
  env_timer_.start();
  // Starting a phase can also *complete* it (block mode: an empty block,
  // or a phase whose in-block work is finished by the injected deliveries
  // alone — e.g. sink-only blocks with no local sources). Both scheduler
  // overloads then retire inside the start call, so this is a retire site
  // like a worker's finish.
  Retirement retired;
  {
    conc::UniqueLock lock(mutex_);
    // Backpressure wait (DESIGN.md, "Wake only when the waiter can
    // proceed"). Only a full window waits, and then until admit_batch_
    // slots are free, so a closed loop refills the window admit_batch_
    // phases per wake-up. The waiter records itself under mutex_ before
    // every wait, and every transition that frees a slot is a phase
    // retirement whose note_transition() reads that record in the same
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
    if (phase_lanes_.size() < p - completed_before) {
      // The ring is full: grow it, keeping every active phase's block.
      std::vector<LaneBlock*> grown(
          std::max<std::size_t>(4, 2 * phase_lanes_.size()));
      for (event::PhaseId q = completed_before + 1; q < p; ++q) {
        grown[q % grown.size()] = phase_lanes_[q % phase_lanes_.size()];
      }
      phase_lanes_ = std::move(grown);
    }
    phase_lanes_[p % phase_lanes_.size()] = block;
    scheduler_.start_phase(p, std::span<event::InputBundle>(env_bundles_),
                           std::span<const std::uint32_t>(env_targets_),
                           env_ready_);
    retired = note_transition(completed_before, env_ready_);
    max_inflight_ = std::max<std::uint64_t>(max_inflight_,
                                            scheduler_.active_phase_count());
    env_lanes_ = nullptr;
    if (!free_lanes_.empty()) {
      env_lanes_ = free_lanes_.back();
      free_lanes_.pop_back();
    }
  }
  env_targets_.clear();
  retire(env_ready_, retired, env_timer_);
}

void Engine::wait_all_complete() {
  conc::UniqueLock lock(mutex_);
  // Explicit loop: the predicate reads the guarded scheduler_. Recorded
  // before every wait, so the retirement that completes the last started
  // phase notifies, and none before it does (note_transition).
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
  wall_seconds_ = wall_.elapsed_s();
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
  NullFeed null_feed;
  PhaseFeed& source = feed != nullptr ? *feed : null_feed;
  start();
  for (event::PhaseId p = 1; p <= num_phases; ++p) {
    start_phase(source.events_for(p));
  }
  finish();
}

namespace {

constexpr std::uint32_t kEngineImageMagic = 0x44464547u;  // "DFEG"
// Version 3 holds the completed phase instead of a nested scheduler image
// and drops the unit plan.
constexpr std::uint32_t kEngineImageVersion = 3;

void persist_m(support::StateArchive& ar, std::vector<std::uint32_t>& m) {
  ar.sequence(m, [](support::StateArchive& a, std::uint32_t& v) { a.u32(v); });
}

}  // namespace

void Engine::quiesce() {
  DF_CHECK(started_ && !finished_, "quiesce outside start()/finish()");
  wait_all_complete();
}

std::vector<std::uint8_t> Engine::snapshot_state() {
  DF_CHECK(started_ && !finished_, "snapshot_state outside start()/finish()");
  std::uint64_t completed = 0;
  {
    // Besides reading the phase, this lock hold orders the lock-free module
    // reads below after the transition that retired the last started phase.
    conc::MutexLock lock(mutex_);
    DF_CHECK(scheduler_.all_started_phases_complete(),
             "snapshot_state with phases in flight (", scheduler_.pmax(),
             " started, ", scheduler_.completed_through(),
             " complete); call quiesce() first");
    // Every reader clears its lanes before its finish, so once every phase
    // has retired no lane holds a message.
    for (const std::unique_ptr<LaneBlock>& block : lane_blocks_) {
      for (const event::InputBundle& lane : block->lanes) {
        DF_CHECK(lane.empty(), "a retired phase left a message in a lane");
      }
    }
    completed = scheduler_.completed_through();
  }
  auto ar = support::StateArchive::saver();
  std::uint32_t magic = kEngineImageMagic;
  std::uint32_t version = kEngineImageVersion;
  ar.u32(magic);
  ar.u32(version);
  std::uint32_t begin = offset_ + 1;
  std::uint32_t end = block_end_;
  ar.u32(begin);
  ar.u32(end);
  std::vector<std::uint32_t> m = instance_.m();
  persist_m(ar, m);
  ar.u64(completed);
  // Module/rng/latest state for every owned vertex, by global index. No
  // worker is executing: an issued-but-unfinished pair would keep its phase
  // active.
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
  // Identity first, before any state changes: the block range and the
  // program's m-vector. Nothing in the image depends on the unit plan, so
  // any thread count or window restores it.
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  ar.u32(begin);
  ar.u32(end);
  DF_CHECK(begin == offset_ + 1 && end == block_end_,
           "engine checkpoint: block range mismatch");
  std::vector<std::uint32_t> m;
  persist_m(ar, m);
  DF_CHECK(m == instance_.m(),
           "engine checkpoint: m-vector mismatch (image of another program)");
  std::uint64_t completed = 0;
  ar.u64(completed);
  {
    conc::MutexLock lock(mutex_);
    scheduler_.resume_after(completed);
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

Engine::Retirement Engine::note_transition(
    event::PhaseId completed_before,
    std::span<const Scheduler::ReadyPair> issued) {
  // A retired phase's readers have all cleared their lanes before their
  // finishes, so its block is empty and can serve a later phase.
  const event::PhaseId completed = scheduler_.completed_through();
  for (event::PhaseId q = completed_before + 1; q <= completed; ++q) {
    free_lanes_.push_back(phase_lanes_[q % phase_lanes_.size()]);
  }
  for (const Scheduler::ReadyPair& pair : issued) {
    unit_lanes_[pair.vertex] = phase_lanes_[pair.phase % phase_lanes_.size()];
  }
  Retirement retired;
  if (completed == completed_before) {
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
                    Retirement retired,
                    const support::SampledStopwatch& timer) {
  if (retired.wake_progress) {
    // Notifying after the transition's lock release cannot lose the
    // wake-up: the waiter recorded itself and began waiting within one
    // mutex_ hold, before the transition's hold that claimed the record.
    progress_cv_.notify_all();
  }
  if (!ready.empty()) {
    // One lock acquisition and a bounded number of wakeups for the whole
    // batch, instead of a push per pair.
    const bool accepted = run_queue_.push_all(ready);
    DF_CHECK(accepted || abandoning_.load(std::memory_order_acquire),
             "run queue closed while work was outstanding");
    ready.clear();
  }
  // Completion hook outside every engine lock: it may block (channel send),
  // and it must never be able to deadlock against engine-internal waiters
  // (see DESIGN.md, "Two-level parallelism").
  if (retired.completed_now != 0 && options_.on_phase_complete != nullptr) {
    const std::uint64_t start_ns =
        timer.timed() ? support::SampledStopwatch::now_ns() : 0;
    options_.on_phase_complete(retired.completed_now);
    if (timer.timed()) {
      hook_ns_.add(support::SampledStopwatch::kEvery *
                   (support::SampledStopwatch::now_ns() - start_ns));
    }
  }
}

std::size_t Engine::frame_stretch(std::span<Scheduler::Delivery> deliveries,
                                  std::size_t i, std::uint32_t local,
                                  event::InputBundle& lane) const {
  // A lane has one writer per phase, which frames all its output for the
  // lane's unit in one pass, so runs never interleave. Each input port has
  // a single writer, so keeping every stretch in order keeps every port's
  // messages in emission order.
  std::size_t end = i + 1;
  while (end < deliveries.size() &&
         deliveries[end].to_index == deliveries[i].to_index) {
    ++end;
  }
  const std::uint32_t unit = unit_of_[local];
  const std::uint32_t first = unit_bounds_[unit - 1] + 1;
  if (unit_bounds_[unit] != first) {
    lane.push_back(event::Message{
        static_cast<graph::Port>(local - first),
        event::Value(static_cast<std::int64_t>(end - i))});
  }
  for (; i < end; ++i) {
    lane.push_back(
        event::Message{deliveries[i].to_port, std::move(deliveries[i].value)});
  }
  return end;
}

void Engine::end_member(UnitScratch& scratch, std::uint64_t now_ns) {
  if (scratch.member == 0) {
    return;
  }
  const std::uint64_t stretch = now_ns - scratch.member_start_ns;
  Sample::Vertex& member = scratch.sample->vertices[scratch.member];
  bump(member.stretch_ns, stretch);
  bump(member.stretches, 1);
  scratch.member_ns += stretch;
  scratch.member = 0;
}

ExecutionResult& Engine::execute_member(std::uint32_t local,
                                        event::PhaseId phase,
                                        const event::InputBundle& bundle,
                                        UnitScratch& scratch) {
  const std::uint64_t start_ns =
      scratch.timed ? support::SampledStopwatch::now_ns() : 0;
  if (scratch.timed) {
    // A member's stretch runs from its call to the next member's, so it
    // covers the routing of its output too.
    end_member(scratch, start_ns);
    scratch.member = local;
    scratch.member_start_ns = start_ns;
  }
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
  if (scratch.timed) {
    scratch.compute_ns += support::SampledStopwatch::now_ns() - start_ns;
  }
  ++scratch.executed;
  // Delivered-message accounting is pre-routing: cross-boundary messages
  // count here and are reclassified remote by the transport's stats fold.
  scratch.messages += result.deliveries.size();
  return result;
}

void Engine::decode_runs(event::InputBundle& input, std::uint32_t unit,
                         UnitScratch& scratch) const {
  // Each run is a header (port = member offset, value = run length)
  // followed by that many payload messages on their real ports.
  const std::uint32_t members = unit_bounds_[unit] - unit_bounds_[unit - 1];
  for (std::size_t i = 0; i < input.size();) {
    const std::uint32_t member = input[i].port;
    const auto length = static_cast<std::size_t>(input[i].value.as_int());
    DF_CHECK(member < members && length >= 1 && length < input.size() - i,
             "malformed run header in unit ", unit);
    event::InputBundle& in = scratch.members[member];
    for (std::size_t k = i + 1; k <= i + length; ++k) {
      in.push_back(std::move(input[k]));
    }
    i += length + 1;
  }
  input.clear();
}

void Engine::run_unit(Scheduler::ReadyPair& pair, UnitScratch& scratch) {
  const event::PhaseId phase = pair.phase;
  const std::uint32_t unit = pair.vertex;
  const std::uint32_t first = unit_bounds_[unit - 1] + 1;
  const std::uint32_t last = unit_bounds_[unit];
  LaneBlock& block = *unit_lanes_[unit];
  scratch.first = first;
  if (scratch.members.size() <= last - first) {
    scratch.members.resize(last - first + 1);
  }
  // The unit's input, in ascending sender order: the bundle the pair
  // carries (a signal-source unit's events; such a unit has no lanes), then
  // its lanes, the injected one first.
  const std::span<event::InputBundle> lanes(
      block.lanes.begin() + in_lanes_[unit],
      block.lanes.begin() + in_lanes_[unit + 1]);
  scratch.targets.clear();
  // Routes one member's output by target: later members of this unit get
  // it straight into their bundles, later units of this engine get it
  // framed into the lane for them, and the egress hook gets what lies past
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
      const std::uint32_t target = unit_of_[local];
      event::InputBundle& lane = block.lanes[lane_index(unit, target)];
      if (lane.empty()) {
        scratch.targets.push_back(target);
      }
      i = frame_stretch(deliveries, i, local, lane);
    }
    if (scratch.sinks.empty()) {
      scratch.sinks = std::move(result.sink_records);
    } else {
      std::move(result.sink_records.begin(), result.sink_records.end(),
                std::back_inserter(scratch.sinks));
    }
  };
  if (first == last) {
    // A one-member unit's input carries plain messages. With one non-empty
    // source it runs on that source directly; otherwise it runs on their
    // concatenation.
    event::InputBundle* input = &pair.bundle;
    std::size_t sources = 0;
    for (event::InputBundle& lane : lanes) {
      if (!lane.empty()) {
        input = &lane;
        ++sources;
      }
    }
    if (sources > 1) {
      event::InputBundle& joined = scratch.members[0];
      for (event::InputBundle& lane : lanes) {
        std::move(lane.begin(), lane.end(), std::back_inserter(joined));
      }
      input = &joined;
    }
    route(execute_member(first, phase, *input, scratch));
    if (scratch.timed) {
      end_member(scratch, support::SampledStopwatch::now_ns());
    }
    input->clear();
    for (event::InputBundle& lane : lanes) {
      lane.clear();
    }
  } else {
    decode_runs(pair.bundle, unit, scratch);
    for (event::InputBundle& lane : lanes) {
      decode_runs(lane, unit, scratch);
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
    if (scratch.timed) {
      end_member(scratch, support::SampledStopwatch::now_ns());
    }
  }
  if (!scratch.sinks.empty()) {
    sink_records_.add(scratch.sinks.size());
    sink_target_->record_batch(std::move(scratch.sinks));
    scratch.sinks.clear();
  }
}

void Engine::worker_main(std::uint64_t seed, Sample& sample) {
  // Listing 1: dequeue, execute outside the lock, then update the sets
  // under the lock. The ready buffer and the unit executor's scratch are
  // reused across iterations, and the unit's output waits in lanes that
  // keep their capacity, so the locked bookkeeping path allocates nothing
  // at steady state.
  std::vector<Scheduler::ReadyPair> ready;
  UnitScratch scratch;
  scratch.sample = &sample;
  // Times a random 1 in 16 unit pairs (ExecStats: sampled estimates).
  support::SampledStopwatch pair_timer(seed);
  // One of the pairs this worker's own finish readied, run next without
  // the round trip through run_queue_ (DESIGN.md, "Engine deviations from
  // the paper's listings").
  std::optional<Scheduler::ReadyPair> local;
  for (;;) {
    if (local.has_value() && abandoning_.load(std::memory_order_acquire)) {
      local.reset();  // dropped like the pairs the closed queue rejects
    }
    std::optional<Scheduler::ReadyPair> item =
        std::exchange(local, std::nullopt);
    if (!item.has_value()) {
      item = run_queue_.pop();
      if (!item.has_value()) {
        break;  // closed and drained
      }
    }
    pair_timer.start();
    scratch.timed = pair_timer.timed();
    scratch.member_ns = 0;
    scratch.compute_ns = 0;
    scratch.executed = 0;
    scratch.messages = 0;
    run_unit(*item, scratch);
    executed_pairs_.add(scratch.executed);
    messages_delivered_.add(scratch.messages);
    // Read the clock around the lock only on a timed pair.
    const auto now = [&scratch] {
      return scratch.timed ? support::SampledStopwatch::now_ns() : 0;
    };
    const std::uint64_t waiting = now();
    std::uint64_t acquired = 0;
    std::uint64_t released = 0;
    Retirement retired;
    {
      conc::MutexLock lock(mutex_);
      acquired = now();
      const event::PhaseId completed_before = scheduler_.completed_through();
      scheduler_.finish_execution(
          item->vertex, item->phase,
          std::span<const std::uint32_t>(scratch.targets),
          std::move(item->bundle), ready);
      retired = note_transition(completed_before, ready);
      released = now();
    }
    if (!ready.empty()) {
      local = std::move(ready.back());
      ready.pop_back();
    }
    retire(ready, retired, pair_timer);
    if (scratch.timed) {
      constexpr std::uint64_t kEvery = support::SampledStopwatch::kEvery;
      const std::uint64_t pair_ns = pair_timer.stop();
      compute_ns_.add(kEvery * scratch.compute_ns);
      bookkeeping_ns_.add(pair_ns - kEvery * scratch.compute_ns);
      lock_wait_ns_.add(kEvery * (acquired - waiting));
      lock_hold_ns_.add(kEvery * (released - acquired));
      // The re-cut's sample. Once the finish retired the last started
      // phase, the environment may be rewriting the plan, so this tail
      // reads no plan table.
      bump(sample.vertices[scratch.first].unit_pairs, 1);
      bump(sample.pairs, 1);
      bump(sample.overhead_ns, pair_ns / kEvery - scratch.member_ns);
    }
    scheduled_pairs_.add(1);
  }
}

ExecStats Engine::stats() const {
  ExecStats stats;
  stats.executed_pairs = executed_pairs_.value();
  stats.scheduled_pairs = scheduled_pairs_.value();
  stats.messages_delivered = messages_delivered_.value();
  stats.sink_records = sink_records_.value();
  stats.compute_ns = compute_ns_.value();
  stats.bookkeeping_ns = bookkeeping_ns_.value();
  stats.hook_ns = hook_ns_.value();
  stats.lock_wait_ns = lock_wait_ns_.value();
  stats.lock_hold_ns = lock_hold_ns_.value();
  stats.wall_seconds = wall_seconds_;
  stats.queue_parks = run_queue_.parks();
  {
    conc::MutexLock lock(mutex_);
    // The re-cut rewrites the plan under mutex_.
    stats.units = unit_bounds_.size() - 1;
    stats.window_waits = window_waits_;
    stats.progress_wakeups = progress_wakeups_;
    stats.lock_waits = mutex_.lock_waits();
    stats.phases_completed = scheduler_.completed_through();
    stats.max_inflight_phases = max_inflight_;
  }
  return stats;
}

}  // namespace df::core
