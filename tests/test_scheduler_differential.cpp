// Differential and allocation tests for the flat scheduler.
//
// Layer 1 — randomized differential test: a ReferenceScheduler written
// straight from the paper's definitions with node-based containers (the
// seed implementation's std::map/std::set algorithm, kept as the executable
// spec) runs side by side with the flat core::Scheduler over random DAGs
// and random phase/execution interleavings. After *every* transition the
// two must produce identical Snapshots, and every transition must issue
// identical ready batches with identical sealed bundles. Shallow seeds keep
// a few phases active; deep-window seeds run 200 phases with 64+ active and
// finish the oldest and newest phases often, so the frontier pass's early
// exit is checked against slots far beyond the ones a transition touched.
// A third, payload-free flat scheduler (the engine's forms) is told only
// the distinct recipients of each finish; its snapshots and issued
// (vertex, phase) sequences must equal the others' after every transition.
// Block-mode seeds signal only a prefix of the sources and inject remote
// input at every phase start, which only the payload-free start takes, so
// there it is diffed against the reference alone.
//
// Layer 2 — zero-allocation steady state: a counting global operator
// new/delete pair measures heap traffic inside scheduler transitions.
// After warm-up (ring, inboxes and scratch buffers at steady-state
// capacity), start_phase/finish_execution through the buffer-reuse API
// must not allocate at all — single-threaded deterministically, and under
// a multi-threaded engine-style lock discipline (allocations counted only
// while the global lock is held).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <new>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "concurrency/blocking_queue.hpp"
#include "core/scheduler.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

// --- allocation counting hook ----------------------------------------------
//
// The replacements stay out of line: GCC otherwise inlines their malloc and
// free into callers' new/delete expressions and reports the pairing as
// -Wmismatched-new-delete.

namespace {
thread_local std::uint64_t g_thread_allocs = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace df::core {
namespace {

using graph::Dag;
using graph::Numbering;

// --- the reference model ----------------------------------------------------

/// The seed implementation's scheduler, node-based containers and all: a
/// direct transcription of Listings 1-2 over std::map/std::set. Kept here
/// as the executable specification the flat scheduler is diffed against.
class ReferenceScheduler {
 public:
  using ReadyPair = Scheduler::ReadyPair;
  using Delivery = Scheduler::Delivery;
  using Snapshot = Scheduler::Snapshot;

  /// Vertices 1..signal_sources receive the phase signal; the rest of
  /// 1..m(0) run only when injected input reaches them (block mode).
  ReferenceScheduler(std::vector<std::uint32_t> m,
                     std::uint32_t signal_sources)
      : m_(std::move(m)), n_(static_cast<std::uint32_t>(m_.size() - 1)),
        signal_sources_(signal_sources) {
    vertices_.resize(n_ + 1);
  }

  /// `injected` enters partial as if a virtual vertex 0 finished before
  /// any pair of the phase; then x, promotion and retirement are
  /// re-evaluated (a no-op unless something was injected or nothing is
  /// signalled).
  std::vector<ReadyPair> start_phase(event::PhaseId p,
                                     std::vector<event::InputBundle> bundles,
                                     std::vector<Delivery> injected = {}) {
    DF_CHECK(p == pmax_ + 1, "phases must start in order");
    DF_CHECK(bundles.size() == signal_sources_,
             "need one bundle per signalled source");
    pmax_ = p;
    PhaseState state;
    state.id = p;
    phases_.push_back(std::move(state));
    PhaseState& ps = phases_.back();
    std::set<std::uint32_t> affected;
    for (std::uint32_t s = 1; s <= signal_sources_; ++s) {
      vertices_[s].full.emplace(p, std::move(bundles[s - 1]));
      ps.pending.insert(s);
      affected.insert(s);
    }
    for (Delivery& d : injected) {
      ps.partial[d.to_index].push_back(
          event::Message{d.to_port, std::move(d.value)});
      ps.pending.insert(d.to_index);
    }
    update_x_from(p);
    promote_newly_full(p, affected);
    retire_completed();
    return collect_ready(affected);
  }

  std::vector<ReadyPair> finish_execution(std::uint32_t vertex,
                                          event::PhaseId p,
                                          std::vector<Delivery> deliveries) {
    VertexState& vs = vertices_[vertex];
    DF_CHECK(vs.in_ready && vs.ready_phase == p, "pair was not issued");
    vs.in_ready = false;
    PhaseState& ps = phase_state(p);
    std::set<std::uint32_t> affected;
    for (Delivery& d : deliveries) {
      ps.partial[d.to_index].push_back(
          event::Message{d.to_port, std::move(d.value)});
      ps.pending.insert(d.to_index);
    }
    ps.pending.erase(vertex);
    update_x_from(p);
    promote_newly_full(p, affected);
    retire_completed();
    affected.insert(vertex);
    return collect_ready(affected);
  }

  Snapshot snapshot() const {
    Snapshot snap;
    snap.pmax = pmax_;
    snap.completed_through = completed_through_;
    for (const PhaseState& ps : phases_) {
      snap.x.emplace_back(ps.id, ps.x);
      for (const auto& [vertex, bundle] : ps.partial) {
        (void)bundle;
        snap.partial.push_back(Snapshot::Pair{vertex, ps.id});
      }
    }
    for (std::uint32_t v = 1; v <= n_; ++v) {
      const VertexState& vs = vertices_[v];
      for (const auto& [phase, bundle] : vs.full) {
        (void)bundle;
        snap.full.push_back(Snapshot::Pair{v, phase});
      }
      if (vs.in_ready) {
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

  bool all_started_phases_complete() const { return phases_.empty(); }
  event::PhaseId completed_through() const { return completed_through_; }

 private:
  struct PhaseState {
    event::PhaseId id = 0;
    std::uint32_t x = 0;
    std::map<std::uint32_t, event::InputBundle> partial;
    std::set<std::uint32_t> pending;
  };
  struct VertexState {
    std::map<event::PhaseId, event::InputBundle> full;
    bool in_ready = false;
    event::PhaseId ready_phase = 0;
  };

  PhaseState& phase_state(event::PhaseId p) {
    return phases_[p - phases_.front().id];
  }

  std::uint32_t x(event::PhaseId p) const {
    if (p == 0 || p <= completed_through_) {
      return n_;
    }
    if (phases_.empty() || p < phases_.front().id ||
        p >= phases_.front().id + phases_.size()) {
      return 0;
    }
    return phases_[p - phases_.front().id].x;
  }

  void update_x_from(event::PhaseId from) {
    const event::PhaseId first = phases_.front().id;
    for (std::size_t i = from - first; i < phases_.size(); ++i) {
      PhaseState& ps = phases_[i];
      std::uint32_t candidate =
          ps.pending.empty() ? n_ : *ps.pending.begin() - 1;
      const std::uint32_t previous = i == 0 ? x(ps.id - 1) : phases_[i - 1].x;
      ps.x = std::min(candidate, previous);
    }
  }

  void promote_newly_full(event::PhaseId from,
                          std::set<std::uint32_t>& affected) {
    const event::PhaseId first = phases_.front().id;
    for (std::size_t i = from >= first ? from - first : 0;
         i < phases_.size(); ++i) {
      PhaseState& ps = phases_[i];
      const std::uint32_t bound = m_[ps.x];
      while (!ps.partial.empty() && ps.partial.begin()->first <= bound) {
        auto node = ps.partial.extract(ps.partial.begin());
        vertices_[node.key()].full.emplace(ps.id, std::move(node.mapped()));
        affected.insert(node.key());
      }
    }
  }

  std::vector<ReadyPair> collect_ready(
      const std::set<std::uint32_t>& affected) {
    std::vector<ReadyPair> ready;
    for (const std::uint32_t v : affected) {
      VertexState& vs = vertices_[v];
      if (vs.in_ready || vs.full.empty()) {
        continue;
      }
      auto node = vs.full.extract(vs.full.begin());
      vs.in_ready = true;
      vs.ready_phase = node.key();
      ready.push_back(ReadyPair{v, node.key(), std::move(node.mapped())});
    }
    return ready;
  }

  void retire_completed() {
    while (!phases_.empty() && phases_.front().x == n_) {
      completed_through_ = phases_.front().id;
      phases_.pop_front();
    }
  }

  std::vector<std::uint32_t> m_;
  std::uint32_t n_;
  std::uint32_t signal_sources_;
  event::PhaseId pmax_ = 0;
  event::PhaseId completed_through_ = 0;
  std::deque<PhaseState> phases_;
  std::vector<VertexState> vertices_;
};

std::vector<std::vector<std::uint32_t>> internal_successors(
    const Dag& dag, const Numbering& numbering) {
  std::vector<std::vector<std::uint32_t>> succs(dag.vertex_count() + 1);
  for (const graph::Edge& e : dag.edges()) {
    succs[numbering.index_of[e.from]].push_back(numbering.index_of[e.to]);
  }
  return succs;
}

/// Vector-returning convenience over the flat buffer-reuse API (the
/// seed-compat wrappers no production code used are gone from Scheduler).
std::vector<Scheduler::ReadyPair> start_phase_vec(
    Scheduler& scheduler, event::PhaseId p,
    std::vector<event::InputBundle> bundles) {
  std::vector<Scheduler::ReadyPair> out;
  scheduler.start_phase(p, std::span<event::InputBundle>(bundles), out);
  return out;
}

/// The distinct recipients of `deliveries`: what a payload-free transition
/// is told.
std::vector<std::uint32_t> recipients_of(
    const std::vector<Scheduler::Delivery>& deliveries) {
  std::vector<std::uint32_t> recipients;
  for (const Scheduler::Delivery& d : deliveries) {
    recipients.push_back(d.to_index);
  }
  std::sort(recipients.begin(), recipients.end());
  recipients.erase(std::unique(recipients.begin(), recipients.end()),
                   recipients.end());
  return recipients;
}

/// Same issued (vertex, phase) sequence; the payload-free side carries no
/// messages, so bundles are not compared.
void expect_same_issue_order(const std::vector<Scheduler::ReadyPair>& lean,
                             const std::vector<Scheduler::ReadyPair>& ref) {
  ASSERT_EQ(lean.size(), ref.size());
  for (std::size_t i = 0; i < lean.size(); ++i) {
    EXPECT_EQ(lean[i].vertex, ref[i].vertex);
    EXPECT_EQ(lean[i].phase, ref[i].phase);
  }
}

void expect_same_ready(const std::vector<Scheduler::ReadyPair>& flat,
                       const std::vector<Scheduler::ReadyPair>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  // Both implementations issue in ascending vertex order.
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].vertex, ref[i].vertex);
    EXPECT_EQ(flat[i].phase, ref[i].phase);
    EXPECT_EQ(flat[i].bundle, ref[i].bundle) << "bundle mismatch at vertex "
                                             << flat[i].vertex;
  }
}

// --- layer 1: randomized differential --------------------------------------

/// Shape of one randomized differential run. A shallow run starts phases
/// with a fixed probability, so only a few are ever active. A deep run keeps
/// starting phases until `deep_active` are in flight and picks the oldest or
/// newest issued pair as often as a random one, so finishes span the whole
/// window: the frontier pass's early exit then meets many active slots
/// beyond the ones a transition touched.
struct DiffShape {
  std::uint32_t min_vertices;
  std::uint32_t vertex_spread;  // vertices = min_vertices + seed % spread
  event::PhaseId phases;
  std::size_t deep_active;  // 0 = shallow
  /// Signal a random prefix of the sources and inject remote input into
  /// random non-signalled vertices at every phase start.
  bool block_mode = false;
};

/// Index into `issued` of the next pair to execute: uniformly random for a
/// shallow run; for a deep run the oldest-phase, newest-phase or a random
/// pair with equal odds.
template <typename Issued>
std::size_t pick_issued(const std::vector<Issued>& issued,
                        const DiffShape& shape, support::Rng& rng) {
  const auto random_pick = [&] {
    return static_cast<std::size_t>(rng.next_below(issued.size()));
  };
  if (shape.deep_active == 0) {
    return random_pick();
  }
  const auto by_phase = [](const Issued& a, const Issued& b) {
    return a.phase < b.phase;
  };
  const double roll = rng.next_double();
  if (roll < 1.0 / 3.0) {
    return static_cast<std::size_t>(
        std::min_element(issued.begin(), issued.end(), by_phase) -
        issued.begin());
  }
  if (roll < 2.0 / 3.0) {
    return static_cast<std::size_t>(
        std::max_element(issued.begin(), issued.end(), by_phase) -
        issued.begin());
  }
  return random_pick();
}

/// Deep runs start a phase far more often while the window is below its
/// target depth, and rarely once it is there.
double start_probability(const DiffShape& shape, double shallow,
                         std::size_t active) {
  if (shape.deep_active == 0) {
    return shallow;
  }
  return active < shape.deep_active ? 0.9 : 0.15;
}

/// Random source bundles for one phase, identical for both schedulers.
void random_bundles(std::uint32_t sources, support::Rng& rng,
                    std::vector<event::InputBundle>& bundles,
                    std::vector<event::InputBundle>& bundles_copy) {
  bundles.assign(sources, event::InputBundle{});
  bundles_copy.assign(sources, event::InputBundle{});
  for (std::uint32_t s = 0; s < sources; ++s) {
    if (rng.next_bernoulli(0.5)) {
      const double payload = rng.next_normal();
      bundles[s].push_back(event::Message{0, event::Value(payload)});
      bundles_copy[s].push_back(event::Message{0, event::Value(payload)});
    }
  }
}

/// Per-pair differential: every finish goes through the payload form of
/// finish_execution on the flat side, the payload-free form on the lean
/// side and the reference's own; after *every* transition the snapshots
/// and issued ready batches must match. In block mode only the lean side
/// and the reference run (the payload start takes no injection).
void run_per_pair_differential(std::uint64_t seed, const DiffShape& shape) {
  support::Rng rng(seed);

  const Dag dag = graph::random_dag(
      shape.min_vertices +
          static_cast<std::uint32_t>(seed % shape.vertex_spread),
      0.3, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);
  const std::uint32_t n = numbering.size();
  const std::uint32_t signalled =
      shape.block_mode
          ? static_cast<std::uint32_t>(rng.next_below(numbering.m[0] + 1))
          : numbering.m[0];

  Scheduler flat(numbering.m);
  Scheduler lean(numbering.m, signalled);
  ReferenceScheduler reference(numbering.m, signalled);

  struct Issued {
    std::uint32_t vertex;
    event::PhaseId phase;
    event::InputBundle bundle;  // carried so finish can recycle it
  };
  std::vector<Issued> issued;
  event::PhaseId started = 0;
  std::size_t deepest = 0;

  const auto absorb = [&](std::vector<Scheduler::ReadyPair> flat_ready,
                          const std::vector<Scheduler::ReadyPair>& lean_ready,
                          std::vector<Scheduler::ReadyPair> ref_ready) {
    expect_same_issue_order(lean_ready, ref_ready);
    if (shape.block_mode) {
      flat_ready = std::move(ref_ready);  // the pairs to run next
    } else {
      expect_same_ready(flat_ready, ref_ready);
    }
    for (auto& pair : flat_ready) {
      issued.push_back(
          Issued{pair.vertex, pair.phase, std::move(pair.bundle)});
    }
  };

  std::vector<event::InputBundle> bundles;
  std::vector<event::InputBundle> bundles_copy;
  while (started < shape.phases || !issued.empty()) {
    const bool start_now =
        started < shape.phases &&
        (issued.empty() ||
         rng.next_bernoulli(
             start_probability(shape, 0.35, lean.active_phase_count())));
    if (start_now) {
      ++started;
      random_bundles(signalled, rng, bundles, bundles_copy);
      std::vector<event::InputBundle> lean_bundles = bundles_copy;
      std::vector<Scheduler::Delivery> injected;
      for (std::uint32_t v = signalled + 1;
           shape.block_mode && v <= n; ++v) {
        if (rng.next_bernoulli(0.3)) {
          injected.push_back(
              Scheduler::Delivery{v, 0, event::Value(rng.next_normal())});
        }
      }
      const std::vector<std::uint32_t> injected_to = recipients_of(injected);
      std::vector<Scheduler::ReadyPair> lean_ready;
      lean.start_phase(started, std::span<event::InputBundle>(lean_bundles),
                       std::span<const std::uint32_t>(injected_to),
                       lean_ready);
      absorb(shape.block_mode ? std::vector<Scheduler::ReadyPair>{}
                              : start_phase_vec(flat, started,
                                                std::move(bundles)),
             lean_ready,
             reference.start_phase(started, std::move(bundles_copy),
                                   std::move(injected)));
    } else {
      const std::size_t pick = pick_issued(issued, shape, rng);
      Issued pair = std::move(issued[pick]);
      issued.erase(issued.begin() + static_cast<std::ptrdiff_t>(pick));

      std::vector<Scheduler::Delivery> deliveries;
      std::vector<Scheduler::Delivery> deliveries_copy;
      for (const std::uint32_t w : succs[pair.vertex]) {
        if (rng.next_bernoulli(0.6)) {
          const double payload = rng.next_normal();
          deliveries.push_back(
              Scheduler::Delivery{w, 0, event::Value(payload)});
          deliveries_copy.push_back(
              Scheduler::Delivery{w, 0, event::Value(payload)});
        }
      }
      // Flat side goes through the buffer-reuse API with bundle recycling,
      // lean side through the payload-free form, reference side through
      // the plain vector API.
      const std::vector<std::uint32_t> recipients = recipients_of(deliveries);
      std::vector<Scheduler::ReadyPair> lean_ready;
      lean.finish_execution(pair.vertex, pair.phase,
                            std::span<const std::uint32_t>(recipients), {},
                            lean_ready);
      std::vector<Scheduler::ReadyPair> flat_ready;
      if (!shape.block_mode) {
        flat.finish_execution(pair.vertex, pair.phase,
                              std::span<Scheduler::Delivery>(deliveries),
                              std::move(pair.bundle), flat_ready);
      }
      absorb(std::move(flat_ready), lean_ready,
             reference.finish_execution(pair.vertex, pair.phase,
                                        std::move(deliveries_copy)));
    }
    deepest = std::max(deepest, lean.active_phase_count());
    ASSERT_EQ(lean.snapshot(), reference.snapshot())
        << "payload-free snapshot divergence (seed " << seed << ")";
    if (!shape.block_mode) {
      ASSERT_EQ(flat.snapshot(), reference.snapshot())
          << "snapshot divergence (seed " << seed << ")";
    }
  }

  EXPECT_TRUE(lean.all_started_phases_complete());
  EXPECT_TRUE(reference.all_started_phases_complete());
  EXPECT_EQ(lean.completed_through(), shape.phases);
  EXPECT_EQ(reference.completed_through(), shape.phases);
  if (!shape.block_mode) {
    EXPECT_TRUE(flat.all_started_phases_complete());
    EXPECT_EQ(flat.completed_through(), shape.phases);
  }
  EXPECT_GE(deepest, shape.deep_active) << "the window never got deep";
}

class FlatVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatVsReference, IdenticalSnapshotsAfterEveryTransition) {
  run_per_pair_differential(GetParam(), DiffShape{5, 27, 10, 0});
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsReference,
                         ::testing::Range<std::uint64_t>(0, 25));

class FlatVsReferenceDeepWindow
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatVsReferenceDeepWindow, IdenticalSnapshotsAfterEveryTransition) {
  run_per_pair_differential(GetParam(), DiffShape{5, 12, 200, 64});
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsReferenceDeepWindow,
                         ::testing::Range<std::uint64_t>(0, 8));

class PayloadFreeBlockMode : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PayloadFreeBlockMode, IdenticalSnapshotsAfterEveryTransition) {
  run_per_pair_differential(GetParam(), DiffShape{5, 27, 10, 0, true});
}

TEST_P(PayloadFreeBlockMode, DeepWindowIdenticalSnapshots) {
  run_per_pair_differential(GetParam(), DiffShape{5, 12, 200, 64, true});
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadFreeBlockMode,
                         ::testing::Range<std::uint64_t>(0, 16));

// --- layer 2: zero-allocation steady state ----------------------------------

/// Drives one scheduler like the engine does (window of in-flight phases,
/// all vertices forward to all successors) and returns the number of heap
/// allocations performed inside scheduler transitions after `warmup_phases`.
/// With `event_sources`, every source bundle carries a message, so
/// capacity-carrying bundles are swapped in at every phase start.
struct SteadyStats {
  std::uint64_t allocs = 0;  // inside transitions, post warm-up
  std::uint64_t steady_transitions = 0;
};

SteadyStats measure_steady_allocs(const Dag& dag, event::PhaseId phases,
                                  event::PhaseId warmup_phases,
                                  std::size_t window,
                                  bool event_sources = false) {
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);

  Scheduler scheduler(numbering.m);
  std::vector<event::InputBundle> bundles;
  std::vector<Scheduler::ReadyPair> queue;
  std::vector<Scheduler::ReadyPair> ready;
  std::vector<Scheduler::Delivery> deliveries;
  event::PhaseId next_phase = 1;
  SteadyStats stats;

  while (next_phase <= phases || !queue.empty()) {
    const bool in_steady = next_phase > warmup_phases;
    if (next_phase <= phases &&
        (queue.empty() || scheduler.active_phase_count() < window)) {
      bundles.clear();
      bundles.resize(numbering.m[0]);
      if (event_sources) {
        for (auto& bundle : bundles) {
          bundle.push_back(event::Message{0, event::Value(2.5)});
        }
      }
      ready.clear();
      const std::uint64_t before = g_thread_allocs;
      scheduler.start_phase(next_phase,
                            std::span<event::InputBundle>(bundles), ready);
      if (in_steady) {
        stats.allocs += g_thread_allocs - before;
        ++stats.steady_transitions;
      }
      ++next_phase;
    } else {
      Scheduler::ReadyPair pair = std::move(queue.back());
      queue.pop_back();
      deliveries.clear();
      for (const std::uint32_t w : succs[pair.vertex]) {
        deliveries.push_back(Scheduler::Delivery{w, 0, event::Value(1.0)});
      }
      ready.clear();
      const std::uint64_t before = g_thread_allocs;
      scheduler.finish_execution(pair.vertex, pair.phase,
                                 std::span<Scheduler::Delivery>(deliveries),
                                 std::move(pair.bundle), ready);
      if (in_steady) {
        stats.allocs += g_thread_allocs - before;
        ++stats.steady_transitions;
      }
    }
    for (auto& r : ready) {
      queue.push_back(std::move(r));
    }
    ready.clear();
  }
  EXPECT_TRUE(scheduler.all_started_phases_complete());
  EXPECT_EQ(scheduler.completed_through(), phases);
  return stats;
}

TEST(ZeroAllocation, SteadyStateTransitionsDoNotAllocate) {
  support::Rng rng(42);
  const SteadyStats stats = measure_steady_allocs(
      graph::layered(4, 6, 2, rng), /*phases=*/60, /*warmup_phases=*/20,
      /*window=*/4);
  EXPECT_EQ(stats.allocs, 0U)
      << "scheduler transitions allocated after warm-up";
}

TEST(ZeroAllocation, FanInWithEventBundlesStaysBounded) {
  // Many event-carrying sources funneling into one sink: every phase start
  // brings capacity-carrying source bundles, and every fan-in vertex
  // collects two messages. Each vertex's inbox in each phase slot keeps
  // the capacity its executed bundle hands back, so once every slot has
  // been used no transition allocates.
  const SteadyStats stats = measure_steady_allocs(
      graph::binary_in_tree(4), /*phases=*/600, /*warmup_phases=*/200,
      /*window=*/4, /*event_sources=*/true);
  EXPECT_GT(stats.steady_transitions, 0U);
  EXPECT_EQ(stats.allocs, 0U)
      << "scheduler transitions allocated after warm-up";
}

TEST(ZeroAllocation, MultiThreadStressStaysAllocationFreeUnderLock) {
  support::Rng rng(7);
  const Dag dag = graph::layered(4, 4, 2, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);
  const auto n = static_cast<std::uint64_t>(dag.vertex_count());

  const event::PhaseId phases = 400;
  const std::size_t window = 8;
  const std::size_t num_threads = 4;
  // Every vertex forwards every phase, so the expected pair count is exact.
  const std::uint64_t expected_pairs = n * phases;

  Scheduler scheduler(numbering.m);
  // Pre-size everything to its hard bound: with that in place the locked
  // path must not allocate even once past warm-up, regardless of thread
  // interleaving.
  scheduler.reserve_steady_state(window);
  std::mutex mutex;  // the engine's global lock, reproduced here
  std::condition_variable window_cv;
  conc::BlockingQueue<Scheduler::ReadyPair> run_queue;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> locked_steady_allocs{0};
  const std::uint64_t steady_after = expected_pairs / 2;

  const auto worker = [&] {
    std::vector<Scheduler::Delivery> deliveries;
    std::vector<Scheduler::ReadyPair> ready;
    deliveries.reserve(dag.vertex_count());
    ready.reserve(dag.vertex_count() + 1);
    while (auto item = run_queue.pop()) {
      deliveries.clear();
      for (const std::uint32_t w : succs[item->vertex]) {
        deliveries.push_back(Scheduler::Delivery{w, 0, event::Value(1.0)});
      }
      ready.clear();
      const bool steady = executed.load(std::memory_order_relaxed) >
                          steady_after;
      {
        std::lock_guard lock(mutex);
        const std::uint64_t before = g_thread_allocs;
        scheduler.finish_execution(
            item->vertex, item->phase,
            std::span<Scheduler::Delivery>(deliveries),
            std::move(item->bundle), ready);
        if (steady) {
          locked_steady_allocs.fetch_add(g_thread_allocs - before,
                                         std::memory_order_relaxed);
        }
      }
      window_cv.notify_all();
      if (!ready.empty()) {
        run_queue.push_all(ready);
      }
      if (executed.fetch_add(1, std::memory_order_relaxed) + 1 ==
          expected_pairs) {
        run_queue.close();
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads.emplace_back(worker);
  }

  // Environment: start phases while holding the window bound, like
  // Engine::start_phase.
  std::vector<event::InputBundle> bundles;
  std::vector<Scheduler::ReadyPair> ready;
  for (event::PhaseId p = 1; p <= phases; ++p) {
    bundles.clear();
    bundles.resize(numbering.m[0]);
    ready.clear();
    {
      std::unique_lock lock(mutex);
      window_cv.wait(lock, [&] {
        return scheduler.active_phase_count() < window;
      });
      scheduler.start_phase(p, std::span<event::InputBundle>(bundles),
                            ready);
    }
    if (!ready.empty()) {
      run_queue.push_all(ready);
    }
  }

  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(executed.load(), expected_pairs);
  {
    std::lock_guard lock(mutex);
    EXPECT_TRUE(scheduler.all_started_phases_complete());
    EXPECT_EQ(scheduler.completed_through(), phases);
  }
  EXPECT_EQ(locked_steady_allocs.load(), 0U)
      << "allocations under the global lock after warm-up";
}

}  // namespace
}  // namespace df::core
