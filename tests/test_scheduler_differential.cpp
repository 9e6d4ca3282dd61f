// Differential and allocation tests for the flat scheduler.
//
// Layer 1 — randomized differential test: a ReferenceScheduler written
// straight from the paper's definitions with node-based containers (the
// seed implementation's std::map/std::set algorithm, kept as the executable
// spec) runs side by side with the flat core::Scheduler over random DAGs
// and random phase/execution interleavings. After *every* transition the
// two must produce identical Snapshots, and every transition must issue
// identical ready batches with identical sealed bundles.
//
// Layer 2 — zero-allocation steady state: a counting global operator
// new/delete pair measures heap traffic inside scheduler transitions.
// After warm-up (pool, ring, and scratch buffers at steady-state
// capacity), start_phase/finish_execution through the buffer-reuse API
// must not allocate at all — single-threaded deterministically, and under
// a multi-threaded engine-style lock discipline (allocations counted only
// while the global lock is held).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "concurrency/blocking_queue.hpp"
#include "concurrency/spsc_ring.hpp"
#include "core/scheduler.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

// --- allocation counting hook ----------------------------------------------

namespace {
thread_local std::uint64_t g_thread_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
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

  explicit ReferenceScheduler(std::vector<std::uint32_t> m)
      : m_(std::move(m)), n_(static_cast<std::uint32_t>(m_.size() - 1)) {
    vertices_.resize(n_ + 1);
  }

  std::vector<ReadyPair> start_phase(event::PhaseId p,
                                     std::vector<event::InputBundle> bundles) {
    DF_CHECK(p == pmax_ + 1, "phases must start in order");
    DF_CHECK(bundles.size() == m_[0], "need one bundle per source vertex");
    pmax_ = p;
    PhaseState state;
    state.id = p;
    phases_.push_back(std::move(state));
    PhaseState& ps = phases_.back();
    std::set<std::uint32_t> affected;
    for (std::uint32_t s = 1; s <= m_[0]; ++s) {
      vertices_[s].full.emplace(p, std::move(bundles[s - 1]));
      ps.pending.insert(s);
      affected.insert(s);
    }
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

class FlatVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatVsReference, IdenticalSnapshotsAfterEveryTransition) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);

  const Dag dag = graph::random_dag(
      5 + static_cast<std::uint32_t>(seed % 27), 0.3, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);

  Scheduler flat(numbering.m);
  ReferenceScheduler reference(numbering.m);

  struct Issued {
    std::uint32_t vertex;
    event::PhaseId phase;
    event::InputBundle bundle;  // carried so finish can recycle it
  };
  std::vector<Issued> issued;
  const event::PhaseId total_phases = 10;
  event::PhaseId started = 0;

  const auto absorb = [&](std::vector<Scheduler::ReadyPair> flat_ready,
                          std::vector<Scheduler::ReadyPair> ref_ready) {
    expect_same_ready(flat_ready, ref_ready);
    for (auto& pair : flat_ready) {
      issued.push_back(
          Issued{pair.vertex, pair.phase, std::move(pair.bundle)});
    }
  };

  while (started < total_phases || !issued.empty()) {
    const bool start_now = started < total_phases &&
                           (issued.empty() || rng.next_bernoulli(0.35));
    if (start_now) {
      ++started;
      // Random payload per source, identical for both schedulers.
      std::vector<event::InputBundle> bundles(numbering.m[0]);
      std::vector<event::InputBundle> bundles_copy(numbering.m[0]);
      for (std::uint32_t s = 0; s < numbering.m[0]; ++s) {
        if (rng.next_bernoulli(0.5)) {
          const double payload = rng.next_normal();
          bundles[s].push_back(event::Message{0, event::Value(payload)});
          bundles_copy[s].push_back(event::Message{0, event::Value(payload)});
        }
      }
      absorb(start_phase_vec(flat, started, std::move(bundles)),
             reference.start_phase(started, std::move(bundles_copy)));
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.next_below(issued.size()));
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
      // Flat side goes through the buffer-reuse API with bundle recycling;
      // reference side through the plain vector API.
      std::vector<Scheduler::ReadyPair> flat_ready;
      flat.finish_execution(pair.vertex, pair.phase,
                            std::span<Scheduler::Delivery>(deliveries),
                            std::move(pair.bundle), flat_ready);
      absorb(std::move(flat_ready),
             reference.finish_execution(pair.vertex, pair.phase,
                                        std::move(deliveries_copy)));
    }
    EXPECT_EQ(flat.snapshot(), reference.snapshot())
        << "snapshot divergence (seed " << seed << ")";
  }

  EXPECT_TRUE(flat.all_started_phases_complete());
  EXPECT_TRUE(reference.all_started_phases_complete());
  EXPECT_EQ(flat.completed_through(), total_phases);
  EXPECT_EQ(reference.completed_through(), total_phases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsReference,
                         ::testing::Range<std::uint64_t>(0, 25));

// --- layer 1b: staged-delivery differential ---------------------------------
//
// Drives the batched path the engine's delivery rings use: executed pairs
// are staged into a few simulated per-worker FIFOs and applied in random
// drain batches through finish_execution_batch, while the node-based
// reference applies the same finishes one at a time in drain order. After
// every drain the snapshots must match exactly and the issued ready sets
// (including sealed bundle contents) must be identical — the batched
// frontier may lag only *inside* the call, never across it.

class FlatVsReferenceStaged : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FlatVsReferenceStaged, BatchedDrainsMatchPerPairReference) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);

  const Dag dag = graph::random_dag(
      6 + static_cast<std::uint32_t>(seed % 23), 0.3, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);

  Scheduler flat(numbering.m);
  ReferenceScheduler reference(numbering.m);

  constexpr std::size_t kRings = 3;  // simulated workers
  struct Issued {
    std::uint32_t vertex;
    event::PhaseId phase;
    event::InputBundle bundle;
  };
  std::vector<Issued> issued;
  // Per-"worker" staging FIFOs: flat-side entry plus the reference-side
  // copy of the same finish, kept in lockstep.
  std::array<std::deque<Scheduler::StagedFinish>, kRings> rings;
  std::array<std::deque<Scheduler::StagedFinish>, kRings> rings_ref;
  std::size_t staged_count = 0;
  const event::PhaseId total_phases = 12;
  event::PhaseId started = 0;

  const auto absorb = [&](std::vector<Scheduler::ReadyPair>& flat_ready,
                          std::vector<Scheduler::ReadyPair>& ref_ready) {
    expect_same_ready(flat_ready, ref_ready);
    for (auto& pair : flat_ready) {
      issued.push_back(
          Issued{pair.vertex, pair.phase, std::move(pair.bundle)});
    }
    flat_ready.clear();
    ref_ready.clear();
  };

  std::vector<Scheduler::ReadyPair> flat_ready;
  std::vector<Scheduler::ReadyPair> ref_ready;
  std::vector<Scheduler::StagedFinish> batch;

  const auto drain = [&](std::size_t limit_per_ring) {
    // Pop a prefix of every ring (respecting each worker's FIFO order,
    // like SpscRing::drain) into one batch, apply it to the flat scheduler
    // in a single call and to the reference pair-by-pair in drain order.
    batch.clear();
    for (std::size_t r = 0; r < kRings; ++r) {
      const std::size_t take = std::min(limit_per_ring, rings[r].size());
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(rings[r].front()));
        rings[r].pop_front();
      }
    }
    for (const Scheduler::StagedFinish& staged : batch) {
      // Reference applies the identical finish sequence, one at a time.
      std::size_t r = 0;
      for (; r < kRings; ++r) {
        if (!rings_ref[r].empty() &&
            rings_ref[r].front().vertex == staged.vertex &&
            rings_ref[r].front().phase == staged.phase) {
          break;
        }
      }
      ASSERT_LT(r, kRings) << "reference ring desynchronized";
      Scheduler::StagedFinish ref_staged = std::move(rings_ref[r].front());
      rings_ref[r].pop_front();
      auto ready = reference.finish_execution(
          ref_staged.vertex, ref_staged.phase,
          std::move(ref_staged.deliveries));
      for (auto& pair : ready) {
        ref_ready.push_back(std::move(pair));
      }
    }
    staged_count -= batch.size();
    flat.finish_execution_batch(std::span<Scheduler::StagedFinish>(batch),
                                flat_ready);
    // Both sides issue in ascending vertex order per collect, but the
    // reference collects once per finish; canonicalize before comparing.
    const auto by_vertex = [](const Scheduler::ReadyPair& a,
                              const Scheduler::ReadyPair& b) {
      return a.vertex != b.vertex ? a.vertex < b.vertex : a.phase < b.phase;
    };
    std::sort(flat_ready.begin(), flat_ready.end(), by_vertex);
    std::sort(ref_ready.begin(), ref_ready.end(), by_vertex);
    absorb(flat_ready, ref_ready);
    EXPECT_EQ(flat.snapshot(), reference.snapshot())
        << "snapshot divergence after drain (seed " << seed << ")";
  };

  while (started < total_phases || !issued.empty() || staged_count > 0) {
    const double roll = rng.next_double();
    if (started < total_phases &&
        (roll < 0.25 || (issued.empty() && staged_count == 0))) {
      // Start a phase (goes through the lock directly, as in the engine).
      ++started;
      std::vector<event::InputBundle> bundles(numbering.m[0]);
      std::vector<event::InputBundle> bundles_copy(numbering.m[0]);
      for (std::uint32_t s = 0; s < numbering.m[0]; ++s) {
        if (rng.next_bernoulli(0.5)) {
          const double payload = rng.next_normal();
          bundles[s].push_back(event::Message{0, event::Value(payload)});
          bundles_copy[s].push_back(event::Message{0, event::Value(payload)});
        }
      }
      auto fr = start_phase_vec(flat, started, std::move(bundles));
      auto rr = reference.start_phase(started, std::move(bundles_copy));
      absorb(fr, rr);
      EXPECT_EQ(flat.snapshot(), reference.snapshot());
    } else if (!issued.empty() && (roll < 0.75 || staged_count == 0)) {
      // "Execute" a random issued pair and stage the finish.
      const std::size_t pick =
          static_cast<std::size_t>(rng.next_below(issued.size()));
      Issued pair = std::move(issued[pick]);
      issued.erase(issued.begin() + static_cast<std::ptrdiff_t>(pick));
      Scheduler::StagedFinish staged;
      Scheduler::StagedFinish staged_ref;
      staged.vertex = staged_ref.vertex = pair.vertex;
      staged.phase = staged_ref.phase = pair.phase;
      for (const std::uint32_t w : succs[pair.vertex]) {
        if (rng.next_bernoulli(0.6)) {
          const double payload = rng.next_normal();
          staged.deliveries.push_back(
              Scheduler::Delivery{w, 0, event::Value(payload)});
          staged_ref.deliveries.push_back(
              Scheduler::Delivery{w, 0, event::Value(payload)});
        }
      }
      staged.recycled = std::move(pair.bundle);
      const std::size_t r = static_cast<std::size_t>(rng.next_below(kRings));
      rings[r].push_back(std::move(staged));
      rings_ref[r].push_back(std::move(staged_ref));
      ++staged_count;
    } else {
      // Drain: sometimes everything visible, sometimes partial prefixes.
      drain(rng.next_bernoulli(0.5)
                ? std::numeric_limits<std::size_t>::max()
                : 1 + static_cast<std::size_t>(rng.next_below(3)));
    }
  }

  EXPECT_TRUE(flat.all_started_phases_complete());
  EXPECT_TRUE(reference.all_started_phases_complete());
  EXPECT_EQ(flat.completed_through(), total_phases);
  EXPECT_EQ(reference.completed_through(), total_phases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsReferenceStaged,
                         ::testing::Range<std::uint64_t>(0, 25));

// --- layer 2: zero-allocation steady state ----------------------------------

/// Drives one scheduler like the engine does (window of in-flight phases,
/// all vertices forward to all successors) and returns the number of heap
/// allocations performed inside scheduler transitions after `warmup_phases`.
/// With `event_sources`, every source bundle carries a message (exercising
/// capacity-carrying adoption, the fan-in pool-recycling path).
struct SteadyStats {
  std::uint64_t allocs = 0;             // inside transitions, post warm-up
  std::size_t pool_slots_at_warmup = 0;
  std::size_t pool_slots_final = 0;
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
    if (in_steady && stats.pool_slots_at_warmup == 0) {
      stats.pool_slots_at_warmup = scheduler.bundle_pool_slots();
    }
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
  stats.pool_slots_final = scheduler.bundle_pool_slots();
  return stats;
}

TEST(ZeroAllocation, SteadyStateTransitionsDoNotAllocate) {
  support::Rng rng(42);
  const SteadyStats stats = measure_steady_allocs(
      graph::layered(4, 6, 2, rng), /*phases=*/60, /*warmup_phases=*/20,
      /*window=*/4);
  EXPECT_EQ(stats.allocs, 0U)
      << "scheduler transitions allocated after warm-up";
  EXPECT_EQ(stats.pool_slots_final, stats.pool_slots_at_warmup)
      << "bundle pool kept growing after warm-up";
}

TEST(ZeroAllocation, FanInWithEventBundlesStaysBounded) {
  // Many event-carrying sources funneling into one sink: adoptions of
  // capacity-carrying bundles outpace acquisitions, the scenario where a
  // pool that grew a slot whenever donations found no spare room would
  // leak slots at a constant rate forever. The pool footprint must be
  // exactly flat after warm-up. Heap traffic is not zero here — bundles
  // of different sizes (1-message source bundles, 2-message fan-in
  // bundles) share the pool, so a reused buffer may regrow once — but it
  // is bounded per transition, not cumulative.
  const SteadyStats stats = measure_steady_allocs(
      graph::binary_in_tree(4), /*phases=*/600, /*warmup_phases=*/200,
      /*window=*/4, /*event_sources=*/true);
  EXPECT_EQ(stats.pool_slots_final, stats.pool_slots_at_warmup)
      << "bundle pool kept growing after warm-up (slot leak)";
  EXPECT_LE(stats.allocs, stats.steady_transitions)
      << "more than one (re)allocation per transition: capacity churn "
         "is compounding instead of bounded";
}

TEST(ZeroAllocation, StagedBatchApplicationDoesNotAllocateUnderLock) {
  // The engine's drain path: staged finishes accumulate outside the lock
  // and finish_execution_batch applies them in one critical section. Only
  // the batched call is measured — batch assembly is off-lock by design.
  support::Rng rng(11);
  const Dag dag = graph::layered(4, 6, 2, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);

  Scheduler scheduler(numbering.m);
  const std::size_t window = 4;
  scheduler.reserve_steady_state(window,
                                 window * (dag.vertex_count() + 1));
  std::vector<event::InputBundle> bundles;
  std::vector<Scheduler::ReadyPair> queue;
  std::vector<Scheduler::ReadyPair> ready;
  std::vector<Scheduler::StagedFinish> batch;
  const event::PhaseId phases = 80;
  const event::PhaseId warmup = 30;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_batches = 0;
  event::PhaseId next_phase = 1;

  while (next_phase <= phases || !queue.empty()) {
    if (next_phase <= phases &&
        (queue.empty() || scheduler.active_phase_count() < window)) {
      bundles.clear();
      bundles.resize(numbering.m[0]);
      ready.clear();
      scheduler.start_phase(next_phase,
                            std::span<event::InputBundle>(bundles), ready);
      ++next_phase;
    } else {
      // Stage every currently-issued pair, then drain them as one batch.
      batch.clear();
      for (auto& pair : queue) {
        Scheduler::StagedFinish staged;
        staged.vertex = pair.vertex;
        staged.phase = pair.phase;
        for (const std::uint32_t w : succs[pair.vertex]) {
          staged.deliveries.push_back(
              Scheduler::Delivery{w, 0, event::Value(1.0)});
        }
        staged.recycled = std::move(pair.bundle);
        batch.push_back(std::move(staged));
      }
      queue.clear();
      ready.clear();
      const bool steady = next_phase > warmup;
      const std::uint64_t before = g_thread_allocs;
      scheduler.finish_execution_batch(
          std::span<Scheduler::StagedFinish>(batch), ready);
      if (steady) {
        steady_allocs += g_thread_allocs - before;
        ++steady_batches;
      }
    }
    for (auto& r : ready) {
      queue.push_back(std::move(r));
    }
    ready.clear();
  }
  EXPECT_TRUE(scheduler.all_started_phases_complete());
  EXPECT_EQ(scheduler.completed_through(), phases);
  EXPECT_GT(steady_batches, 0U);
  EXPECT_EQ(steady_allocs, 0U)
      << "batched applications allocated after warm-up";
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
  scheduler.reserve_steady_state(window, n * window);
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

// --- layer 3: multi-worker staged rings (run under TSan in CI) --------------
//
// The engine's staged-delivery drain protocol at scheduler level (the
// eager-drain variant: every stage volunteers, threshold 1): workers
// execute pairs from a shared run queue, stage finishes into their own
// SPSC rings, and whoever wins the `draining` flag applies batches under
// the lock. Exercises the producer/consumer handoff, the increment-before-
// push accounting, and the post-release re-check against stranded entries.
// Correctness signal: exactly the expected number of pairs is executed and
// every phase completes (a stranded staged entry deadlocks the run).
TEST(StagedRings, MultiWorkerDrainProtocolCompletesEveryPhase) {
  support::Rng rng(13);
  const Dag dag = graph::layered(4, 4, 2, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);
  const auto n = static_cast<std::uint64_t>(dag.vertex_count());

  const event::PhaseId phases = 300;
  const std::size_t window = 8;
  const std::size_t num_threads = 4;
  const std::uint64_t expected_pairs = n * phases;

  Scheduler scheduler(numbering.m);
  scheduler.reserve_steady_state(window, n * window);
  std::mutex mutex;
  std::condition_variable window_cv;
  conc::BlockingQueue<Scheduler::ReadyPair> run_queue;
  std::vector<std::unique_ptr<conc::SpscRing<Scheduler::StagedFinish>>>
      rings;
  for (std::size_t i = 0; i < num_threads; ++i) {
    rings.push_back(
        std::make_unique<conc::SpscRing<Scheduler::StagedFinish>>(64));
  }
  std::atomic<std::size_t> staged_pending{0};
  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> executed{0};

  std::vector<Scheduler::StagedFinish> drain_batch;
  std::vector<Scheduler::ReadyPair> drain_ready;  // guarded by `draining`

  const auto drain_once = [&]() -> std::size_t {
    drain_batch.clear();
    for (auto& ring : rings) {
      // Winning the draining exchange was the consumer handoff; announce
      // it to the debug-only SPSC owner check (as Engine::drain_staged
      // does).
      ring->adopt_consumer();
      ring->drain([&](Scheduler::StagedFinish&& staged) {
        drain_batch.push_back(std::move(staged));
      });
    }
    if (drain_batch.empty()) {
      return 0;
    }
    drain_ready.clear();
    {
      std::lock_guard lock(mutex);
      scheduler.finish_execution_batch(
          std::span<Scheduler::StagedFinish>(drain_batch), drain_ready);
    }
    window_cv.notify_all();
    staged_pending.fetch_sub(drain_batch.size());
    if (!drain_ready.empty()) {
      run_queue.push_all(drain_ready);
    }
    return drain_batch.size();
  };
  const auto maybe_drain = [&] {
    for (;;) {
      if (staged_pending.load() == 0) {
        return;
      }
      if (draining.exchange(true)) {
        return;
      }
      const std::size_t drained = drain_once();
      draining.store(false);
      if (drained == 0) {
        std::this_thread::yield();
      }
    }
  };

  const auto worker = [&](std::size_t index) {
    while (auto item = run_queue.pop()) {
      Scheduler::StagedFinish staged;
      staged.vertex = item->vertex;
      staged.phase = item->phase;
      for (const std::uint32_t w : succs[item->vertex]) {
        staged.deliveries.push_back(
            Scheduler::Delivery{w, 0, event::Value(1.0)});
      }
      staged.recycled = std::move(item->bundle);
      staged_pending.fetch_add(1);
      while (!rings[index]->try_push(staged)) {
        maybe_drain();  // ring full: help drain, then retry
      }
      maybe_drain();
      if (executed.fetch_add(1) + 1 == expected_pairs) {
        // Final pair staged; drain everything left before closing so the
        // run ends with the scheduler fully settled.
        while (staged_pending.load() != 0) {
          maybe_drain();
          std::this_thread::yield();
        }
        run_queue.close();
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads.emplace_back(worker, i);
  }

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
}

}  // namespace
}  // namespace df::core
