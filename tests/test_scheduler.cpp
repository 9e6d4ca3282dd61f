// Tests for the scheduling state machine (paper section 3, Listings 1-2).
//
// Two layers:
//  1. scripted scenarios on the Figure 3 graph, checking ready sets, x
//     values, pipelining and no-overtaking step by step;
//  2. a randomized definitional property test: after *every* transition the
//     scheduler's partial/full/ready sets must equal the paper's set
//     definitions (eqns 7-9) evaluated from first principles over ghost
//     msg(v,p) variables — the exact obligation of the paper's correctness
//     argument (section 3.3).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "core/scheduler.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace df::core {
namespace {

using graph::Dag;
using graph::Numbering;

/// Internal-index successor lists for a numbered DAG.
std::vector<std::vector<std::uint32_t>> internal_successors(
    const Dag& dag, const Numbering& numbering) {
  std::vector<std::vector<std::uint32_t>> succs(dag.vertex_count() + 1);
  for (const graph::Edge& e : dag.edges()) {
    succs[numbering.index_of[e.from]].push_back(numbering.index_of[e.to]);
  }
  return succs;
}

Scheduler::Delivery deliver(std::uint32_t to) {
  return Scheduler::Delivery{to, 0, event::Value(1.0)};
}

// Vector-returning conveniences over the buffer-reuse API (the seed-compat
// wrappers were removed from the Scheduler itself once no production code
// used them; scripted tests keep the ergonomic shape here).
std::vector<Scheduler::ReadyPair> start_phase(
    Scheduler& scheduler, event::PhaseId p,
    std::vector<event::InputBundle> bundles) {
  std::vector<Scheduler::ReadyPair> out;
  scheduler.start_phase(p, std::span<event::InputBundle>(bundles), out);
  return out;
}

std::vector<Scheduler::ReadyPair> finish_execution(
    Scheduler& scheduler, std::uint32_t vertex, event::PhaseId p,
    std::vector<Scheduler::Delivery> deliveries) {
  std::vector<Scheduler::ReadyPair> out;
  scheduler.finish_execution(vertex, p,
                             std::span<Scheduler::Delivery>(deliveries), {},
                             out);
  return out;
}

std::set<std::pair<std::uint32_t, event::PhaseId>> as_set(
    const std::vector<Scheduler::Snapshot::Pair>& pairs) {
  std::set<std::pair<std::uint32_t, event::PhaseId>> out;
  for (const auto& p : pairs) {
    out.insert({p.vertex, p.phase});
  }
  return out;
}

std::set<std::pair<std::uint32_t, event::PhaseId>> ready_set(
    const std::vector<Scheduler::ReadyPair>& pairs) {
  std::set<std::pair<std::uint32_t, event::PhaseId>> out;
  for (const auto& p : pairs) {
    out.insert({p.vertex, p.phase});
  }
  return out;
}

/// Figure 3 graph numbering: v1..v6 keep their indices 1..6 under the greedy
/// algorithm (checked below); m = [2, 2, 4, 4, 6, 6, 6].
class Fig3Scheduler : public ::testing::Test {
 protected:
  Fig3Scheduler()
      : dag_(graph::paper_figure3()),
        numbering_(graph::compute_satisfactory_numbering(dag_)),
        scheduler_(numbering_.m) {}

  std::vector<event::InputBundle> source_bundles() const {
    return std::vector<event::InputBundle>(numbering_.m[0]);
  }

  Dag dag_;
  Numbering numbering_;
  Scheduler scheduler_;
};

TEST_F(Fig3Scheduler, NumberingMatchesHandComputation) {
  const std::vector<std::uint32_t> expected_m{2, 2, 4, 4, 6, 6, 6};
  EXPECT_EQ(numbering_.m, expected_m);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(numbering_.index_of[i], i + 1);  // identity numbering
  }
}

TEST_F(Fig3Scheduler, PhaseStartMakesSourcesReady) {
  const auto ready = start_phase(scheduler_, 1, source_bundles());
  EXPECT_EQ(ready_set(ready),
            (std::set<std::pair<std::uint32_t, event::PhaseId>>{{1, 1},
                                                                {2, 1}}));
  EXPECT_EQ(scheduler_.pmax(), 1U);
  EXPECT_EQ(scheduler_.x(1), 0U);
  EXPECT_EQ(scheduler_.completed_through(), 0U);
}

TEST_F(Fig3Scheduler, PhasesMustStartInOrder) {
  start_phase(scheduler_, 1, source_bundles());
  EXPECT_THROW(start_phase(scheduler_, 3, source_bundles()),
               support::check_error);
}

TEST_F(Fig3Scheduler, MessageWaitsInPartialUntilFrontierReaches) {
  start_phase(scheduler_, 1, source_bundles());
  // v1 finishes and sends to v3. v2 has not finished, so x_1 = 1, m(1) = 2,
  // and v3 (> 2) must wait in partial.
  const auto ready = finish_execution(scheduler_, 1, 1, {deliver(3)});
  EXPECT_TRUE(ready.empty());
  EXPECT_EQ(scheduler_.x(1), 1U);
  const auto snap = scheduler_.snapshot();
  EXPECT_EQ(as_set(snap.partial),
            (std::set<std::pair<std::uint32_t, event::PhaseId>>{{3, 1}}));
}

TEST_F(Fig3Scheduler, AbsenceOfMessagesStillUnblocksSuccessors) {
  start_phase(scheduler_, 1, source_bundles());
  finish_execution(scheduler_, 1, 1, {deliver(3)});
  // v2 finishes *without* sending anything: the absence of messages is
  // information. x_1 jumps to 2 (v3 pending), m(2) = 4 releases v3.
  const auto ready = finish_execution(scheduler_, 2, 1, {});
  EXPECT_EQ(ready_set(ready),
            (std::set<std::pair<std::uint32_t, event::PhaseId>>{{3, 1}}));
  EXPECT_EQ(scheduler_.x(1), 2U);
}

TEST_F(Fig3Scheduler, FanInBundleCollectsBothMessages) {
  start_phase(scheduler_, 1, source_bundles());
  finish_execution(scheduler_, 1, 1, {deliver(3)});
  const auto ready = finish_execution(scheduler_, 
      2, 1, {Scheduler::Delivery{3, 1, event::Value(2.0)},
             Scheduler::Delivery{4, 0, event::Value(3.0)}});
  ASSERT_EQ(ready.size(), 2U);
  // v3 received one message from each source, on ports 0 and 1.
  const auto& v3 = ready[0].vertex == 3 ? ready[0] : ready[1];
  ASSERT_EQ(v3.vertex, 3U);
  EXPECT_EQ(v3.bundle.size(), 2U);
}

TEST_F(Fig3Scheduler, PhaseCompletesAndRetiresInOrder) {
  start_phase(scheduler_, 1, source_bundles());
  finish_execution(scheduler_, 1, 1, {deliver(3)});
  auto ready = finish_execution(scheduler_, 2, 1, {deliver(4)});
  // v3 and v4 both ready.
  ASSERT_EQ(ready.size(), 2U);
  auto more = finish_execution(scheduler_, 3, 1, {});  // no output
  EXPECT_TRUE(more.empty());
  EXPECT_EQ(scheduler_.completed_through(), 0U);
  more = finish_execution(scheduler_, 4, 1, {});  // no output either
  // Nothing was sent to v5/v6, so the phase completes without them.
  EXPECT_TRUE(more.empty());
  EXPECT_EQ(scheduler_.completed_through(), 1U);
  EXPECT_TRUE(scheduler_.all_started_phases_complete());
  EXPECT_EQ(scheduler_.x(1), 6U);
}

TEST_F(Fig3Scheduler, PipelinedPhasesKeepSourcesBusy) {
  start_phase(scheduler_, 1, source_bundles());
  // Sources are issued for phase 1; starting phase 2 cannot issue them
  // again until they finish (one phase at a time per vertex).
  auto ready2 = start_phase(scheduler_, 2, source_bundles());
  EXPECT_TRUE(ready2.empty());
  // When v1 finishes phase 1, it immediately becomes ready for phase 2.
  const auto ready = finish_execution(scheduler_, 1, 1, {});
  EXPECT_EQ(ready_set(ready),
            (std::set<std::pair<std::uint32_t, event::PhaseId>>{{1, 2}}));
}

TEST_F(Fig3Scheduler, NoOvertaking) {
  start_phase(scheduler_, 1, source_bundles());
  start_phase(scheduler_, 2, source_bundles());
  finish_execution(scheduler_, 1, 1, {deliver(3)});
  finish_execution(scheduler_, 1, 2, {});
  // Phase 2's sources are done except v2... finish v2 phase 1 delivering
  // nothing; then v2 phase 2. Throughout, x_2 <= x_1 must hold.
  EXPECT_LE(scheduler_.x(2), scheduler_.x(1));
  finish_execution(scheduler_, 2, 1, {});
  EXPECT_LE(scheduler_.x(2), scheduler_.x(1));
  const auto snap = scheduler_.snapshot();
  for (std::size_t i = 1; i < snap.x.size(); ++i) {
    EXPECT_LE(snap.x[i].second, snap.x[i - 1].second);
  }
}

TEST_F(Fig3Scheduler, FinishOfUnissuedPairIsRejected) {
  start_phase(scheduler_, 1, source_bundles());
  EXPECT_THROW(finish_execution(scheduler_, 3, 1, {}), support::check_error);
  EXPECT_THROW(finish_execution(scheduler_, 1, 2, {}), support::check_error);
}

TEST_F(Fig3Scheduler, WrongBundleCountIsRejected) {
  EXPECT_THROW(start_phase(scheduler_, 1, {}), support::check_error);
}

// --- Definitional property test -------------------------------------------

struct GhostState {
  // msg(v,p): true iff a message (or phase signal) for phase p is waiting on
  // an input of vertex v and v has not finished executing phase p.
  std::map<std::pair<std::uint32_t, event::PhaseId>, bool> msg;
};

class DefinitionalProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DefinitionalProperty, SetsAlwaysMatchEquations7To9) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);

  // Random DAG, renumbered satisfactorily.
  const Dag dag = graph::random_dag(
      6 + static_cast<std::uint32_t>(seed % 20), 0.25, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);
  const auto n = static_cast<std::uint32_t>(dag.vertex_count());

  Scheduler scheduler(numbering.m);
  GhostState ghost;
  std::vector<Scheduler::ReadyPair> issued;
  std::set<std::pair<std::uint32_t, event::PhaseId>> executed;

  const event::PhaseId total_phases = 12;
  event::PhaseId started = 0;

  const auto verify = [&] {
    const Scheduler::Snapshot snap = scheduler.snapshot();
    // Evaluate the paper's definitions from ghost state.
    std::set<std::pair<std::uint32_t, event::PhaseId>> full_def;
    std::set<std::pair<std::uint32_t, event::PhaseId>> partial_def;
    for (const auto& [key, waiting] : ghost.msg) {
      if (!waiting) {
        continue;
      }
      const auto [v, p] = key;
      ASSERT_GE(p, 1U);
      ASSERT_LE(p, scheduler.pmax());
      const std::uint32_t xp = scheduler.x(p);
      if (xp < v && v <= numbering.m[xp]) {
        full_def.insert(key);  // eqn (7)
      } else if (numbering.m[xp] < v) {
        partial_def.insert(key);  // eqn (9)
      } else {
        FAIL() << "msg waiting on a vertex at or below the frontier";
      }
    }
    // eqn (8): ready = min-phase-per-vertex subset of full.
    std::set<std::pair<std::uint32_t, event::PhaseId>> ready_def;
    std::map<std::uint32_t, event::PhaseId> min_phase;
    for (const auto& [v, p] : full_def) {
      const auto it = min_phase.find(v);
      if (it == min_phase.end() || p < it->second) {
        min_phase[v] = p;
      }
    }
    for (const auto& [v, p] : min_phase) {
      ready_def.insert({v, p});
    }
    EXPECT_EQ(as_set(snap.full), full_def);
    EXPECT_EQ(as_set(snap.partial), partial_def);
    EXPECT_EQ(as_set(snap.ready), ready_def);
  };

  const auto absorb = [&](std::vector<Scheduler::ReadyPair> ready) {
    for (auto& pair : ready) {
      issued.push_back(std::move(pair));
    }
  };

  while (started < total_phases || !issued.empty()) {
    const bool can_start = started < total_phases;
    const bool start_now =
        can_start && (issued.empty() || rng.next_bernoulli(0.3));
    if (start_now) {
      ++started;
      for (std::uint32_t s = 1; s <= numbering.m[0]; ++s) {
        ghost.msg[{s, started}] = true;  // phase signal
      }
      absorb(start_phase(scheduler, 
          started, std::vector<event::InputBundle>(numbering.m[0])));
      verify();
      continue;
    }
    // Execute a random issued pair.
    const std::size_t pick = static_cast<std::size_t>(
        rng.next_below(issued.size()));
    const Scheduler::ReadyPair pair = std::move(issued[pick]);
    issued.erase(issued.begin() + static_cast<std::ptrdiff_t>(pick));

    ASSERT_TRUE(executed.insert({pair.vertex, pair.phase}).second)
        << "pair executed twice";

    // Random subset of actual graph successors receives output.
    std::vector<Scheduler::Delivery> deliveries;
    for (const std::uint32_t w : succs[pair.vertex]) {
      if (rng.next_bernoulli(0.6)) {
        deliveries.push_back(deliver(w));
        ghost.msg[{w, pair.phase}] = true;
      }
    }
    ghost.msg[{pair.vertex, pair.phase}] = false;  // inputs consumed
    absorb(finish_execution(scheduler, pair.vertex, pair.phase,
                                      std::move(deliveries)));
    verify();
  }

  EXPECT_TRUE(scheduler.all_started_phases_complete());
  EXPECT_EQ(scheduler.completed_through(), total_phases);
  // Every executed pair is unique and every phase's sources executed.
  EXPECT_GE(executed.size(),
            static_cast<std::size_t>(numbering.m[0] * total_phases));
  (void)n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DefinitionalProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

// --- frontier pass cost ---------------------------------------------------
//
// A finish changes pending bits only in its own phase, so the frontier pass
// may stop at the first later phase whose x it leaves unchanged. Pin that:
// a chain driven through finish_execution with a full 256-phase window must
// visit a small constant number of slots per transition, not the window.
TEST(FrontierPass, DeepWindowChainVisitsConstantSlotsPerFinish) {
  constexpr std::uint32_t kVertices = 8;
  constexpr std::size_t kWindow = 256;
  constexpr event::PhaseId kPhases = 2000;
  const Dag dag = graph::chain(kVertices);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  Scheduler scheduler(numbering.m);
  scheduler.reserve_steady_state(kWindow);

  std::deque<Scheduler::ReadyPair> queue;  // FIFO, like the run queue
  std::vector<Scheduler::ReadyPair> ready;
  std::vector<event::InputBundle> bundles;
  std::vector<Scheduler::Delivery> deliveries;
  event::PhaseId started = 0;
  std::uint64_t finishes = 0;
  std::uint64_t visits = 0;
  std::size_t deepest = 0;
  while (started < kPhases || !queue.empty()) {
    while (started < kPhases &&
           scheduler.active_phase_count() < kWindow) {
      bundles.assign(1, event::InputBundle{});
      ready.clear();
      scheduler.start_phase(++started, std::span(bundles), ready);
      for (auto& r : ready) queue.push_back(std::move(r));
    }
    Scheduler::ReadyPair pair = std::move(queue.front());
    queue.pop_front();
    deliveries.clear();
    if (pair.vertex < kVertices) {
      deliveries.push_back(deliver(pair.vertex + 1));
    }
    deepest = std::max(deepest, scheduler.active_phase_count());
    ready.clear();
    const std::uint64_t before = scheduler.frontier_slots_visited();
    scheduler.finish_execution(pair.vertex, pair.phase, std::span(deliveries),
                               std::move(pair.bundle), ready);
    visits += scheduler.frontier_slots_visited() - before;
    ++finishes;
    for (auto& r : ready) queue.push_back(std::move(r));
  }
  EXPECT_TRUE(scheduler.all_started_phases_complete());
  EXPECT_EQ(scheduler.completed_through(), kPhases);
  EXPECT_EQ(deepest, kWindow) << "the window never filled";
  EXPECT_EQ(finishes, kPhases * kVertices);
  const double per_finish =
      static_cast<double>(visits) / static_cast<double>(finishes);
  EXPECT_LE(per_finish, 3.0)
      << "the frontier pass walks the window instead of stopping early";
}

}  // namespace
}  // namespace df::core
