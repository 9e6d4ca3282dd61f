// Unit scheduling end to end (DESIGN.md, "Unit scheduling"): an engine
// whose scheduler runs contiguous numbering units as single vertices must
// stay byte-identical to the sequential reference and execute exactly the
// vertex-phase pairs the sequential executor's Δ rule executes. Every case
// also proves that multi-member units formed, so the suite cannot quietly
// test only the identity plan. Labelled `concurrency`: the CI TSan leg
// runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/sequential.hpp"
#include "core/engine.hpp"
#include "distrib/transport.hpp"
#include "model/sources.hpp"
#include "model/synthetic.hpp"
#include "random_program.hpp"
#include "repeated_port_program.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

namespace df {
namespace {

using Batches = std::vector<std::vector<event::ExternalEvent>>;
using Bounds = std::vector<std::uint32_t>;

constexpr graph::Port kPorts[] = {0, 7, 0xffff};

/// Runs the engine and the sequential reference over the same feed and
/// checks sinks, executed pairs, and that units actually coarsened.
void expect_matches_sequential(const core::Program& program,
                               const core::EngineOptions& options,
                               event::PhaseId phases,
                               const Batches& batches,
                               const std::string& where) {
  baseline::SequentialExecutor sequential(program);
  core::VectorFeed sequential_feed(batches);
  sequential.run(phases, &sequential_feed);

  core::Engine engine(program, options);
  core::VectorFeed engine_feed(batches);
  engine.run(phases, &engine_feed);

  const auto report =
      trace::compare_sinks(sequential.sinks(), engine.sinks());
  EXPECT_TRUE(report.equivalent) << where << "\n" << report.summary();
  EXPECT_GT(report.reference_records, 0U) << where << ": no sink output";
  const core::ExecStats stats = engine.stats();
  EXPECT_EQ(stats.executed_pairs, sequential.stats().executed_pairs) << where;
  EXPECT_EQ(stats.messages_delivered, sequential.stats().messages_delivered)
      << where;
  EXPECT_LT(stats.units, program.numbering.size())
      << where << ": every vertex ran as its own unit";
  EXPECT_LT(stats.scheduled_pairs, stats.executed_pairs)
      << where << ": no unit pair ran more than one member";
}

using SweepCase = std::tuple<std::uint64_t /*seed*/, std::size_t /*threads*/>;

class UnitDifferential : public ::testing::TestWithParam<SweepCase> {};

// 32-64 vertices, so every (T, W) below coarsens: B >= 4T and W is
// unbounded or at least 2T.
TEST_P(UnitDifferential, SinksAndPairsMatchSequential) {
  const auto [seed, threads] = GetParam();
  const core::Program program = testutil::random_program(
      seed, 32 + static_cast<std::uint32_t>(seed % 33));
  for (const std::size_t window :
       {std::size_t{0}, 2 * threads, std::size_t{64}}) {
    core::EngineOptions options;
    options.threads = threads;
    options.max_inflight_phases = window;
    expect_matches_sequential(
        program, options, 96, {},
        "seed=" + std::to_string(seed) + " threads=" +
            std::to_string(threads) + " window=" + std::to_string(window));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, UnitDifferential,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 8),
                       ::testing::Values<std::size_t>(1, 2, 3, 4)));

core::EngineOptions options_with(std::size_t threads) {
  core::EngineOptions options;
  options.threads = threads;
  options.max_inflight_phases = 64;
  return options;
}

TEST(UnitEdgeCases, RepeatedPortsAcrossUnits) {
  // The source is its own unit and feeds forwarders in later multi-member
  // units; forwarder 0 gets a decoy and then the real value on one port.
  const core::Program program = testutil::repeated_port_program(20);
  ASSERT_EQ(core::plan_units(21, 1, 2, 64), (Bounds{0, 1, 7, 14, 21}));
  expect_matches_sequential(program, options_with(2), 40, {}, "fanout 20");
}

TEST(UnitEdgeCases, RepeatedPortsInsideAndAcrossUnits) {
  // A relay shares a unit with the first forwarders and emits a decoy on
  // every port before the real values, so each forwarder receives two
  // separate runs on one port in one phase — from inside its unit for the
  // first six, across units for the rest.
  constexpr std::size_t kFanout = 20;
  spec::GraphBuilder b;
  const graph::VertexId source =
      b.add("source", model::factory_of<model::CounterSource>());
  const graph::VertexId relay =
      b.add_lambda("relay", [](model::PhaseContext& ctx) {
        const double phase = static_cast<double>(ctx.phase());
        for (std::size_t i = 0; i < kFanout; ++i) {
          ctx.emit(static_cast<graph::Port>(i), event::Value(-phase));
        }
        for (std::size_t i = 0; i < kFanout; ++i) {
          ctx.emit(static_cast<graph::Port>(i),
                   event::Value(phase * 100.0 + static_cast<double>(i)));
        }
      });
  b.connect(source, 0, relay, 0);
  for (std::size_t i = 0; i < kFanout; ++i) {
    const graph::VertexId forward =
        b.add("forward" + std::to_string(i),
              model::factory_of<model::ForwardModule>());
    b.connect(relay, static_cast<graph::Port>(i), forward, 0);
  }
  const core::Program program = std::move(b).build(3);
  ASSERT_EQ(program.numbering.index_of[relay], 2U);
  ASSERT_EQ(core::plan_units(22, 1, 2, 64), (Bounds{0, 1, 8, 15, 22}));
  expect_matches_sequential(program, options_with(2), 40, {}, "relay");
}

TEST(UnitEdgeCases, ExternalEventsOnWidePortsToSourcesSharingAUnit) {
  // Four sources share one unit (T = 1: U = 2, one unit per side of the
  // source split). Events land on ports 0, 7 and 0xffff in interleaved
  // order, some repeated within a phase (the last one wins), some sources
  // get none: the run headers, not the ports, must say which member an
  // event is for.
  spec::GraphBuilder b;
  std::vector<graph::VertexId> sources;
  for (int s = 0; s < 4; ++s) {
    sources.push_back(b.add_lambda(
        "sensor" + std::to_string(s), [s](model::PhaseContext& ctx) {
          double acc = static_cast<double>(ctx.phase()) * (s + 1);
          for (const graph::Port port : kPorts) {
            if (ctx.has_input(port)) {
              acc += ctx.input(port).as_double() * (port + 1.0);
            }
          }
          ctx.emit(0, event::Value(acc));
        }));
  }
  for (int s = 0; s < 4; ++s) {
    const graph::VertexId forward =
        b.add("forward" + std::to_string(s),
              model::factory_of<model::ForwardModule>());
    b.connect(sources[s], 0, forward, 0);
  }
  const core::Program program = std::move(b).build(11);
  ASSERT_EQ(program.numbering.m[0], 4U);
  ASSERT_EQ(core::plan_units(8, 4, 1, 64), (Bounds{0, 4, 8}));

  constexpr event::PhaseId kPhases = 60;
  support::Rng rng(42);
  Batches batches(kPhases);
  for (auto& batch : batches) {
    const std::uint32_t count = rng.next_below(9);
    for (std::uint32_t e = 0; e < count; ++e) {
      batch.push_back(event::ExternalEvent{
          sources[rng.next_below(4)], kPorts[rng.next_below(3)],
          event::Value(rng.next_normal())});
    }
  }
  expect_matches_sequential(program, options_with(1), kPhases, batches,
                            "wide ports");
}

TEST(UnitEdgeCases, OnlyInputTargetsTheLastMember) {
  // Sources rare (emits every fourth phase) and tick (every phase). The
  // non-source unit is {a1, a2, z}: a1 and a2 hang off rare, z off tick,
  // so three phases in four the unit's only input targets its last member.
  spec::GraphBuilder b;
  const graph::VertexId rare =
      b.add_lambda("rare", [](model::PhaseContext& ctx) {
        if (ctx.phase() % 4 == 0) {
          ctx.emit(0, event::Value(static_cast<double>(ctx.phase())));
        }
      });
  const graph::VertexId tick =
      b.add("tick", model::factory_of<model::CounterSource>());
  const graph::VertexId a1 =
      b.add("a1", model::factory_of<model::ForwardModule>());
  const graph::VertexId a2 =
      b.add("a2", model::factory_of<model::ForwardModule>());
  const graph::VertexId z =
      b.add("z", model::factory_of<model::ForwardModule>());
  b.connect(rare, 0, a1, 0);
  b.connect(rare, 0, a2, 0);
  b.connect(tick, 0, z, 0);
  const core::Program program = std::move(b).build(5);
  ASSERT_EQ(program.numbering.index_of[z], 5U);
  ASSERT_EQ(core::plan_units(5, 2, 1, 64), (Bounds{0, 2, 5}));
  expect_matches_sequential(program, options_with(1), 40, {}, "last member");
}

TEST(UnitEdgeCases, MemberThrowingMidUnitStillDrains) {
  // Unit {a, d, boom, c} (T = 1): boom throws in phase 5. d, before it,
  // and c, after it, keep running on what they receive; finish() rethrows
  // and every phase still completes.
  spec::GraphBuilder b;
  const graph::VertexId source =
      b.add("source", model::factory_of<model::CounterSource>());
  const graph::VertexId a =
      b.add("a", model::factory_of<model::ForwardModule>());
  const graph::VertexId d =
      b.add("d", model::factory_of<model::ForwardModule>());
  const graph::VertexId boom =
      b.add_lambda("boom", [](model::PhaseContext& ctx) {
        if (ctx.phase() == 5) {
          throw std::runtime_error("module failure in phase 5");
        }
        ctx.emit(0, ctx.input(0));
      });
  const graph::VertexId c =
      b.add("c", model::factory_of<model::ForwardModule>());
  b.connect(source, 0, a, 0);
  b.connect(source, 0, d, 0);
  b.connect(a, 0, boom, 0);
  b.connect(boom, 0, c, 0);
  const core::Program program = std::move(b).build(9);
  ASSERT_EQ(program.numbering.index_of[boom], 4U);
  ASSERT_EQ(core::plan_units(5, 1, 1, 64), (Bounds{0, 1, 5}));

  constexpr event::PhaseId kPhases = 12;
  core::Engine engine(program, options_with(1));
  engine.start();
  for (event::PhaseId p = 1; p <= kPhases; ++p) {
    engine.start_phase(std::vector<event::ExternalEvent>{});
  }
  EXPECT_THROW(engine.finish(), std::runtime_error);
  EXPECT_EQ(engine.completed_phases(), kPhases);
  std::size_t d_records = 0;
  std::size_t c_records = 0;
  bool c_in_phase_5 = false;
  for (const core::SinkRecord& record : engine.sinks().canonical()) {
    const std::uint32_t index = program.numbering.index_of[record.vertex];
    d_records += index == program.numbering.index_of[d] ? 1 : 0;
    if (index == program.numbering.index_of[c]) {
      ++c_records;
      c_in_phase_5 |= record.phase == 5;
    }
  }
  EXPECT_EQ(d_records, kPhases);
  EXPECT_EQ(c_records, kPhases - 1);
  EXPECT_FALSE(c_in_phase_5) << "c ran without input in the failed phase";
  EXPECT_EQ(engine.stats().executed_pairs, kPhases * 5 - 1);
}

TEST(UnitEdgeCases, RemoteOnlyFedMembersInsideBlockUnits) {
  // Two partitions, one engine thread each: the downstream block has no
  // sources, so its vertices split into two units, and the first of them
  // holds vertices fed only by remote deliveries next to vertices fed
  // from inside the block. Over both channel kinds.
  std::size_t remote_only_in_shared_unit = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const core::Program program = testutil::random_program(seed, 40);
    const graph::Numbering& numbering = program.numbering;
    const std::uint32_t begin = 21;
    const std::uint32_t end = 40;
    ASSERT_LT(numbering.m[0], begin);
    const Bounds units = core::plan_units(end - begin + 1, 0, 1, 64);
    ASSERT_EQ(units, (Bounds{0, 10, 20}));
    for (std::uint32_t y = 1; y <= units[1]; ++y) {
      bool remote_only = true;
      for (const graph::Edge& e :
           program.dag.in_edges(numbering.vertex_at[begin + y - 1])) {
        remote_only &= numbering.index_of[e.from] < begin;
      }
      remote_only_in_shared_unit += remote_only ? 1 : 0;
    }
    for (const distrib::ChannelKind kind :
         {distrib::ChannelKind::kInProcess, distrib::ChannelKind::kSocket}) {
      distrib::TransportOptions options;
      options.machines = 2;
      options.channel = kind;
      options.engine_threads = 1;
      distrib::TransportEngine transport(program, options);
      const auto report =
          trace::check_against_sequential(program, transport, 64);
      const std::string where =
          "seed=" + std::to_string(seed) +
          (kind == distrib::ChannelKind::kSocket ? " socket" : " inproc");
      EXPECT_TRUE(report.equivalent) << where << "\n" << report.summary();
      const core::ExecStats stats = transport.stats();
      EXPECT_LT(stats.units, 40U) << where;
      EXPECT_LT(stats.scheduled_pairs, stats.executed_pairs) << where;
    }
  }
  EXPECT_GT(remote_only_in_shared_unit, 0U)
      << "no remote-only-fed vertex shared a unit";
}

/// The benchmark's engine-dense shape: 8 layers of 8 zero-grain busy-work
/// vertices, vertex i of a layer reading vertices i and i + 1 (mod 8) of
/// the layer before. Every vertex emits with probability 0.7, so a message
/// left in a lane would reach a later phase as a stale input value.
core::Program layered_program() {
  constexpr std::uint32_t kWidth = 8;
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (std::uint32_t layer = 0; layer < 8; ++layer) {
    for (std::uint32_t i = 0; i < kWidth; ++i) {
      ids.push_back(b.add(
          "v" + std::to_string(layer * kWidth + i),
          layer == 0 ? model::factory_of<model::BusyWorkSource>(
                           std::uint64_t{0}, 0.7)
                     : model::factory_of<model::BusyWorkModule>(
                           std::uint64_t{0}, std::size_t{2}, 0.7)));
    }
  }
  for (std::uint32_t layer = 1; layer < 8; ++layer) {
    for (std::uint32_t i = 0; i < kWidth; ++i) {
      const graph::VertexId to = ids[layer * kWidth + i];
      b.connect(ids[(layer - 1) * kWidth + i], 0, to, 0);
      b.connect(ids[(layer - 1) * kWidth + (i + 1) % kWidth], 0, to, 1);
    }
  }
  return std::move(b).build(31);
}

// Lanes (DESIGN.md, "Lanes") live in per-phase blocks that are reused once
// their phase retires. At least 8 x W phases run at every window, so every
// block serves many phases. A reader that left a message in a lane would
// feed it to a later phase, and snapshot_state() refuses a quiescent engine
// whose lanes are not all empty.
TEST(Lanes, ReusedAcrossWindowsAndThreadCounts) {
  const core::Program program = layered_program();
  // At 3 workers the graph runs as 6 units, and two of them take input
  // from two other units: they read two lanes a phase.
  const Bounds units = core::plan_units(64, 8, 3, 64);
  ASSERT_EQ(units.size(), 7U);
  std::size_t two_sender_units = 0;
  for (std::uint32_t u = 1; u < units.size(); ++u) {
    std::vector<std::uint32_t> senders;
    for (std::uint32_t y = units[u - 1] + 1; y <= units[u]; ++y) {
      for (const graph::Edge& e :
           program.dag.in_edges(program.numbering.vertex_at[y])) {
        const std::uint32_t pred = program.numbering.index_of[e.from];
        const auto unit = static_cast<std::uint32_t>(
            std::lower_bound(units.begin(), units.end(), pred) -
            units.begin());
        if (unit != u) {
          senders.push_back(unit);
        }
      }
    }
    std::sort(senders.begin(), senders.end());
    senders.erase(std::unique(senders.begin(), senders.end()),
                  senders.end());
    two_sender_units += senders.size() == 2 ? 1 : 0;
  }
  EXPECT_EQ(two_sender_units, 2U);

  for (const std::size_t window : {0, 1, 2, 3, 64}) {
    const event::PhaseId phases = 8 * std::max<event::PhaseId>(window, 8);
    baseline::SequentialExecutor sequential(program);
    sequential.run(phases, nullptr);
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      const std::string where = "threads=" + std::to_string(threads) +
                                " window=" + std::to_string(window);
      core::EngineOptions options;
      options.threads = threads;
      options.max_inflight_phases = window;
      core::Engine engine(program, options);
      engine.start();
      for (event::PhaseId p = 1; p <= phases; ++p) {
        engine.start_phase({});
      }
      engine.quiesce();
      EXPECT_NO_THROW(engine.snapshot_state()) << where;
      engine.finish();
      const auto report =
          trace::compare_sinks(sequential.sinks(), engine.sinks());
      EXPECT_TRUE(report.equivalent) << where << "\n" << report.summary();
      EXPECT_GT(report.reference_records, 0U) << where;
      EXPECT_EQ(engine.stats().executed_pairs,
                sequential.stats().executed_pairs)
          << where;
    }
  }
}

}  // namespace
}  // namespace df
