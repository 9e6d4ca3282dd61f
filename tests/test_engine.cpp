// Integration tests for the parallel engine (paper section 3.2).
#include <gtest/gtest.h>

#include <stdexcept>

#include "baseline/sequential.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/check.hpp"
#include "trace/serializability.hpp"

namespace df::core {
namespace {

Program chain_program(std::uint32_t length, std::uint64_t seed) {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  ids.push_back(b.add("src", model::factory_of<model::CounterSource>()));
  for (std::uint32_t i = 1; i < length; ++i) {
    ids.push_back(b.add("f" + std::to_string(i),
                        model::factory_of<model::ForwardModule>()));
    b.connect(ids[i - 1], ids[i]);
  }
  return std::move(b).build(seed);
}

TEST(Engine, SingleVertexGraph) {
  spec::GraphBuilder b;
  b.add("only", model::factory_of<model::CounterSource>());
  const Program program = std::move(b).build(1);
  Engine engine(program, {.threads = 2});
  engine.run(10, nullptr);
  // The lone source is also a sink: every phase's emission is recorded.
  EXPECT_EQ(engine.sinks().size(), 10U);
  EXPECT_EQ(engine.stats().phases_completed, 10U);
  EXPECT_EQ(engine.stats().executed_pairs, 10U);
}

TEST(Engine, AllSourcesGraph) {
  spec::GraphBuilder b;
  for (int i = 0; i < 4; ++i) {
    b.add("s" + std::to_string(i),
          model::factory_of<model::CounterSource>());
  }
  const Program program = std::move(b).build(2);
  Engine engine(program, {.threads = 3});
  engine.run(25, nullptr);
  EXPECT_EQ(engine.sinks().size(), 100U);
  EXPECT_EQ(engine.stats().executed_pairs, 100U);
}

TEST(Engine, ChainPropagatesEveryPhase) {
  const Program program = chain_program(8, 3);
  Engine engine(program, {.threads = 4});
  engine.run(50, nullptr);
  const auto records = engine.sinks().canonical();
  ASSERT_EQ(records.size(), 50U);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].phase, i + 1);
    EXPECT_EQ(records[i].value.as_int(),
              static_cast<std::int64_t>(i + 1));
  }
}

TEST(Engine, ZeroPhasesCompletesImmediately) {
  const Program program = chain_program(3, 4);
  Engine engine(program, {.threads = 2});
  engine.run(0, nullptr);
  EXPECT_EQ(engine.stats().phases_completed, 0U);
  EXPECT_EQ(engine.sinks().size(), 0U);
}

TEST(Engine, TinyInflightWindowStillCorrect) {
  const Program program = chain_program(6, 5);
  EngineOptions options;
  options.threads = 3;
  options.max_inflight_phases = 1;  // fully serialized phases
  Engine engine(program, options);
  const auto report = trace::check_against_sequential(program, engine, 64);
  EXPECT_TRUE(report.equivalent) << report.summary();
  EXPECT_LE(engine.stats().max_inflight_phases, 1U);
}

TEST(Engine, UnboundedWindowPipelinesDeeply) {
  const Program program = chain_program(12, 6);
  EngineOptions options;
  options.threads = 1;
  options.max_inflight_phases = 0;  // unbounded
  options.sample_inflight = true;
  Engine engine(program, options);
  engine.run(100, nullptr);
  EXPECT_EQ(engine.stats().phases_completed, 100U);
  // With one worker and instant environment injection, many phases overlap.
  EXPECT_GT(engine.stats().max_inflight_phases, 1U);
}

TEST(Engine, StreamingApiWithExternalEvents) {
  spec::GraphBuilder b;
  const auto src =
      b.add("src", model::factory_of<model::ExternalPassthroughSource>());
  const auto avg = b.add("avg", model::factory_of<model::MovingAverageModule>(
                                    std::size_t{4}));
  b.connect(src, avg);
  const Program program = std::move(b).build(7);

  Engine engine(program, {.threads = 2});
  engine.start();
  for (int i = 1; i <= 8; ++i) {
    engine.start_phase({event::ExternalEvent{src, 0, event::Value(
                            static_cast<double>(i))}});
  }
  engine.start_phase({});  // a phase with no external data
  engine.finish();
  EXPECT_EQ(engine.completed_phases(), 9U);
  const auto records = engine.sinks().canonical();
  ASSERT_EQ(records.size(), 8U);  // the empty phase produced nothing
  // Last average: mean of 5,6,7,8.
  EXPECT_DOUBLE_EQ(records.back().value.as_double(), 6.5);
}

TEST(Engine, ExternalEventsToNonSourceAreRejected) {
  spec::GraphBuilder b;
  const auto src = b.add("src", model::factory_of<model::CounterSource>());
  const auto mid = b.add("mid", model::factory_of<model::ForwardModule>());
  b.connect(src, mid);
  const Program program = std::move(b).build(8);
  Engine engine(program, {.threads = 1});
  engine.start();
  EXPECT_THROW(
      engine.start_phase({event::ExternalEvent{mid, 0, event::Value(1.0)}}),
      support::check_error);
  engine.finish();
}

TEST(Engine, ModuleExceptionSurfacesAtFinish) {
  spec::GraphBuilder b;
  const auto src = b.add("src", model::factory_of<model::CounterSource>());
  const auto bomb = b.add_lambda("bomb", [](model::PhaseContext& ctx) {
    if (ctx.phase() == 3) {
      throw std::runtime_error("model blew up");
    }
  });
  b.connect(src, bomb);
  const Program program = std::move(b).build(9);
  Engine engine(program, {.threads = 2});
  EXPECT_THROW(engine.run(10, nullptr), std::runtime_error);
  // All phases still drained before the rethrow.
  EXPECT_EQ(engine.completed_phases(), 10U);
}

TEST(Engine, StatsAccountForWork) {
  const Program program = chain_program(5, 10);
  Engine engine(program, {.threads = 2});
  engine.run(40, nullptr);
  const ExecStats stats = engine.stats();
  EXPECT_EQ(stats.phases_completed, 40U);
  EXPECT_EQ(stats.executed_pairs, 5U * 40U);       // every vertex every phase
  EXPECT_EQ(stats.messages_delivered, 4U * 40U);   // chain edges
  EXPECT_EQ(stats.sink_records, 40U);
  EXPECT_EQ(stats.hook_ns, 0U);  // no on_phase_complete hook installed
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.pairs_per_second(), 0.0);
}

// Wake cadence (DESIGN.md, "Wake only when the waiter can proceed"): an
// admission wait ends with at least W/8 free slots, so a closed loop waits
// at most once per W/8 phases. Waking on every retirement instead would
// wait about once per phase.
TEST(Engine, ClosedLoopRefillsTheWindowInBatches) {
  const Program program = chain_program(8, 14);
  EngineOptions options;
  options.threads = 3;
  options.max_inflight_phases = 64;
  Engine engine(program, options);
  engine.run(4096, nullptr);
  const ExecStats stats = engine.stats();
  EXPECT_EQ(stats.phases_completed, 4096U);
  EXPECT_LE(stats.window_waits, 4096U / 8);
  EXPECT_LE(stats.max_inflight_phases, 64U);
}

// quiesce() is woken by the retirement that completes the last started
// phase, not by each retirement before it. 48 phases never fill a window
// of 64, so no admission wait adds wake-ups; 40 leaves one spurious
// wake-up per round.
TEST(Engine, QuiesceWakesOnceItsPhasesComplete) {
  const Program program = chain_program(8, 15);
  EngineOptions options;
  options.threads = 3;
  options.max_inflight_phases = 64;
  Engine engine(program, options);
  engine.start();
  for (int round = 0; round < 20; ++round) {
    for (int p = 0; p < 48; ++p) {
      engine.start_phase({});
    }
    engine.quiesce();
  }
  engine.finish();
  const ExecStats stats = engine.stats();
  EXPECT_EQ(stats.phases_completed, 20U * 48U);
  EXPECT_EQ(stats.window_waits, 0U);
  EXPECT_LE(stats.progress_wakeups, 40U);
}

TEST(Engine, RequiresAtLeastOneThread) {
  const Program program = chain_program(2, 11);
  EXPECT_THROW(Engine(program, {.threads = 0}), support::check_error);
}

TEST(Engine, AbandonedEngineShutsDownCleanly) {
  const Program program = chain_program(4, 12);
  {
    Engine engine(program, {.threads = 2});
    engine.start();
    engine.start_phase({});
    // Destructor must join workers without finish().
  }
  SUCCEED();
}

TEST(Engine, SparseTrafficExecutesOnlyReachedVertices) {
  // src emits on ~10% of phases; downstream executes only then.
  spec::GraphBuilder b;
  const auto src = b.add(
      "src", model::factory_of<model::SparseEventSource>(0.1,
                                                         event::Value(1.0)));
  const auto fwd = b.add("fwd", model::factory_of<model::ForwardModule>());
  b.connect(src, fwd);
  const Program program = std::move(b).build(13);
  Engine engine(program, {.threads = 2});
  engine.run(1000, nullptr);
  const ExecStats stats = engine.stats();
  // Source executes every phase; forwarder only when a message arrived.
  EXPECT_EQ(stats.executed_pairs, 1000U + stats.messages_delivered);
  EXPECT_LT(stats.messages_delivered, 300U);
  EXPECT_GT(stats.messages_delivered, 20U);
}

}  // namespace
}  // namespace df::core
