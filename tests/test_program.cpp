// Unit tests for Program / ProgramInstance: index remapping, routing,
// per-vertex rng streams, and the execute_vertex helper.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/program.hpp"
#include "graph/generators.hpp"
#include "model/module.hpp"
#include "model/sources.hpp"
#include "spec/builder.hpp"
#include "support/check.hpp"

namespace df::core {
namespace {

Program two_chain_program() {
  spec::GraphBuilder b;
  const auto src = b.add("src", model::factory_of<model::CounterSource>());
  const auto mid = b.add_lambda("mid", [](model::PhaseContext& ctx) {
    if (ctx.has_input(0)) {
      ctx.emit(0, ctx.input(0).as_int() * 2);
      ctx.emit(1, std::string("aux"));
    }
  });
  b.connect(src, mid);
  return std::move(b).build(5);
}

TEST(Program, FactoryCountMustMatchVertices) {
  graph::Dag dag;
  dag.add_vertex("a");
  EXPECT_THROW(make_program(std::move(dag), {}), support::check_error);
}

TEST(Program, NullFactoryRejected) {
  graph::Dag dag;
  dag.add_vertex("a");
  std::vector<model::ModuleFactory> factories;
  factories.emplace_back();  // empty function
  EXPECT_THROW(make_program(std::move(dag), std::move(factories)),
               support::check_error);
}

TEST(ProgramInstance, IndexMappingRoundTrips) {
  const Program program = two_chain_program();
  ProgramInstance instance(program);
  EXPECT_EQ(instance.n(), 2U);
  for (std::uint32_t index = 1; index <= instance.n(); ++index) {
    const graph::VertexId orig = instance.original_id(index);
    EXPECT_EQ(instance.internal_index(orig), index);
  }
  EXPECT_EQ(instance.name(1), "src");
  EXPECT_EQ(instance.name(2), "mid");
  EXPECT_TRUE(instance.is_source(1));
  EXPECT_FALSE(instance.is_source(2));
  EXPECT_EQ(instance.source_count(), 1U);
}

TEST(ProgramInstance, RoutesFollowEdgesAndDanglingPortsAreEmpty) {
  const Program program = two_chain_program();
  ProgramInstance instance(program);
  const auto& routes = instance.routes(1, 0);
  ASSERT_EQ(routes.size(), 1U);
  EXPECT_EQ(routes[0].to_index, 2U);
  EXPECT_EQ(routes[0].to_port, 0);
  // mid's port 0 and port 1 both dangle (no successors).
  EXPECT_TRUE(instance.routes(2, 0).empty());
  EXPECT_TRUE(instance.routes(2, 7).empty());  // never-used port: empty too
}

TEST(ProgramInstance, VertexRngStreamsAreIndependentAndStable) {
  const Program program = two_chain_program();
  ProgramInstance a(program);
  ProgramInstance b(program);
  // Same program => identical streams per vertex across instances.
  EXPECT_EQ(a.runtime(1).rng.next_u64(), b.runtime(1).rng.next_u64());
  // Different vertices => different streams.
  ProgramInstance c(program);
  EXPECT_NE(c.runtime(1).rng.next_u64(), c.runtime(2).rng.next_u64());
}

TEST(ProgramInstance, DifferentSeedsDifferentStreams) {
  spec::GraphBuilder b;
  b.add("src", model::factory_of<model::CounterSource>());
  const Program p1 = b.build(1);
  const Program p2 = b.build(2);
  ProgramInstance i1(p1);
  ProgramInstance i2(p2);
  EXPECT_NE(i1.runtime(1).rng.next_u64(), i2.runtime(1).rng.next_u64());
}

TEST(ExecuteVertex, SplitsDeliveriesAndSinkRecords) {
  const Program program = two_chain_program();
  ProgramInstance instance(program);
  // Execute the source: its port 0 routes to mid.
  ExecutionResult src_result = execute_vertex(instance, 1, 1, {});
  ASSERT_EQ(src_result.deliveries.size(), 1U);
  EXPECT_TRUE(src_result.sink_records.empty());
  EXPECT_EQ(src_result.emissions.size(), 1U);

  // Execute mid with that message: both its ports dangle -> sink records.
  event::InputBundle bundle{
      event::Message{0, src_result.deliveries[0].value}};
  ExecutionResult mid_result = execute_vertex(instance, 2, 1, bundle);
  EXPECT_TRUE(mid_result.deliveries.empty());
  ASSERT_EQ(mid_result.sink_records.size(), 2U);
  EXPECT_EQ(mid_result.sink_records[0].value.as_int(), 2);
  EXPECT_EQ(mid_result.sink_records[1].value.as_string(), "aux");
}

TEST(ExecuteVertex, ReusedResultStartsEmptyAndKeepsCapacity) {
  const Program program = two_chain_program();
  ProgramInstance instance(program);
  ExecutionResult result;
  execute_vertex(instance, 1, 1, {}, result);
  ASSERT_EQ(result.deliveries.size(), 1U);
  EXPECT_EQ(result.emissions.size(), 1U);
  const std::size_t capacity = result.deliveries.capacity();

  // Nothing of the source's output survives into mid's result.
  event::InputBundle bundle{event::Message{0, result.deliveries[0].value}};
  execute_vertex(instance, 2, 1, bundle, result);
  EXPECT_TRUE(result.deliveries.empty());
  EXPECT_EQ(result.deliveries.capacity(), capacity);
  EXPECT_EQ(result.emissions.size(), 2U);
  ASSERT_EQ(result.sink_records.size(), 2U);
  EXPECT_EQ(result.sink_records[0].value.as_int(), 2);
  EXPECT_EQ(result.sink_records[1].value.as_string(), "aux");
}

TEST(ExecuteVertex, LatestValuesPersistAcrossPhases) {
  spec::GraphBuilder b;
  const auto probe = b.add_lambda("probe", [](model::PhaseContext& ctx) {
    if (ctx.has_latest(0)) {
      ctx.emit(0, ctx.latest(0));
    }
  });
  (void)probe;
  const Program program = std::move(b).build(3);
  ProgramInstance instance(program);

  // Phase 1 delivers 7 on port 0 (as if external); phase 2 delivers
  // nothing — latest(0) must still read 7.
  event::InputBundle first{event::Message{0, event::Value(7.0)}};
  ExecutionResult r1 = execute_vertex(instance, 1, 1, first);
  ASSERT_EQ(r1.sink_records.size(), 1U);
  ExecutionResult r2 = execute_vertex(instance, 1, 2, {});
  ASSERT_EQ(r2.sink_records.size(), 1U);
  EXPECT_DOUBLE_EQ(r2.sink_records[0].value.as_double(), 7.0);
}

TEST(ExecuteVertex, LastMessagePerPortWins) {
  spec::GraphBuilder b;
  b.add_lambda("probe", [](model::PhaseContext& ctx) {
    ctx.emit(0, ctx.input(0));
  });
  const Program program = std::move(b).build(4);
  ProgramInstance instance(program);
  event::InputBundle bundle{event::Message{0, event::Value(1.0)},
                            event::Message{0, event::Value(2.0)}};
  const ExecutionResult result = execute_vertex(instance, 1, 1, bundle);
  ASSERT_EQ(result.sink_records.size(), 1U);
  EXPECT_DOUBLE_EQ(result.sink_records[0].value.as_double(), 2.0);
}

TEST(ProgramInstance, OutOfRangeAccessesAreChecked) {
  const Program program = two_chain_program();
  ProgramInstance instance(program);
  EXPECT_THROW(instance.runtime(0), support::check_error);
  EXPECT_THROW(instance.runtime(3), support::check_error);
  EXPECT_THROW(instance.original_id(0), support::check_error);
  EXPECT_THROW(instance.internal_index(99), support::check_error);
}

}  // namespace
}  // namespace df::core
