// Tests for the tracer: Figure 3-style set-membership replay.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baseline/sequential.hpp"
#include "graph/generators.hpp"
#include "model/sources.hpp"
#include "model/synthetic.hpp"
#include "random_program.hpp"
#include "spec/builder.hpp"
#include "trace/tracer.hpp"

namespace df::trace {
namespace {

core::Program fig3_program() {
  // The Figure 3 graph with deterministic replay sources: v1 emits in phase
  // 1 only, v2 emits in phases 1 and 2 (mirroring the figure's narrative
  // where (1,2) "generated no output").
  const graph::Dag shape = graph::paper_figure3();
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    if (shape.name(v) == "v1") {
      ids.push_back(b.add("v1", model::factory_of<model::ReplaySource>(
                                    std::vector<std::optional<event::Value>>{
                                        event::Value(1.0), std::nullopt})));
    } else if (shape.name(v) == "v2") {
      ids.push_back(b.add("v2", model::factory_of<model::ReplaySource>(
                                    std::vector<std::optional<event::Value>>{
                                        event::Value(2.0),
                                        event::Value(3.0)})));
    } else {
      ids.push_back(
          b.add(shape.name(v), model::factory_of<model::ForwardModule>()));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(1);
}

TEST(Tracer, RecordsEveryTransition) {
  const core::Program program = testutil::random_program(7, 40);
  const std::vector<Step> steps = trace_schedule(program, 6);

  // First transition: phase 1 initiated, its sources full and ready.
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps[0].transition, Transition::kPhaseStarted);
  EXPECT_EQ(steps[0].phase, 1U);
  EXPECT_FALSE(steps[0].snapshot.ready.empty());
  EXPECT_TRUE(steps[0].snapshot.partial.empty());
  // Transitions = phase starts + pair completions, one pair per module
  // call of the sequential reference.
  std::size_t starts = 0;
  for (const Step& step : steps) {
    starts += step.transition == Transition::kPhaseStarted ? 1 : 0;
  }
  baseline::SequentialExecutor sequential(program);
  sequential.run(6, nullptr);
  EXPECT_EQ(starts, 6U);
  EXPECT_EQ(steps.size() - starts, sequential.stats().executed_pairs);
  // Every phase retired: no active phase, nothing in any set.
  const core::Scheduler::Snapshot& last = steps.back().snapshot;
  EXPECT_TRUE(last.x.empty());
  EXPECT_EQ(last.completed_through, 6U);
  EXPECT_TRUE(last.partial.empty());
  EXPECT_TRUE(last.full.empty());
}

TEST(Tracer, RenderShowsFigureLegend) {
  const std::vector<Step> steps = trace_schedule(fig3_program(), 1);
  ASSERT_FALSE(steps.empty());
  const std::string first = render_step(steps[0], 6);
  EXPECT_NE(first.find("phase 1 initiated"), std::string::npos);
  EXPECT_NE(first.find("[1]"), std::string::npos);  // source ready
  EXPECT_NE(first.find("[2]"), std::string::npos);

  bool saw_partial_marker = false;
  for (const Step& step : steps) {
    if (render_step(step, 6).find('<') != std::string::npos) {
      saw_partial_marker = true;
    }
  }
  EXPECT_TRUE(saw_partial_marker)
      << "no pair was ever observed in the partial set";
}

// Figure 3's trace as a one-worker engine runs it when both phases start
// before the first pair: phase 2's pairs run between phase 1's.
TEST(Tracer, Figure3TraceIsPipelinedAndDeterministic) {
  const core::Program program = fig3_program();
  const std::vector<Step> steps = trace_schedule(program, 2);
  using Named = std::pair<std::uint32_t, event::PhaseId>;
  const std::vector<Named> expected = {
      {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 1}, {4, 1}, {2, 2},
      {4, 2}, {3, 1}, {6, 1}, {3, 2}, {6, 2}, {5, 1}, {5, 2}};
  std::vector<Named> actual;
  for (const Step& step : steps) {
    EXPECT_EQ(step.transition == Transition::kPhaseStarted, step.vertex == 0);
    actual.emplace_back(step.vertex, step.phase);
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(trace_schedule(program, 2), steps);
}

}  // namespace
}  // namespace df::trace
