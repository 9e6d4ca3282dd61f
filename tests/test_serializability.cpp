// The paper's central correctness property, as a parameterized sweep:
// for random graphs, random Δ-workloads, random thread counts and feeds,
// the parallel engine's sink streams must be identical to the sequential
// phase-at-a-time reference ("the logical effect must be the same as
// executing only one phase at a time in serial order", section 2).
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/lockstep.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "model/detectors.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "model/synthetic.hpp"
#include "random_program.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

namespace df {
namespace {

// The randomized Δ-program corpus lives in random_program.hpp, shared with
// the partitioned-transport differential suite (test_transport.cpp).
using testutil::random_program;

using Case = std::tuple<std::uint64_t /*seed*/, std::size_t /*threads*/>;

using EngineCase = std::tuple<std::uint64_t /*seed*/, std::size_t /*threads*/,
                               std::size_t /*max_inflight_phases*/>;

class EngineSerializability : public ::testing::TestWithParam<EngineCase> {};

// The engine's whole configuration space: worker count x in-flight window.
TEST_P(EngineSerializability, EngineEqualsSequential) {
  const auto [seed, threads, window] = GetParam();
  const core::Program program = random_program(seed);
  core::EngineOptions options;
  options.threads = threads;
  options.max_inflight_phases = window;
  core::Engine engine(program, options);
  const auto report = trace::check_against_sequential(program, engine, 150);
  EXPECT_TRUE(report.equivalent) << report.summary();
  EXPECT_GT(report.reference_records, 0U) << "workload produced no output";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsThreadsAndWindows, EngineSerializability,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 10),
                       ::testing::Values<std::size_t>(1, 2, 4),
                       ::testing::Values<std::size_t>(1, 4, 64)));

class LockstepSerializability : public ::testing::TestWithParam<Case> {};

TEST_P(LockstepSerializability, LockstepEqualsSequential) {
  const auto [seed, threads] = GetParam();
  const core::Program program = random_program(seed + 1000);
  baseline::LockstepExecutor lockstep(program, threads);
  const auto report =
      trace::check_against_sequential(program, lockstep, 150);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, LockstepSerializability,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 5),
                       ::testing::Values<std::size_t>(1, 4)));

// External feeds: the same per-phase batches go to all executors.
class FeedSerializability
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeedSerializability, ExternalEventsPreserveEquivalence) {
  const std::uint64_t seed = GetParam();
  spec::GraphBuilder b;
  const auto sensor_a =
      b.add("sensor_a", model::factory_of<model::ExternalPassthroughSource>());
  const auto sensor_b =
      b.add("sensor_b", model::factory_of<model::ExternalPassthroughSource>());
  const auto join = b.add(
      "join", model::factory_of<model::SnapshotJoinModule>(std::size_t{2}));
  const auto avg = b.add("avg", model::factory_of<model::MovingAverageModule>(
                                    std::size_t{4}));
  b.connect(sensor_a, 0, join, 0);
  b.connect(sensor_b, 0, join, 1);
  b.connect(sensor_a, avg);
  const core::Program program = std::move(b).build(seed);

  // Random sparse batches: some phases carry events, some do not.
  support::Rng rng(seed ^ 0xfeedULL);
  std::vector<std::vector<event::ExternalEvent>> batches(120);
  for (auto& batch : batches) {
    if (rng.next_bernoulli(0.4)) {
      batch.push_back(event::ExternalEvent{sensor_a, 0,
                                           event::Value(rng.next_double())});
    }
    if (rng.next_bernoulli(0.3)) {
      batch.push_back(event::ExternalEvent{sensor_b, 0,
                                           event::Value(rng.next_double())});
    }
  }

  core::Engine engine(program, {.threads = 4});
  const auto report = trace::check_against_sequential(
      program, engine, batches.size(), batches);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedSerializability,
                         ::testing::Range<std::uint64_t>(0, 8));

// Paper figure graphs under load.
TEST(Serializability, Figure2GraphUnderLoad) {
  const graph::Dag shape = graph::paper_figure2();
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    if (shape.in_degree(v) == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::GaussianSource>(
                              0.0, 1.0, 0.6)));
    } else {
      ids.push_back(b.add(shape.name(v), model::factory_of<model::SumModule>(
                                             shape.in_degree(v))));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  const core::Program program = std::move(b).build(77);
  core::Engine engine(program, {.threads = 3});
  const auto report = trace::check_against_sequential(program, engine, 500);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

}  // namespace
}  // namespace df
