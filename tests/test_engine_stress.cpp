// Long-run stress and cross-configuration equivalence for the engine:
// beyond matching the sequential reference, every engine configuration
// (thread count x in-flight window) must produce *identical* sink streams,
// since the computation is deterministic and serializable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "baseline/sequential.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "model/detectors.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "random_program.hpp"
#include "skewed_program.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

namespace df::core {
namespace {

Program stress_program(std::uint64_t seed) {
  support::Rng rng(seed);
  const graph::Dag shape = graph::layered(5, 4, 2, rng);
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    if (fan_in == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::RandomWalkSource>(
                              0.0, 1.0, 0.8)));
    } else if (shape.is_sink(v)) {
      // Bool-emitting detectors only at sinks, so numeric folds upstream
      // never receive a boolean.
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::ThresholdDetector>(0.0)));
    } else if (v % 2 == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::SumModule>(fan_in)));
    } else {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::EwmaModule>(0.3)));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(seed);
}

// Eight workers contend for the global lock, each applying its own finish
// pair by pair, over 5000 phases.
TEST(EngineStress, LongRunManyThreadsMatchesReference) {
  const Program program = stress_program(1);
  EngineOptions options;
  options.threads = 8;
  options.max_inflight_phases = 16;
  Engine engine(program, options);
  const auto report = trace::check_against_sequential(program, engine, 5000);
  EXPECT_TRUE(report.equivalent) << report.summary();
  EXPECT_EQ(engine.stats().phases_completed, 5000U);
}

TEST(EngineStress, AllConfigurationsProduceIdenticalSinks) {
  const Program program = stress_program(2);
  std::vector<std::vector<SinkRecord>> outputs;
  for (const std::size_t threads : {1UL, 2UL, 5UL}) {
    for (const std::size_t window : {1UL, 3UL, 0UL /*unbounded*/}) {
      EngineOptions options;
      options.threads = threads;
      options.max_inflight_phases = window;
      Engine engine(program, options);
      engine.run(800, nullptr);
      outputs.push_back(engine.sinks().canonical());
    }
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i].size(), outputs[0].size())
        << "configuration " << i << " record count differs";
    EXPECT_EQ(outputs[i], outputs[0]) << "configuration " << i;
  }
  EXPECT_GT(outputs[0].size(), 100U) << "stress workload was trivial";
}

// Teardown-race regression (the abandoning_/close() ordering audit): an
// engine destroyed with phases outstanding must let in-flight workers
// finish their current pair, observe the closed queue, read abandoning_ ==
// true, and exit — never trip the "run queue closed while work was
// outstanding" check, deadlock, or crash. Loop many configurations, over
// the stress workload and the randomized corpus, so destruction lands at
// many different points of the pipeline.
TEST(EngineStress, DestroyMidRunNeverTripsTeardownChecks) {
  for (const Program& program : {stress_program(4),
                                 testutil::random_program(27)}) {
    for (int iter = 0; iter < 60; ++iter) {
      EngineOptions options;
      options.threads = 1 + iter % 5;
      options.max_inflight_phases = 1 + iter % 9;
      Engine engine(program, options);
      engine.start();
      const int phases = iter % 8;
      for (int p = 0; p < phases; ++p) {
        engine.start_phase({});
      }
      // Destructor runs here with up to `phases` phases outstanding.
    }
  }
}

// A worker keeps one pair its own finish readied and runs it next instead
// of queueing it. An engine destroyed while workers hold such local pairs
// must drop them like queued ones — never trip the "run queue closed while
// work was outstanding" check, hang, or crash. Destruction waits until
// pairs are flowing, so it lands mid-chain rather than before the first
// dequeue.
TEST(EngineStress, DestroyWhileWorkersHoldLocalPairs) {
  const Program program = stress_program(6);
  for (const std::size_t threads : {1UL, 2UL, 4UL}) {
    for (int iter = 0; iter < 30; ++iter) {
      EngineOptions options;
      options.threads = threads;
      options.max_inflight_phases = 2 + static_cast<std::size_t>(iter) * 2;
      Engine engine(program, options);
      engine.start();
      const std::size_t phases = 8 + static_cast<std::size_t>(iter) % 16;
      for (std::size_t p = 0; p < phases; ++p) {
        engine.start_phase({});
      }
      const std::uint64_t flowing = 1 + static_cast<std::uint64_t>(iter);
      while (engine.stats().executed_pairs < flowing &&
             engine.completed_phases() < phases) {
        std::this_thread::yield();
      }
      // Destructor runs here, usually with pairs held worker-local.
    }
  }
}

// Backpressure regression for the 1-phase window: start_phase may only
// proceed when the window has room, and the only transition that makes
// room is a phase retirement. If a worker's finish retired a phase without
// notifying progress_cv_, this configuration would deadlock on the second
// phase.
TEST(EngineStress, SingleInflightWindowSustainsThroughput) {
  const Program program = stress_program(5);
  EngineOptions options;
  options.threads = 4;
  options.max_inflight_phases = 1;
  Engine engine(program, options);
  engine.run(1500, nullptr);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.phases_completed, 1500U);
  EXPECT_EQ(stats.max_inflight_phases, 1U);
}

// The progress wake rule (DESIGN.md, "Wake only when the waiter can
// proceed") at the edges of its admission batch max(1, W/8): one slot for
// windows 1-15, two for 16 and 17, eight for 64. start_phase waits for
// window room while quiesce() and finish() wait for completion, with one
// worker and with three. The on_phase_complete hook sleeps on every 5th
// call, holding its worker like a blocked channel send. A lost wake-up
// hangs this test; a wrong admission target overruns the window.
TEST(EngineStress, ProgressWaitersAcrossWindowsAndThreadCounts) {
  const Program program = stress_program(2);
  constexpr event::PhaseId kPhases = 600;
  baseline::SequentialExecutor reference(program);
  reference.run(kPhases, nullptr);
  const std::vector<SinkRecord> expected = reference.sinks().canonical();
  ASSERT_GT(expected.size(), 100U) << "stress workload was trivial";
  for (const std::size_t window : {1UL, 2UL, 15UL, 16UL, 17UL, 64UL}) {
    for (const std::size_t threads : {1UL, 3UL}) {
      EngineOptions options;
      options.threads = threads;
      options.max_inflight_phases = window;
      std::atomic<std::uint64_t> hook_calls{0};
      options.on_phase_complete = [&hook_calls](event::PhaseId) {
        if (hook_calls.fetch_add(1) % 5 == 4) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      };
      Engine engine(program, options);
      engine.start();
      for (event::PhaseId p = 1; p <= kPhases; ++p) {
        engine.start_phase({});
        if (p % 50 == 0) {
          engine.quiesce();
        }
      }
      engine.finish();
      const std::string config = "window " + std::to_string(window) +
                                 ", threads " + std::to_string(threads);
      EXPECT_EQ(engine.sinks().canonical(), expected) << config;
      EXPECT_LE(engine.stats().max_inflight_phases, window) << config;
    }
  }
}

// The unit re-cut (DESIGN.md, "Unit scheduling") on strongly skewed member
// costs: once every unit has its timed pairs the engine drains, installs
// the cost-cut plan and a fresh scheduler, and runs on. Every window and
// thread count runs well past the re-cut and must match the sequential
// reference in sinks and executed pairs, and snapshot afterwards. Wherever
// the window admits a plan (some U >= max(threads, 2) units no more than
// the window; the sources and the rest need a unit each), every plan the
// rule can choose here has another unit count than the starting plan, so
// the count shows that the re-cut happened; elsewhere the plan stays.
TEST(EngineStress, RecutOnSkewedCostsMatchesReferenceAtEveryWindow) {
  const Program program = testutil::skewed_program(50'000);
  constexpr event::PhaseId kPhases = 1200;
  baseline::SequentialExecutor reference(program);
  reference.run(kPhases, nullptr);
  const std::vector<SinkRecord> expected = reference.sinks().canonical();
  ASSERT_GT(expected.size(), 100U) << "skewed workload was trivial";
  for (const std::size_t window : {1UL, 2UL, 4UL, 16UL, 64UL}) {
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      const std::string config = "window " + std::to_string(window) +
                                 ", threads " + std::to_string(threads);
      EngineOptions options;
      options.threads = threads;
      options.max_inflight_phases = window;
      const std::size_t starting_units =
          plan_units(testutil::kSkewedVertices, testutil::kSkewedSources,
                     threads, window)
              .size() -
          1;
      Engine engine(program, options);
      engine.start();
      for (event::PhaseId p = 1; p <= kPhases; ++p) {
        engine.start_phase({});
      }
      engine.quiesce();
      EXPECT_NO_THROW(engine.snapshot_state()) << config;
      engine.finish();
      EXPECT_EQ(engine.sinks().canonical(), expected) << config;
      const ExecStats stats = engine.stats();
      EXPECT_EQ(stats.executed_pairs, reference.stats().executed_pairs)
          << config;
      if (std::max<std::size_t>(threads, 2) <= window) {
        EXPECT_NE(stats.units, starting_units) << config;
        EXPECT_LE(stats.units, window) << config;
        EXPECT_GE(stats.units, threads) << config;
      } else {
        EXPECT_EQ(stats.units, starting_units) << config;
      }
    }
  }
}

TEST(EngineStress, RepeatedRunsOfSameConfigAreBitIdentical) {
  const Program program = stress_program(3);
  std::vector<SinkRecord> first;
  for (int run = 0; run < 3; ++run) {
    Engine engine(program, {.threads = 4});
    engine.run(600, nullptr);
    if (run == 0) {
      first = engine.sinks().canonical();
    } else {
      EXPECT_EQ(engine.sinks().canonical(), first) << "run " << run;
    }
  }
}

}  // namespace
}  // namespace df::core
