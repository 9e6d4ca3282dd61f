// Long-run stress and cross-configuration equivalence for the engine:
// beyond matching the sequential reference, every engine configuration
// (thread count x in-flight window x apply path) must produce *identical*
// sink streams, since the computation is deterministic and serializable.
#include <gtest/gtest.h>

#include <thread>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "model/detectors.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "random_program.hpp"
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

/// An observer that only counts transitions. Installing any observer makes
/// the engine apply every finished pair under the lock one at a time (the
/// per-pair path), whatever the thread count.
class CountingObserver final : public SchedulerObserver {
 public:
  void on_transition(Transition, std::uint32_t, event::PhaseId,
                     const Scheduler::Snapshot&) override {
    ++transitions;
  }
  std::uint64_t transitions = 0;
};

/// The three ways finished pairs reach the scheduler with several workers:
/// batched drains of the staging rings, the per-pair path an observer
/// forces, and staging rings so small that most pairs overflow to the
/// per-pair fallback.
enum class ApplyPath { kStaged, kPerPair, kTinyRing };
constexpr ApplyPath kApplyPaths[] = {ApplyPath::kStaged, ApplyPath::kPerPair,
                                     ApplyPath::kTinyRing};

void select_apply_path(ApplyPath path, EngineOptions& options,
                       CountingObserver& observer) {
  if (path == ApplyPath::kPerPair) {
    options.observer = &observer;
  } else if (path == ApplyPath::kTinyRing) {
    options.staging_ring_capacity = 2;
  }
}

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
      for (const ApplyPath path : kApplyPaths) {
        EngineOptions options;
        options.threads = threads;
        options.max_inflight_phases = window;
        CountingObserver observer;
        select_apply_path(path, options, observer);
        Engine engine(program, options);
        engine.run(800, nullptr);
        outputs.push_back(engine.sinks().canonical());
      }
    }
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i].size(), outputs[0].size())
        << "configuration " << i << " record count differs";
    EXPECT_EQ(outputs[i], outputs[0]) << "configuration " << i;
  }
  EXPECT_GT(outputs[0].size(), 100U) << "stress workload was trivial";
}

// A staging ring too small for the workload forces the try_push-failure
// fallback (apply directly under the lock) to interleave with batched
// drains; results must be unchanged.
TEST(EngineStress, TinyStagingRingFallbackMatchesReference) {
  const Program program = stress_program(1);
  EngineOptions options;
  options.threads = 6;
  options.max_inflight_phases = 16;
  options.staging_ring_capacity = 2;
  Engine engine(program, options);
  const auto report = trace::check_against_sequential(program, engine, 1200);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

// Teardown-race regression (the abandoning_/close() ordering audit): an
// engine destroyed with phases outstanding must let in-flight workers
// finish their current pair, observe the closed queue, read abandoning_ ==
// true, and exit — never trip the "run queue closed while work was
// outstanding" check, deadlock, or crash while staged finishes are still
// sitting in the delivery rings. Loop many configurations, over the stress
// workload and the randomized corpus, so destruction lands at many
// different points of the pipeline under every apply path (threads = 1
// also takes the per-pair path).
TEST(EngineStress, DestroyMidRunNeverTripsTeardownChecks) {
  for (const Program& program : {stress_program(4),
                                 testutil::random_program(27)}) {
    for (int iter = 0; iter < 60; ++iter) {
      EngineOptions options;
      options.threads = 1 + iter % 5;
      options.max_inflight_phases = 1 + iter % 9;
      CountingObserver observer;
      select_apply_path(kApplyPaths[iter % 3], options, observer);
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

// The per-pair path keeps one pair its own finish readied and runs it next
// instead of queueing it. An engine destroyed while workers hold such local
// pairs must drop them like queued ones — never trip the "run queue closed
// while work was outstanding" check, hang, or crash. Each configuration
// below takes the per-pair path: a single worker, an observer, and a
// staging ring small enough to overflow. Destruction waits until pairs are
// flowing, so it lands mid-chain rather than before the first dequeue.
TEST(EngineStress, DestroyWhileWorkersHoldLocalPairs) {
  struct Config {
    std::size_t threads;
    bool observe;
    std::size_t ring;
  };
  const Program program = stress_program(6);
  for (const Config config : {Config{1, false, 256}, Config{2, true, 256},
                              Config{2, false, 2}}) {
    for (int iter = 0; iter < 30; ++iter) {
      EngineOptions options;
      options.threads = config.threads;
      options.max_inflight_phases = 2 + static_cast<std::size_t>(iter) * 2;
      options.staging_ring_capacity = config.ring;
      CountingObserver observer;
      if (config.observe) {
        options.observer = &observer;
      }
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
// room is a phase retirement. If any apply path retired a phase without
// notifying progress_cv_, this configuration would deadlock on the second
// phase; with staged deliveries the retirement happens inside a batched
// drain, so this pins the drain path's notify too.
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
