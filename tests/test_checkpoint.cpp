// Checkpoint round-trip tests in isolation (no transport, no crash
// machinery) — the state-capture half of crash-restart recovery
// (DESIGN.md, "Crash-restart recovery").
//
// Layer 1 — scheduler twin differential (mirror of
// test_scheduler_differential.cpp): a flat scheduler is driven through
// random phase/execution interleavings; at a random mid-run transition its
// snapshot_state image is restored into a fresh scheduler, and from then
// on both run in lockstep over identical inputs. After *every* subsequent
// transition the two must produce identical Snapshots and issue identical
// ready batches with identical sealed bundles. Issued-but-unfinished pairs
// at the checkpoint exercise the membership-only contract: the driver
// keeps their bundles and re-presents them to both schedulers.
//
// Layer 2 — engine round-trip over the random Δ-program corpus: run K
// phases, quiesce, snapshot; restore into a fresh engine and run the
// remaining phases. The checkpoint's sink prefix plus the resumed run's
// sink suffix must be byte-identical to an uninterrupted twin (module
// state, rng streams, and the latest-value cache all resume exactly).
//
// Layer 3 — image rejection (same strictness discipline as
// test_wire.cpp): truncated, bit-flipped, wrong-version, wrong-magic, and
// wrong-geometry images must fail restore_state with a loud
// support::check_error (no UB under ASan/UBSan), and recovery must be able
// to fall back to the previous intact checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "core/sink_store.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
#include "random_program.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

namespace df::core {
namespace {

using graph::Dag;
using graph::Numbering;

std::vector<std::vector<std::uint32_t>> internal_successors(
    const Dag& dag, const Numbering& numbering) {
  std::vector<std::vector<std::uint32_t>> succs(dag.vertex_count() + 1);
  for (const graph::Edge& e : dag.edges()) {
    succs[numbering.index_of[e.from]].push_back(numbering.index_of[e.to]);
  }
  return succs;
}

// --- layer 1: scheduler snapshot -> restore -> lockstep twin ----------------

class SchedulerCheckpointResume
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerCheckpointResume, RestoredTwinMatchesAfterEveryTransition) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);

  const Dag dag = graph::random_dag(
      5 + static_cast<std::uint32_t>(seed % 27), 0.3, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  const auto succs = internal_successors(dag, numbering);

  Scheduler live(numbering.m);
  std::optional<Scheduler> resumed;  // engaged once the checkpoint is taken

  struct Issued {
    std::uint32_t vertex;
    event::PhaseId phase;
    event::InputBundle bundle;
  };
  std::vector<Issued> issued;
  const event::PhaseId total_phases = 12;
  event::PhaseId started = 0;
  std::size_t transitions = 0;
  // The workload performs at least total_phases * (n + 1) transitions, so
  // this trigger always fires mid-run, usually with pairs issued (the
  // membership-only part of the image).
  const std::size_t checkpoint_at = 3 + rng.next_below(25);

  std::vector<Scheduler::ReadyPair> live_ready;
  std::vector<Scheduler::ReadyPair> twin_ready;

  // After the live transition (and its twin copy, once engaged): compare
  // ready batches, keep the live bundles for later finishes, and diff the
  // full set snapshots.
  const auto absorb = [&] {
    if (resumed.has_value()) {
      ASSERT_EQ(live_ready.size(), twin_ready.size());
      for (std::size_t i = 0; i < live_ready.size(); ++i) {
        EXPECT_EQ(live_ready[i].vertex, twin_ready[i].vertex);
        EXPECT_EQ(live_ready[i].phase, twin_ready[i].phase);
        EXPECT_EQ(live_ready[i].bundle, twin_ready[i].bundle)
            << "bundle mismatch at vertex " << live_ready[i].vertex;
      }
      EXPECT_EQ(live.snapshot(), resumed->snapshot())
          << "snapshot divergence after restore (seed " << seed << ")";
    }
    for (auto& pair : live_ready) {
      issued.push_back(Issued{pair.vertex, pair.phase,
                              std::move(pair.bundle)});
    }
    live_ready.clear();
    twin_ready.clear();
  };

  while (started < total_phases || !issued.empty()) {
    const bool start_now = started < total_phases &&
                           (issued.empty() || rng.next_bernoulli(0.35));
    if (start_now) {
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
      live.start_phase(started, std::span<event::InputBundle>(bundles),
                       live_ready);
      if (resumed.has_value()) {
        resumed->start_phase(started,
                             std::span<event::InputBundle>(bundles_copy),
                             twin_ready);
      }
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
          deliveries.push_back(Scheduler::Delivery{w, 0,
                                                   event::Value(payload)});
          deliveries_copy.push_back(
              Scheduler::Delivery{w, 0, event::Value(payload)});
        }
      }
      event::InputBundle bundle_copy = pair.bundle;  // twin recycles its own
      live.finish_execution(pair.vertex, pair.phase,
                            std::span<Scheduler::Delivery>(deliveries),
                            std::move(pair.bundle), live_ready);
      if (resumed.has_value()) {
        resumed->finish_execution(
            pair.vertex, pair.phase,
            std::span<Scheduler::Delivery>(deliveries_copy),
            std::move(bundle_copy), twin_ready);
      }
    }
    absorb();

    ++transitions;
    if (!resumed.has_value() && transitions >= checkpoint_at) {
      // Checkpoint: serialize the live scheduler mid-run and rebuild a
      // twin from the image. Issued pairs stay with the driver (`issued`)
      // — both schedulers now expect the same finish_execution calls.
      const std::vector<std::uint8_t> image = live.snapshot_state();
      resumed.emplace(numbering.m);
      resumed->restore_state(image);
      EXPECT_EQ(live.snapshot(), resumed->snapshot())
          << "snapshot divergence immediately after restore (seed " << seed
          << ", " << issued.size() << " pairs issued)";
    }
  }

  ASSERT_TRUE(resumed.has_value()) << "checkpoint trigger never fired";
  EXPECT_TRUE(live.all_started_phases_complete());
  EXPECT_TRUE(resumed->all_started_phases_complete());
  EXPECT_EQ(live.completed_through(), total_phases);
  EXPECT_EQ(resumed->completed_through(), total_phases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerCheckpointResume,
                         ::testing::Range<std::uint64_t>(0, 20));

// --- layer 2: engine snapshot -> restore -> resume --------------------------

const std::vector<event::ExternalEvent> kNoEvents;

class EngineCheckpointResume : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineCheckpointResume, ResumedRunMatchesUninterruptedTwin) {
  const std::uint64_t seed = GetParam();
  const Program program = testutil::random_program(seed);
  const event::PhaseId phases = 24;
  const event::PhaseId checkpoint_phase = 10;
  EngineOptions options;
  options.threads = 2;

  // The uninterrupted twin.
  Engine twin(program, options);
  twin.start();
  for (event::PhaseId p = 1; p <= phases; ++p) {
    twin.start_phase(kNoEvents);
  }
  twin.finish();

  // The interrupted pair: first engine runs to the checkpoint and stops
  // (its image and sink prefix survive, as the supervisor's checkpoint
  // does); second engine restores and runs the rest.
  SinkStore combined;
  std::vector<std::uint8_t> image;
  {
    Engine first(program, options);
    first.start();
    for (event::PhaseId p = 1; p <= checkpoint_phase; ++p) {
      first.start_phase(kNoEvents);
    }
    first.quiesce();
    image = first.snapshot_state();
    first.finish();
    EXPECT_EQ(first.completed_phases(), checkpoint_phase);
    combined.record_batch(first.sinks().canonical());
  }
  {
    Engine second(program, options);
    second.start();
    second.restore_state(image);
    for (event::PhaseId p = checkpoint_phase + 1; p <= phases; ++p) {
      second.start_phase(kNoEvents);
    }
    second.finish();
    EXPECT_EQ(second.completed_phases(), phases);
    combined.record_batch(second.sinks().canonical());
  }

  const auto report = trace::compare_sinks(twin.sinks(), combined);
  EXPECT_TRUE(report.equivalent) << "seed " << seed << "\n"
                                 << report.summary();
  EXPECT_GT(twin.sinks().size(), 0U) << "workload produced no sink output";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineCheckpointResume,
                         ::testing::Range<std::uint64_t>(0, 10));

// --- layer 3: image rejection ------------------------------------------------

/// Runs `k` phases on a fresh engine and returns its sealed checkpoint
/// image (and, optionally, the canonical sink prefix at the checkpoint).
std::vector<std::uint8_t> image_after(const Program& program,
                                      event::PhaseId k,
                                      std::vector<SinkRecord>* sinks_out =
                                          nullptr) {
  EngineOptions options;
  options.threads = 2;
  Engine engine(program, options);
  engine.start();
  for (event::PhaseId p = 1; p <= k; ++p) {
    engine.start_phase(kNoEvents);
  }
  engine.quiesce();
  std::vector<std::uint8_t> image = engine.snapshot_state();
  if (sinks_out != nullptr) {
    *sinks_out = engine.sinks().canonical();
  }
  engine.finish();
  return image;
}

void expect_restore_rejects(const Program& program,
                            const std::vector<std::uint8_t>& image,
                            const char* what) {
  EngineOptions options;
  options.threads = 2;
  Engine engine(program, options);
  engine.start();
  EXPECT_THROW(engine.restore_state(image), support::check_error) << what;
  engine.finish();  // nothing started; the broken engine is discarded
}

TEST(CheckpointImageRejection, TruncatedImagesFailLoudly) {
  const Program program = testutil::random_program(1);
  const std::vector<std::uint8_t> image = image_after(program, 6);
  ASSERT_GT(image.size(), 16U);
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{7}, image.size() / 2,
        image.size() - 1}) {
    std::vector<std::uint8_t> torn = image;
    torn.resize(cut);
    expect_restore_rejects(program, torn, "truncated image");
  }
}

TEST(CheckpointImageRejection, BitFlipsFailTheChecksum) {
  const Program program = testutil::random_program(1);
  const std::vector<std::uint8_t> image = image_after(program, 6);
  // Header, body, and trailer positions: every flip must trip the FNV-1a
  // trailer (or, for trailer flips, the comparison against the body hash).
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{5}, image.size() / 3, image.size() / 2,
        image.size() - 3}) {
    std::vector<std::uint8_t> flipped = image;
    flipped[offset] ^= 0x10;
    expect_restore_rejects(program, flipped, "bit-flipped image");
  }
}

TEST(CheckpointImageRejection, WrongVersionAndMagicFailAfterReseal) {
  // A checksum-valid image with a tampered header: strip the trailer,
  // corrupt the field, re-seal. The version/magic checks must catch what
  // the checksum no longer can.
  const Program program = testutil::random_program(1);
  const std::vector<std::uint8_t> image = image_after(program, 6);
  const std::vector<std::uint8_t> body = open_image(image, "engine");

  std::vector<std::uint8_t> wrong_version = body;
  wrong_version[4] ^= 0xFF;  // version u32 LE at offset 4
  expect_restore_rejects(program, seal_image(std::move(wrong_version)),
                         "wrong-version image");

  std::vector<std::uint8_t> wrong_magic = body;
  wrong_magic[0] ^= 0xFF;  // magic u32 LE at offset 0
  expect_restore_rejects(program, seal_image(std::move(wrong_magic)),
                         "wrong-magic image");
}

TEST(CheckpointImageRejection, SchedulerImageGeometryAndCorruption) {
  support::Rng rng(7);
  const Dag dag = graph::random_dag(10, 0.3, rng);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);

  Scheduler scheduler(numbering.m);
  std::vector<event::InputBundle> bundles(numbering.m[0]);
  std::vector<Scheduler::ReadyPair> ready;
  scheduler.start_phase(1, std::span<event::InputBundle>(bundles), ready);
  const std::vector<std::uint8_t> image = scheduler.snapshot_state();

  std::vector<std::uint8_t> torn = image;
  torn.resize(image.size() / 2);
  {
    Scheduler fresh(numbering.m);
    EXPECT_THROW(fresh.restore_state(torn), support::check_error);
  }
  std::vector<std::uint8_t> flipped = image;
  flipped[image.size() / 2] ^= 0x01;
  {
    Scheduler fresh(numbering.m);
    EXPECT_THROW(fresh.restore_state(flipped), support::check_error);
  }
  {
    // Intact image into a scheduler with different geometry: the m-vector
    // validation must reject it before any state is interpreted.
    std::vector<std::uint32_t> other_m = numbering.m;
    other_m.push_back(other_m.back() + 1);
    Scheduler fresh(other_m);
    EXPECT_THROW(fresh.restore_state(image), support::check_error);
  }
}

TEST(CheckpointImageRejection, FallsBackToPreviousIntactCheckpoint) {
  // The supervisor's fallback discipline end to end: the newest image is
  // corrupt, so recovery discards the half-restored engine, restores the
  // previous checkpoint, and re-executes forward — output still
  // byte-identical to the uninterrupted twin.
  const Program program = testutil::random_program(2);
  const event::PhaseId phases = 20;
  EngineOptions options;
  options.threads = 2;

  Engine twin(program, options);
  twin.start();
  for (event::PhaseId p = 1; p <= phases; ++p) {
    twin.start_phase(kNoEvents);
  }
  twin.finish();

  // One run, two checkpoints (phase 6 and phase 12); the later one is
  // then corrupted in "storage".
  std::vector<std::uint8_t> early_image;
  std::vector<std::uint8_t> late_image;
  std::vector<SinkRecord> sinks_at_early;
  {
    Engine first(program, options);
    first.start();
    for (event::PhaseId p = 1; p <= 6; ++p) {
      first.start_phase(kNoEvents);
    }
    first.quiesce();
    early_image = first.snapshot_state();
    sinks_at_early = first.sinks().canonical();
    for (event::PhaseId p = 7; p <= 12; ++p) {
      first.start_phase(kNoEvents);
    }
    first.quiesce();
    late_image = first.snapshot_state();
    first.finish();
  }
  late_image[late_image.size() / 2] ^= 0x04;

  expect_restore_rejects(program, late_image, "corrupt newest checkpoint");

  SinkStore combined;
  combined.record_batch(sinks_at_early);
  {
    Engine second(program, options);
    second.start();
    second.restore_state(early_image);
    for (event::PhaseId p = 7; p <= phases; ++p) {
      second.start_phase(kNoEvents);
    }
    second.finish();
    EXPECT_EQ(second.completed_phases(), phases);
    combined.record_batch(second.sinks().canonical());
  }
  const auto report = trace::compare_sinks(twin.sinks(), combined);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

}  // namespace
}  // namespace df::core
