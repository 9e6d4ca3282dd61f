// Checkpoint round-trip tests in isolation (no transport, no crash
// machinery) — the state-capture half of crash-restart recovery
// (DESIGN.md, "Crash-restart recovery"). An engine image holds the
// completed phase and per-vertex state, nothing of the scheduler's sets
// or the unit plan (DESIGN.md, "Checkpoint images").
//
// Layer 1 — engine round-trip over the random Δ-program corpus: run K
// phases, quiesce, snapshot; restore into a fresh engine and run the
// remaining phases. The checkpoint's sink prefix plus the resumed run's
// sink suffix must be byte-identical to an uninterrupted twin (module
// state, rng streams, and the latest-value cache all resume exactly), also
// when the restoring engine runs another thread count, window, and hence
// unit plan. A seeded external -> zscore -> threshold -> majority graph
// covers the stateful detector and gate modules the corpus does not build.
//
// Layer 2 — image rejection (same strictness discipline as
// test_wire.cpp): truncated, bit-flipped, wrong-version, wrong-magic, and
// other-program images must fail restore_state with a loud
// support::check_error (no UB under ASan/UBSan), a snapshot with a phase
// in flight must throw, and recovery must be able to fall back to the
// previous intact checkpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/sink_store.hpp"
#include "model/detectors.hpp"
#include "model/logic.hpp"
#include "model/sources.hpp"
#include "random_program.hpp"
#include "spec/builder.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

namespace df::core {
namespace {

// --- layer 1: engine snapshot -> restore -> resume --------------------------

const std::vector<event::ExternalEvent> kNoEvents;

/// Runs `phases` phases straight through on one engine, and again as a
/// checkpoint after `checkpoint_phase` restored into a second engine built
/// with `restore_options`; the two sink streams must be byte-identical.
void expect_resume_matches_twin(const Program& program,
                                const EngineOptions& options,
                                const EngineOptions& restore_options,
                                event::PhaseId phases,
                                event::PhaseId checkpoint_phase,
                                const std::string& where) {
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
    EXPECT_EQ(first.completed_phases(), checkpoint_phase) << where;
    combined.record_batch(first.sinks().canonical());
  }
  {
    Engine second(program, restore_options);
    second.start();
    second.restore_state(image);
    EXPECT_EQ(second.completed_phases(), checkpoint_phase) << where;
    for (event::PhaseId p = checkpoint_phase + 1; p <= phases; ++p) {
      second.start_phase(kNoEvents);
    }
    second.finish();
    EXPECT_EQ(second.completed_phases(), phases) << where;
    combined.record_batch(second.sinks().canonical());
  }

  const auto report = trace::compare_sinks(twin.sinks(), combined);
  EXPECT_TRUE(report.equivalent) << where << "\n" << report.summary();
  EXPECT_GT(twin.sinks().size(), 0U) << where << ": no sink output";
}

class EngineCheckpointResume : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineCheckpointResume, ResumedRunMatchesUninterruptedTwin) {
  const std::uint64_t seed = GetParam();
  EngineOptions options;
  options.threads = 2;
  expect_resume_matches_twin(testutil::random_program(seed), options,
                             options, 24, 10,
                             "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineCheckpointResume,
                         ::testing::Range<std::uint64_t>(0, 10));

// The same round trip on 40-vertex programs, where every plan has
// multi-member units (DESIGN.md, "Unit scheduling"). The image holds no
// unit state, so it also resumes under the other thread count's plan.
class EngineCheckpointResumeUnits
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineCheckpointResumeUnits, ResumedRunMatchesUninterruptedTwin) {
  const std::uint64_t seed = GetParam();
  const Program program = testutil::random_program(seed, 40);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    EngineOptions options;
    options.threads = threads;
    {
      Engine probe(program, options);
      EXPECT_EQ(probe.stats().units, 2 * threads) << "not two units per worker";
    }
    for (const std::size_t restore_threads :
         {std::size_t{1}, std::size_t{3}}) {
      EngineOptions restore_options;
      restore_options.threads = restore_threads;
      expect_resume_matches_twin(
          program, options, restore_options, 32, 13,
          "seed " + std::to_string(seed) + " threads " +
              std::to_string(threads) + " -> " +
              std::to_string(restore_threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineCheckpointResumeUnits,
                         ::testing::Range<std::uint64_t>(0, 6));

// An image taken at 2 threads (4 units) resumes at 1 thread (2 units), at
// 4 threads (8 units), and at 4 threads under a window of 2, narrower than
// the unit count, where every vertex is its own unit.
TEST(EngineCheckpointCrossPlan, TwoThreadImageResumesAtOneAndFourThreads) {
  const Program program = testutil::random_program(3, 40);
  EngineOptions options;
  options.threads = 2;
  struct Restore {
    std::size_t threads;
    std::size_t window;
    std::uint64_t units;
  };
  for (const Restore restore : {Restore{1, 64, 2}, Restore{4, 64, 8},
                                Restore{4, 2, 40}}) {
    EngineOptions restore_options;
    restore_options.threads = restore.threads;
    restore_options.max_inflight_phases = restore.window;
    {
      Engine probe(program, restore_options);
      EXPECT_EQ(probe.stats().units, restore.units);
    }
    expect_resume_matches_twin(
        program, options, restore_options, 32, 13,
        "restored at threads " + std::to_string(restore.threads) +
            ", window " + std::to_string(restore.window));
  }
}

// Stateful detectors and gates (zscore history, threshold level, majority's
// last output) must resume exactly: the random corpus above never builds
// them, so this graph does. Four external streams each run through zscore
// -> threshold into one majority gate, fed seeded readings with rare
// spikes so every stage both fires and clears.
TEST(DetectorCheckpointResume, StatefulModulesMatchUninterruptedTwin) {
  constexpr std::size_t kStreams = 4;
  spec::GraphBuilder b;
  std::vector<graph::VertexId> sensors;
  std::vector<graph::VertexId> alarms;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::string tag = std::to_string(s);
    sensors.push_back(b.add(
        "sensor" + tag, model::factory_of<model::ExternalPassthroughSource>()));
    const graph::VertexId z = b.add(
        "zscore" + tag, model::factory_of<model::ZScoreDetector>(16, 1.5, 4));
    alarms.push_back(b.add(
        "alarm" + tag, model::factory_of<model::ThresholdDetector>(0.0)));
    b.connect(sensors.back(), z);
    b.connect(z, alarms.back());
  }
  const graph::VertexId vote =
      b.add("vote", model::factory_of<model::MajorityGate>(kStreams, 2));
  for (std::size_t s = 0; s < kStreams; ++s) {
    b.connect(alarms[s], 0, vote, static_cast<graph::Port>(s));
  }
  const Program program = std::move(b).build(5);

  const event::PhaseId phases = 160;
  const event::PhaseId checkpoint_phase = 80;
  support::Rng rng(2024);
  std::vector<std::vector<event::ExternalEvent>> batches(phases + 1);
  for (event::PhaseId p = 1; p <= phases; ++p) {
    for (const graph::VertexId sensor : sensors) {
      if (rng.next_bernoulli(0.8)) {
        const double spike = rng.next_bernoulli(0.08) ? 6.0 : 0.0;
        const double sign = rng.next_bernoulli(0.5) ? 1.0 : -1.0;
        batches[p].push_back(event::ExternalEvent{
            sensor, 0, event::Value(rng.next_normal() + sign * spike)});
      }
    }
  }
  EngineOptions options;
  options.threads = 2;

  Engine twin(program, options);
  twin.start();
  for (event::PhaseId p = 1; p <= phases; ++p) {
    twin.start_phase(batches[p]);
  }
  twin.finish();

  SinkStore combined;
  std::vector<std::uint8_t> image;
  {
    Engine first(program, options);
    first.start();
    for (event::PhaseId p = 1; p <= checkpoint_phase; ++p) {
      first.start_phase(batches[p]);
    }
    first.quiesce();
    image = first.snapshot_state();
    first.finish();
    combined.record_batch(first.sinks().canonical());
  }
  {
    Engine second(program, options);
    second.start();
    second.restore_state(image);
    for (event::PhaseId p = checkpoint_phase + 1; p <= phases; ++p) {
      second.start_phase(batches[p]);
    }
    second.finish();
    combined.record_batch(second.sinks().canonical());
  }

  const auto report = trace::compare_sinks(twin.sinks(), combined);
  EXPECT_TRUE(report.equivalent) << report.summary();
  std::size_t late_votes = 0;
  for (const SinkRecord& record : twin.sinks().canonical()) {
    late_votes += record.phase > checkpoint_phase ? 1 : 0;
  }
  EXPECT_GE(late_votes, 4U) << "the vote never changed after the checkpoint";
}

// --- layer 2: image rejection ------------------------------------------------

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

TEST(CheckpointImageRejection, VersionOneImageIsRejected) {
  // Version 1 images predate the unit plan and version 2 images nest a
  // scheduler image; a checksum-valid one of either must be refused, not
  // parsed as version 3.
  const Program program = testutil::random_program(1);
  const std::vector<std::uint8_t> body =
      open_image(image_after(program, 6), "engine");
  ASSERT_EQ(body[4], 3U) << "engine image version moved; update this test";
  for (const std::uint8_t old_version : {1, 2}) {
    std::vector<std::uint8_t> old = body;
    old[4] = old_version;
    expect_restore_rejects(program, seal_image(std::move(old)),
                           old_version == 1 ? "version-1 image"
                                            : "version-2 image");
  }
}

TEST(CheckpointImageRejection, ImageFromAnotherProgramIsRejected) {
  // Same vertex count, so the block range matches; the program's m-vector
  // tells them apart, and the check runs before any state changes.
  const Program program = testutil::random_program(3, 40);
  const Program other = testutil::random_program(4, 40);
  ASSERT_EQ(program.numbering.m.size(), other.numbering.m.size());
  ASSERT_NE(program.numbering.m, other.numbering.m);
  const std::vector<std::uint8_t> image = image_after(other, 6);
  EngineOptions options;
  options.threads = 2;
  Engine engine(program, options);
  engine.start();
  try {
    engine.restore_state(image);
    ADD_FAILURE() << "another program's image restored";
  } catch (const support::check_error& error) {
    EXPECT_NE(std::string(error.what()).find("m-vector"), std::string::npos)
        << error.what();
  }
  // Nothing was restored: the engine still runs from phase 1.
  engine.start_phase(kNoEvents);
  engine.finish();
  EXPECT_EQ(engine.completed_phases(), 1U);
}

TEST(CheckpointImageRejection, SnapshotWithPhasesInFlightIsRejected) {
  // The image records only the completed phase, so a snapshot is defined
  // only where every started phase has retired. The one vertex holds
  // phase 1 in flight until the gate opens.
  std::atomic<bool> gate{false};
  spec::GraphBuilder b;
  b.add_lambda("held", [&gate](model::PhaseContext& ctx) {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ctx.emit(0, event::Value(1.0));
  });
  const Program program = std::move(b).build(17);
  EngineOptions options;
  options.threads = 2;
  Engine engine(program, options);
  engine.start();
  engine.start_phase(kNoEvents);
  EXPECT_THROW(engine.snapshot_state(), support::check_error);
  gate.store(true, std::memory_order_release);
  engine.finish();
  EXPECT_EQ(engine.completed_phases(), 1U);
  EXPECT_EQ(engine.sinks().size(), 1U);
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
