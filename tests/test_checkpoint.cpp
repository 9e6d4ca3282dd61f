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
// state, rng streams, and the latest-value cache all resume exactly). A
// seeded external -> zscore -> threshold -> majority graph covers the
// stateful detector and gate modules the corpus does not build.
//
// Layer 3 — image rejection (same strictness discipline as
// test_wire.cpp): truncated, bit-flipped, wrong-version, wrong-magic,
// wrong-geometry images, and slots whose x breaks the frontier recurrence
// must fail restore_state with a loud
// support::check_error (no UB under ASan/UBSan), and recovery must be able
// to fall back to the previous intact checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "core/sink_store.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
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

/// Runs `phases` phases straight through on one engine, and again as a
/// checkpoint after `checkpoint_phase` restored into a second engine; the
/// two sink streams must be byte-identical.
void expect_resume_matches_twin(const Program& program,
                                const EngineOptions& options,
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
    Engine second(program, options);
    second.start();
    second.restore_state(image);
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
  expect_resume_matches_twin(testutil::random_program(seed), options, 24, 10,
                             "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineCheckpointResume,
                         ::testing::Range<std::uint64_t>(0, 10));

// The same round trip on 40-vertex programs, where every plan has
// multi-member units (DESIGN.md, "Unit scheduling"): the image carries the
// unit plan and the scheduler state indexes units.
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
    expect_resume_matches_twin(program, options, 32, 13,
                               "seed " + std::to_string(seed) + " threads " +
                                   std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineCheckpointResumeUnits,
                         ::testing::Range<std::uint64_t>(0, 6));

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

TEST(CheckpointImageRejection, VersionOneImageIsRejected) {
  // Version 1 images predate the unit plan; a checksum-valid one must be
  // refused, not parsed with the plan missing.
  const Program program = testutil::random_program(1);
  std::vector<std::uint8_t> body =
      open_image(image_after(program, 6), "engine");
  ASSERT_EQ(body[4], 2U) << "engine image version moved; update this test";
  body[4] = 1;
  expect_restore_rejects(program, seal_image(std::move(body)),
                         "version-1 image");
}

TEST(CheckpointImageRejection, ImageFromAnotherUnitPlanIsRejected) {
  // Taken at 2 threads (4 units), restored at 4 (8 units): the scheduler
  // state indexes units, so the plan must match — and the check runs
  // before any state changes, naming the plan.
  const Program program = testutil::random_program(3, 40);
  const std::vector<std::uint8_t> image = image_after(program, 6);
  EngineOptions options;
  options.threads = 4;
  Engine engine(program, options);
  engine.start();
  try {
    engine.restore_state(image);
    ADD_FAILURE() << "a 2-thread image restored into a 4-thread engine";
  } catch (const support::check_error& error) {
    EXPECT_NE(std::string(error.what()).find("unit plan"), std::string::npos)
        << error.what();
  }
  // Nothing was restored: the engine still runs from phase 1.
  engine.start_phase(kNoEvents);
  engine.finish();
  EXPECT_EQ(engine.completed_phases(), 1U);
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

TEST(CheckpointImageRejection, SlotBreakingFrontierRecurrenceIsRejected) {
  // The frontier pass stops at the first slot whose x it leaves unchanged,
  // so it trusts every restored slot to satisfy x_i = min(min pending_i - 1,
  // x_{i-1}). A checksum-valid image whose slot x breaks that must fail.
  // Chain 1 -> 2 -> 3 -> 4 with two phases active: phase 1 has x = 1
  // (vertex 2 issued) and phase 2 has x = 0 (vertex 1 issued). Neither slot
  // holds a live bundle, so both records have a fixed size.
  const Dag dag = graph::chain(4);
  const Numbering numbering = graph::compute_satisfactory_numbering(dag);
  Scheduler scheduler(numbering.m);
  std::vector<event::InputBundle> bundles(1);
  std::vector<Scheduler::ReadyPair> ready;
  scheduler.start_phase(1, std::span<event::InputBundle>(bundles), ready);
  ASSERT_EQ(ready.size(), 1U);
  std::vector<Scheduler::Delivery> to_two{
      Scheduler::Delivery{2, 0, event::Value(1.0)}};
  const Scheduler::ReadyPair first = std::move(ready.front());
  ready.clear();
  scheduler.finish_execution(first.vertex, first.phase,
                             std::span<Scheduler::Delivery>(to_two), {},
                             ready);
  bundles.assign(1, event::InputBundle{});
  scheduler.start_phase(2, std::span<event::InputBundle>(bundles), ready);
  ASSERT_EQ(scheduler.x(1), 1U);
  ASSERT_EQ(scheduler.x(2), 0U);
  const std::vector<std::uint8_t> body =
      open_image(scheduler.snapshot_state(), "scheduler");

  // Body layout: magic, version (u32 each), m-vector (u64 length + u32
  // per entry), signal sources (u32), pmax, completed, active (u64 each),
  // then per slot: id (u64), x, pending/partial counts, promoted bound
  // (u32 each), pending and partial bitsets (u64 per word), live-bundle
  // count (u32).
  const std::size_t words = (numbering.m.size() + 63) / 64;
  const std::size_t slot0_x = 4 + 4 + 8 + 4 * numbering.m.size() + 4 + 24 + 8;
  const std::size_t slot_bytes = 8 + 4 * 4 + 2 * 8 * words + 4;
  const std::size_t slot1_x = slot0_x + slot_bytes;
  const auto read_u32 = [&](std::size_t at) {
    return static_cast<std::uint32_t>(body[at]) |
           static_cast<std::uint32_t>(body[at + 1]) << 8 |
           static_cast<std::uint32_t>(body[at + 2]) << 16 |
           static_cast<std::uint32_t>(body[at + 3]) << 24;
  };
  ASSERT_EQ(read_u32(slot0_x), 1U) << "layout drifted: slot 0 x";
  ASSERT_EQ(read_u32(slot1_x), 0U) << "layout drifted: slot 1 x";
  const auto with_x = [&](std::size_t at, std::uint32_t x) {
    std::vector<std::uint8_t> patched = body;
    for (std::size_t b = 0; b < 4; ++b) {
      patched[at + b] = static_cast<std::uint8_t>(x >> (8 * b));
    }
    return seal_image(std::move(patched));
  };
  {
    Scheduler fresh(numbering.m);
    fresh.restore_state(with_x(slot0_x, 1));  // the untouched value
    EXPECT_EQ(fresh.snapshot(), scheduler.snapshot());
  }
  {
    // Oldest slot below its own frontier (min pending 2, so x must be 1).
    Scheduler fresh(numbering.m);
    EXPECT_THROW(fresh.restore_state(with_x(slot0_x, 0)),
                 support::check_error);
  }
  {
    // Later slot past its frontier and its predecessor's x.
    Scheduler fresh(numbering.m);
    EXPECT_THROW(fresh.restore_state(with_x(slot1_x, 1)),
                 support::check_error);
  }
  // The recurrence reads min pending, so pending bits must name vertices
  // 1..n: a bit at index 0 or above n (count kept consistent) is rejected.
  const std::size_t slot0_pending_count = slot0_x + 4;
  const std::size_t slot0_pending_bits = slot0_x + 16;
  for (const std::uint32_t stray : {0U, 5U}) {
    std::vector<std::uint8_t> patched = body;
    patched[slot0_pending_bits] |= static_cast<std::uint8_t>(1U << stray);
    ++patched[slot0_pending_count];
    Scheduler fresh(numbering.m);
    EXPECT_THROW(fresh.restore_state(seal_image(std::move(patched))),
                 support::check_error)
        << "pending bit " << stray;
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
