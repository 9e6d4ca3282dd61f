// The kill-a-partition differential harness (DESIGN.md, "Crash-restart
// recovery"):
//
//   * crash differential — a TransportEngine partition is killed at a
//     randomized (victim, phase, crash-point) chosen from the seed, the
//     supervisor restarts it from its last committed checkpoint, upstream
//     retention replays the watermark-bounded suffix, and the ensemble's
//     sink output must stay byte-identical to the sequential reference —
//     across the randomized program corpus, machines x {2, 3}, both
//     channel implementations, engine_threads x {1, 2} per partition, and
//     every instrumented CrashPoint (kMidCheckpoint specifically proves a
//     crash between snapshot and commit restarts from the *previous*
//     checkpoint);
//   * stats discipline — frames_sent keeps counting unique sequence
//     numbers only, so the frames-per-phase batching ceiling survives a
//     restart; replayed frames are counted separately, every
//     kMidCheckpoint crash must observe some, and when the most-upstream
//     partition dies the downstream dedup ledger drops exactly the frames
//     it replayed;
//   * checkpoint-only runs — checkpoint_every > 0 without any crash must
//     not change a byte of output;
//   * rollback re-sends — a restarted sender's re-executed phases must
//     reproduce its retained frames byte for byte, including phases in
//     which a module emits twice on one port.
//
// Labeled [fault;transport]; runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "distrib/transport.hpp"
#include "random_program.hpp"
#include "repeated_port_program.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

namespace df {
namespace {

using distrib::ChannelKind;
using distrib::CrashPoint;
using distrib::CrashSignal;
using distrib::TransportEngine;
using distrib::TransportOptions;

constexpr ChannelKind kBothKinds[] = {ChannelKind::kInProcess,
                                      ChannelKind::kSocket};

const char* kind_name(ChannelKind kind) {
  return kind == ChannelKind::kInProcess ? "inproc" : "socket";
}

const char* point_name(CrashPoint point) {
  switch (point) {
    case CrashPoint::kBeforeIngest: return "before-ingest";
    case CrashPoint::kMidIngest: return "mid-ingest";
    case CrashPoint::kBeforePhase: return "before-phase";
    case CrashPoint::kMidCheckpoint: return "mid-checkpoint";
    case CrashPoint::kAfterCheckpoint: return "after-checkpoint";
  }
  return "?";
}

/// One planned process death: partition `victim` dies the first time its
/// coordinator reaches `point` in `phase`. The fired flag stops the plan
/// from re-triggering when the restarted partition re-reaches the same
/// instant (which it must, deterministically).
struct CrashPlan {
  std::size_t victim = 0;
  event::PhaseId phase = 0;
  CrashPoint point = CrashPoint::kBeforeIngest;
};

/// Derives a plan from the seed so the suite sweeps the failure geometry
/// without hand-enumerating it. kMidIngest needs an upstream, so it is
/// only planned for victims >= 1; checkpoint-bracketing points need the
/// phase to be a checkpoint phase.
CrashPlan plan_crash(support::Rng& rng, std::size_t machines,
                     event::PhaseId phases, std::size_t checkpoint_every) {
  CrashPlan plan;
  plan.victim = rng.next_below(machines);
  const std::uint32_t upper = plan.victim >= 1 ? 5 : 4;
  switch (rng.next_below(upper)) {
    case 0: plan.point = CrashPoint::kBeforeIngest; break;
    case 1: plan.point = CrashPoint::kBeforePhase; break;
    case 2: plan.point = CrashPoint::kMidCheckpoint; break;
    case 3: plan.point = CrashPoint::kAfterCheckpoint; break;
    default: plan.point = CrashPoint::kMidIngest; break;
  }
  if (plan.point == CrashPoint::kMidCheckpoint ||
      plan.point == CrashPoint::kAfterCheckpoint) {
    const auto k = static_cast<event::PhaseId>(checkpoint_every);
    const event::PhaseId slots = (phases - 1) / k;  // checkpoint phases < phases
    plan.phase = k * (1 + rng.next_below(static_cast<std::uint32_t>(slots)));
  } else {
    plan.phase = 2 + rng.next_below(static_cast<std::uint32_t>(phases - 4));
  }
  return plan;
}

// Replay activity observed anywhere in the suite; every kMidCheckpoint
// crash must contribute (see below), and the suite as a whole must have
// exercised replay, restarts, and checkpoint fallback.
std::atomic<std::uint64_t> g_suite_replays{0};
std::atomic<std::uint64_t> g_suite_restarts{0};
// Restarts of a victim block that ran multi-member units (DESIGN.md, "Unit
// scheduling"), read from the run's own per-block counters: its checkpoint
// images carried a coarsened plan.
std::atomic<std::uint64_t> g_suite_unit_victims{0};

/// One kill-a-partition run: plans a crash from an rng stream private to
/// this configuration (so the corpus covers the whole failure geometry),
/// runs the transport against the sequential reference, and checks the
/// recovery invariants.
void run_crash_case(const core::Program& program, std::uint64_t seed,
                    std::size_t machines, ChannelKind kind,
                    std::size_t engine_threads) {
  const event::PhaseId phases = 48;
  support::Rng rng(seed * 6364136223846793005ULL +
                   machines * 1442695040888963407ULL +
                   static_cast<std::uint64_t>(kind) +
                   (engine_threads - 1) * 0x9e3779b97f4a7c15ULL);
  const std::size_t checkpoint_every = 2 + rng.next_below(2);  // 2 or 3
  const CrashPlan plan = plan_crash(rng, machines, phases, checkpoint_every);

  TransportOptions options;
  options.machines = machines;
  options.channel = kind;
  options.channel_capacity = 8;  // keep backpressure in play
  options.engine_threads = engine_threads;
  options.checkpoint_every = checkpoint_every;
  std::atomic<bool> fired{false};
  options.crash_hook = [&plan, &fired](std::size_t block,
                                       event::PhaseId phase,
                                       CrashPoint point) {
    if (block == plan.victim && phase == plan.phase && point == plan.point) {
      bool expected = false;
      if (fired.compare_exchange_strong(expected, true)) {
        throw CrashSignal{};
      }
    }
  };

  const std::string where =
      std::string("machines=") + std::to_string(machines) +
      " channel=" + kind_name(kind) +
      " engine_threads=" + std::to_string(engine_threads) +
      " seed=" + std::to_string(seed) +
      " victim=" + std::to_string(plan.victim) + " phase=" +
      std::to_string(plan.phase) + " point=" + point_name(plan.point) +
      " ckpt_every=" + std::to_string(checkpoint_every);
  TransportEngine transport(program, options);
  const auto report =
      trace::check_against_sequential(program, transport, phases);
  const auto& stats = transport.transport_stats();

  EXPECT_TRUE(report.equivalent) << where << "\n" << report.summary();
  EXPECT_GT(report.reference_records, 0U) << "workload produced no output";
  ASSERT_TRUE(fired.load()) << where << ": planned crash never fired";
  EXPECT_EQ(stats.restarts, 1U) << where;
  EXPECT_GT(stats.checkpoints_taken, 0U) << where;
  EXPECT_GT(stats.checkpoint_bytes, 0U) << where;

  // Unique-seq discipline: the batching ceiling from the steady-state
  // suite must hold across the restart — rollback re-flushes and
  // retention replays land in frames_replayed, never frames_sent.
  const std::uint64_t channels = machines * (machines - 1) / 2;
  EXPECT_LE(stats.frames_sent, 2 * phases * channels) << where;
  // (No batched_deliveries == remote_messages here: remote_messages
  // counts re-executed adds again, batched_deliveries only unique
  // frames' contents — re-execution legitimately separates them.)
  EXPECT_GE(stats.remote_messages, stats.batched_deliveries) << where;

  // A mid-checkpoint death rolls back to the *previous* checkpoint (or
  // scratch), so at least one phase re-executes and at least one frame
  // — if only a watermark — is replayed on some link.
  if (plan.point == CrashPoint::kMidCheckpoint) {
    EXPECT_GT(stats.frames_replayed, 0U) << where;
  }
  // The most-upstream partition has no ingress, so nothing is replayed
  // *to* it; every frame it re-sends had already gone out on its
  // never-severed downstream channels before the crash, and the dedup
  // ledger must drop exactly those.
  if (plan.victim == 0) {
    EXPECT_EQ(stats.duplicates_dropped, stats.frames_replayed) << where;
  }
  g_suite_replays.fetch_add(stats.frames_replayed);
  g_suite_restarts.fetch_add(stats.restarts);
  // The victim's engines report their own plan size: fewer units than
  // block vertices means its generations ran multi-member units.
  ASSERT_EQ(transport.block_stats().size(), machines) << where;
  const std::uint32_t victim_vertices =
      transport.partitioning().block_end(plan.victim) + 1 -
      transport.partitioning().block_begin(plan.victim);
  if (stats.restarts > 0 &&
      transport.block_stats()[plan.victim].units < victim_vertices) {
    g_suite_unit_victims.fetch_add(1);
  }
}

class CrashRestartDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashRestartDifferential, KilledPartitionRecoversByteIdentical) {
  const std::uint64_t seed = GetParam();
  const core::Program program = testutil::random_program(seed);
  for (const std::size_t machines : {std::size_t{2}, std::size_t{3}}) {
    if (machines > program.numbering.size()) {
      continue;
    }
    for (const ChannelKind kind : kBothKinds) {
      // engine_threads = 2 is the multi-worker configuration the
      // checkpointing transport runs in production.
      for (const std::size_t engine_threads :
           {std::size_t{1}, std::size_t{2}}) {
        run_crash_case(program, seed, machines, kind, engine_threads);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRestartDifferential,
                         ::testing::Range<std::uint64_t>(0, 12));

// Checked after every test has run (global-environment teardown — plain
// TESTs would run before the parameterized sweep): the sweep as a whole
// must actually have exercised replay and restarts — a sweep where every
// crash happened to need no replayed frame would be vacuous.
class SweepCoverage : public ::testing::Environment {
 public:
  void TearDown() override {
    EXPECT_GT(g_suite_restarts.load(), 0U)
        << "no crash in the sweep caused a restart";
    EXPECT_GT(g_suite_replays.load(), 0U)
        << "no restart in the sweep replayed any frame";
    EXPECT_GT(g_suite_unit_victims.load(), 0U)
        << "no restart hit a block that ran multi-member units";
  }
};

const ::testing::Environment* const kSweepCoverage =
    ::testing::AddGlobalTestEnvironment(new SweepCoverage);

// --- checkpointing without crashes is invisible in the output --------------

class CheckpointOnlyDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointOnlyDifferential, CheckpointingDoesNotChangeOutput) {
  const std::uint64_t seed = GetParam();
  const core::Program program = testutil::random_program(seed);
  const event::PhaseId phases = 40;

  for (const std::size_t machines : {std::size_t{2}, std::size_t{3}}) {
    if (machines > program.numbering.size()) {
      continue;
    }
    for (const std::size_t engine_threads : {std::size_t{1}, std::size_t{2}}) {
      TransportOptions options;
      options.machines = machines;
      options.channel_capacity = 8;
      options.engine_threads = engine_threads;
      options.checkpoint_every = 4;
      TransportEngine transport(program, options);
      const auto report =
          trace::check_against_sequential(program, transport, phases);
      EXPECT_TRUE(report.equivalent)
          << "machines=" << machines << " engine_threads=" << engine_threads
          << " seed=" << seed << "\n"
          << report.summary();

      const auto& stats = transport.transport_stats();
      EXPECT_EQ(stats.restarts, 0U);
      EXPECT_EQ(stats.frames_replayed, 0U);
      EXPECT_EQ(stats.duplicates_dropped, 0U);
      // Every partition checkpoints at every multiple of checkpoint_every.
      EXPECT_EQ(stats.checkpoints_taken, machines * (phases / 4));
      EXPECT_GT(stats.checkpoint_bytes, 0U);
      // Checkpointing must not cost extra frames.
      const std::uint64_t channels = machines * (machines - 1) / 2;
      EXPECT_LE(stats.frames_sent, 2 * phases * channels);
      EXPECT_EQ(stats.frames_received, stats.frames_sent);
      EXPECT_EQ(stats.batched_deliveries, stats.remote_messages);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointOnlyDifferential,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- repeated deaths of the same partition ----------------------------------

// The supervisor loop must tolerate more than one generation: kill the
// same victim at two different phases (the second plan only arms after the
// first restart) and still match the sequential reference.
TEST(CrashRestartRepeated, TwoDeathsSamePartition) {
  const core::Program program = testutil::random_program(3);
  const event::PhaseId phases = 48;

  TransportOptions options;
  options.machines = 2;
  options.channel_capacity = 8;
  options.checkpoint_every = 3;
  std::atomic<int> deaths{0};
  options.crash_hook = [&deaths](std::size_t block, event::PhaseId phase,
                                 CrashPoint point) {
    if (block != 1 || point != CrashPoint::kBeforePhase) {
      return;
    }
    int seen = deaths.load();
    if ((seen == 0 && phase == 10) || (seen == 1 && phase == 25)) {
      if (deaths.compare_exchange_strong(seen, seen + 1)) {
        throw CrashSignal{};
      }
    }
  };

  TransportEngine transport(program, options);
  const auto report =
      trace::check_against_sequential(program, transport, phases);
  EXPECT_TRUE(report.equivalent) << report.summary();
  EXPECT_EQ(deaths.load(), 2);
  EXPECT_EQ(transport.transport_stats().restarts, 2U);
}

// --- rollback re-sends of repeated-port phases -------------------------------

// Block 0 (the source alone) dies mid-checkpoint at phase 12 and restarts
// from its phase-8 checkpoint, so it re-flushes phases 9..12 under their
// original seqs and the egress byte-compares each re-sent frame with its
// retained copy. Every one of those phases carries two deliveries for one
// port. Block 1 waits before phase 9 until the death has happened: it
// cannot have acknowledged phases 9..12 yet, so their retained copies
// still exist to compare against.
TEST(CrashRestartEgressOrder, RollbackResendsMatchRetainedFrames) {
  const core::Program program = testutil::repeated_port_program(20);
  const event::PhaseId phases = 40;

  TransportOptions options;
  options.machines = 2;
  options.partitioning = testutil::source_alone_cut(program);
  options.checkpoint_every = 4;
  std::atomic<bool> died{false};
  options.crash_hook = [&died](std::size_t block, event::PhaseId phase,
                               CrashPoint point) {
    if (block == 0 && phase == 12 && point == CrashPoint::kMidCheckpoint &&
        !died.exchange(true)) {
      throw CrashSignal{};
    }
    if (block == 1 && phase == 9 && point == CrashPoint::kBeforePhase) {
      for (int waited_ms = 0; waited_ms < 10000 && !died.load();
           ++waited_ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };

  TransportEngine transport(program, options);
  const auto report =
      trace::check_against_sequential(program, transport, phases);
  EXPECT_TRUE(report.equivalent) << report.summary();
  const auto& stats = transport.transport_stats();
  EXPECT_EQ(stats.restarts, 1U);
  // Phases 9..12 re-flushed: one batch frame and one watermark each, all
  // dropped as duplicates downstream.
  EXPECT_EQ(stats.frames_replayed, 8U);
  EXPECT_EQ(stats.duplicates_dropped, stats.frames_replayed);
}

// --- option validation ------------------------------------------------------

TEST(CrashRestartOptions, CrashHookRequiresCheckpointing) {
  const core::Program program = testutil::random_program(0);
  TransportOptions options;
  options.crash_hook = [](std::size_t, event::PhaseId, CrashPoint) {};
  EXPECT_THROW(TransportEngine(program, options), support::check_error);
}

}  // namespace
}  // namespace df
