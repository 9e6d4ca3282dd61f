// The partitioned-transport test harness (DESIGN.md, "Real transport"):
//
//   * differential suite — TransportEngine over 1/2/3/4 partitions and both
//     channel implementations must produce sink output byte-identical to
//     the sequential reference across the randomized program corpus
//     (random_program.hpp, the same corpus the engine serializability
//     sweep uses);
//   * fault injection — channels that duplicate, reorder (within a bounded
//     window), and delay frames must not change the output by a single
//     byte, and the receiver-side sequencers must drop exactly the
//     duplicates that were injected (exactly-once ingestion);
//   * egress framing — a module's repeated emissions on one port keep
//     their order across the wire, phases larger than the flush threshold
//     split into several frames, and the frame bytes do not depend on how
//     many workers produced them;
//   * degenerate partitions — empty blocks are legal, and invalid cuts
//     are rejected by graph::validate_partition_cut;
//   * error teardown — a module exception anywhere in the ensemble
//     surfaces as the root cause (not as a secondary peer-closed abort)
//     and the run still terminates;
//   * channel stress — the blocking bounded in-process channel and the
//     loopback socket channel under a fast producer/consumer pair (the
//     `transport` ctest label; runs under TSan in CI);
//   * socket coalescing — sends queued behind a parked writer leave in a
//     few writes, the buffered reader returns frames however the bytes
//     were chunked, writer errors surface on the sender, close_send()
//     drains before EOF, and make_loopback() leaks no descriptor when a
//     socket call fails.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "distrib/channel.hpp"
#include "distrib/protocol.hpp"
#include "distrib/transport.hpp"
#include "distrib/wire.hpp"
#include "model/sources.hpp"
#include "model/synthetic.hpp"
#include "random_program.hpp"
#include "repeated_port_program.hpp"
#include "spec/builder.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

namespace df {
namespace {

using distrib::ChannelKind;
using distrib::TransportEngine;
using distrib::TransportOptions;

constexpr ChannelKind kBothKinds[] = {ChannelKind::kInProcess,
                                      ChannelKind::kSocket};

const char* kind_name(ChannelKind kind) {
  return kind == ChannelKind::kInProcess ? "inproc" : "socket";
}

// --- differential: transport vs sequential over the randomized corpus ------

class TransportDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TransportDifferential, MatchesSequentialOnBothChannelKinds) {
  const std::uint64_t seed = GetParam();
  const core::Program program = testutil::random_program(seed);
  const event::PhaseId phases = 60;

  for (const std::size_t machines : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{4}}) {
    if (machines > program.numbering.size()) {
      continue;  // balanced partitioner needs at least one vertex per block
    }
    for (const ChannelKind kind : kBothKinds) {
      TransportOptions options;
      options.machines = machines;
      options.channel = kind;
      // A small bound so backpressure (blocked senders) is exercised, not
      // just theoretical.
      options.channel_capacity = 8;
      TransportEngine transport(program, options);
      const auto report =
          trace::check_against_sequential(program, transport, phases);
      EXPECT_TRUE(report.equivalent)
          << "machines=" << machines << " channel=" << kind_name(kind)
          << " seed=" << seed << "\n"
          << report.summary();
      EXPECT_GT(report.reference_records, 0U) << "workload produced no output";

      // Batching ceiling: with one channel per ordered pair (j, k), j < k,
      // a phase costs each channel at most one watermark plus one coalesced
      // kDeliveryBatch flush (this corpus never reaches the flush
      // threshold), so total frames are bounded by 2 * phases * channels.
      // The v1 one-frame-per-delivery wire would blow through this on any
      // seed whose remote traffic exceeds phases * channels.
      const auto& stats = transport.transport_stats();
      const std::uint64_t channels = machines * (machines - 1) / 2;
      if (channels > 0) {  // one machine has no channels and sends nothing
        EXPECT_GT(stats.watermarks_sent, 0U);
        EXPECT_LE(stats.frames_sent, 2 * phases * channels)
            << "machines=" << machines << " channel=" << kind_name(kind)
            << " seed=" << seed << ": batching regressed ("
            << stats.frames_sent << " frames, " << stats.remote_messages
            << " remote deliveries)";
      }
      // Every remote delivery rides a batch, and nothing is lost or
      // double-counted.
      EXPECT_EQ(stats.batched_deliveries, stats.remote_messages);
      EXPECT_EQ(stats.frames_received, stats.frames_sent);
      EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
      if (stats.remote_messages > 0) {
        EXPECT_GT(stats.batch_frames_sent, 0U);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportDifferential,
                         ::testing::Range<std::uint64_t>(0, 22));

// --- two-level parallelism: worker pool inside every partition --------------

// Every partition block running a multi-threaded core::Engine must still
// produce sink output byte-identical to the sequential reference, and
// concurrent egress must not break the frames-per-phase ceiling — batches
// for a phase are held until the phase completes, so the per-channel cost
// stays one coalesced batch plus one watermark regardless of worker
// interleaving.
class TransportTwoLevel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransportTwoLevel, WorkerPoolPerBlockMatchesSequential) {
  const std::uint64_t seed = GetParam();
  const core::Program program = testutil::random_program(seed);
  const event::PhaseId phases = 40;

  for (const std::size_t machines : {std::size_t{2}, std::size_t{3}}) {
    if (machines > program.numbering.size()) {
      continue;
    }
    // Window 4 makes the inner pipeline's backpressure (start_phase
    // blocking while the egress hub holds future-phase batches) real, not
    // just theoretical. Window 64 is the TransportOptions default and the
    // benchmark's: there a one-thread block runs a deep window, keeping
    // its next pair worker-local.
    for (const std::size_t window : {std::size_t{4}, std::size_t{64}}) {
      for (const std::size_t engine_threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        if (window == 64 && engine_threads == 4) {
          continue;  // bounds the suite's run time under TSan
        }
        for (const ChannelKind kind : kBothKinds) {
          TransportOptions options;
          options.machines = machines;
          options.channel = kind;
          options.channel_capacity = 8;
          options.engine_threads = engine_threads;
          options.max_inflight_phases = window;
          TransportEngine transport(program, options);
          const auto report =
              trace::check_against_sequential(program, transport, phases);
          EXPECT_TRUE(report.equivalent)
              << "machines=" << machines << " threads=" << engine_threads
              << " window=" << window << " channel=" << kind_name(kind)
              << " seed=" << seed << "\n"
              << report.summary();
          EXPECT_GT(report.reference_records, 0U)
              << "workload produced no output";

          // The ceiling and the accounting invariants must survive
          // concurrent egress from engine_threads workers per block.
          const auto& stats = transport.transport_stats();
          const std::uint64_t channels = machines * (machines - 1) / 2;
          EXPECT_LE(stats.frames_sent, 2 * phases * channels)
              << "machines=" << machines << " threads=" << engine_threads
              << " window=" << window << " seed=" << seed
              << ": concurrent egress broke the batching ceiling ("
              << stats.frames_sent << " frames, " << stats.remote_messages
              << " remote deliveries)";
          EXPECT_EQ(stats.batched_deliveries, stats.remote_messages);
          EXPECT_EQ(stats.frames_received, stats.frames_sent);
          EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportTwoLevel,
                         ::testing::Range<std::uint64_t>(0, 10));

// Fault-injected channels under multi-threaded block engines: duplicates,
// reordering, and delays must interact correctly with the staged egress
// (sequence numbers are assigned at send time, so the receiver's
// reassembly contract is unchanged).
TEST(TransportTwoLevel, FaultInjectionSurvivesWorkerPools) {
  const core::Program program = testutil::random_program(4);
  const event::PhaseId phases = 40;
  std::vector<distrib::FaultInjectingChannel*> faulty;
  TransportOptions options;
  options.machines = 3;
  options.channel = ChannelKind::kInProcess;
  options.channel_capacity = 8;
  options.engine_threads = 4;
  options.channel_wrapper =
      [&faulty](std::unique_ptr<distrib::Channel> inner, std::size_t from,
                std::size_t to) -> std::unique_ptr<distrib::Channel> {
    distrib::FaultOptions fault;
    fault.duplicate_probability = 0.2;
    fault.hold_probability = 0.3;
    fault.reorder_window = 4;
    fault.seed = 0x2fa917ULL + from * 10 + to;
    auto channel = std::make_unique<distrib::FaultInjectingChannel>(
        std::move(inner), fault);
    faulty.push_back(channel.get());
    return channel;
  };
  TransportEngine transport(program, options);
  const auto report =
      trace::check_against_sequential(program, transport, phases);
  EXPECT_TRUE(report.equivalent) << report.summary();
  std::uint64_t injected = 0;
  for (const auto* channel : faulty) {
    injected += channel->duplicates_injected();
  }
  EXPECT_EQ(transport.transport_stats().duplicates_dropped, injected);
}

// Cross-boundary stress for TSan (ctest label: transport): three blocks,
// four workers each, a tiny channel bound, and a
// deep phase pipeline — maximal concurrency between worker-pool egress,
// the per-link flush callbacks, the coordinator's ingress loop, and the
// reader threads.
TEST(TransportTwoLevel, CrossBoundaryStressUnderWorkerPools) {
  const core::Program program = testutil::random_program(11);
  ASSERT_GE(program.numbering.size(), 3U);
  const event::PhaseId phases = 120;
  TransportOptions options;
  options.machines = 3;
  options.channel = ChannelKind::kInProcess;
  options.channel_capacity = 4;  // senders block constantly
  options.engine_threads = 4;
  options.max_inflight_phases = 16;
  TransportEngine transport(program, options);
  const auto report =
      trace::check_against_sequential(program, transport, phases);
  EXPECT_TRUE(report.equivalent) << report.summary();
  EXPECT_GT(transport.transport_stats().remote_messages, 0U);
}

// Degenerate knobs are rejected loudly instead of silently falling back.
TEST(TransportTwoLevel, RejectsDegenerateKnobs) {
  const core::Program program = testutil::random_program(2);
  {
    TransportOptions options;
    options.machines = 0;
    EXPECT_THROW(TransportEngine(program, options), support::check_error);
  }
  {
    TransportOptions options;
    options.engine_threads = 0;
    EXPECT_THROW(TransportEngine(program, options), support::check_error);
  }
  {
    TransportOptions options;
    options.max_inflight_phases = 0;
    EXPECT_THROW(TransportEngine(program, options), support::check_error);
  }
  {
    // Capacity 0 would make an in-process channel unbounded and remove the
    // backpressure between partitions. Only constructed, never run.
    TransportOptions options;
    options.channel_capacity = 0;
    EXPECT_THROW(TransportEngine(program, options), support::check_error);
    EXPECT_THROW(distrib::InProcessChannel(0), support::check_error);
  }
}

// External events must route to whichever partition owns each source — with
// enough sources and four blocks, sources land in non-zero blocks too.
TEST(TransportFeed, ExternalEventsReachSourcesInEveryBlock) {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> sensors;
  for (int i = 0; i < 6; ++i) {
    sensors.push_back(
        b.add("sensor" + std::to_string(i),
              model::factory_of<model::ExternalPassthroughSource>()));
  }
  const auto sum =
      b.add("sum", model::factory_of<model::SumModule>(std::size_t{3}));
  const auto max =
      b.add("max", model::factory_of<model::MaxModule>(std::size_t{3}));
  for (int i = 0; i < 3; ++i) {
    b.connect(sensors[i], 0, sum, static_cast<graph::Port>(i));
    b.connect(sensors[3 + i], 0, max, static_cast<graph::Port>(i));
  }
  const core::Program program = std::move(b).build(99);

  support::Rng rng(0xfeedULL);
  std::vector<std::vector<event::ExternalEvent>> batches(80);
  for (auto& batch : batches) {
    for (const graph::VertexId sensor : sensors) {
      if (rng.next_bernoulli(0.4)) {
        batch.push_back(
            event::ExternalEvent{sensor, 0, event::Value(rng.next_double())});
      }
    }
  }

  for (const ChannelKind kind : kBothKinds) {
    TransportOptions options;
    options.machines = 4;  // 8 vertices -> sources span blocks 0..2
    options.channel = kind;
    TransportEngine transport(program, options);
    const auto report = trace::check_against_sequential(
        program, transport, batches.size(), batches);
    EXPECT_TRUE(report.equivalent)
        << "channel=" << kind_name(kind) << "\n" << report.summary();
  }
}

// --- message accounting ------------------------------------------------------

core::Program chain_program(std::uint32_t length) {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  ids.push_back(b.add("src", model::factory_of<model::CounterSource>()));
  for (std::uint32_t i = 1; i < length; ++i) {
    ids.push_back(b.add("f" + std::to_string(i),
                        model::factory_of<model::ForwardModule>()));
    b.connect(ids[i - 1], ids[i]);
  }
  return std::move(b).build(3);
}

TEST(TransportAccounting, ChainCountsRemoteVsLocalMessages) {
  // A chain of 12 over 3 balanced blocks: 2 edges cross a boundary and 9
  // stay inside one, and the counter source feeds the chain every phase.
  const core::Program program = chain_program(12);
  for (const ChannelKind kind : kBothKinds) {
    TransportOptions options;
    options.machines = 3;
    options.channel = kind;
    TransportEngine transport(program, options);
    const auto report =
        trace::check_against_sequential(program, transport, 10);
    EXPECT_TRUE(report.equivalent)
        << "channel=" << kind_name(kind) << "\n" << report.summary();
    const auto& stats = transport.transport_stats();
    EXPECT_EQ(stats.remote_messages, 20U) << "channel=" << kind_name(kind);
    EXPECT_EQ(stats.local_messages, 90U) << "channel=" << kind_name(kind);
    // The egress flush runs in the engines' phase-completion hook.
    EXPECT_GT(transport.stats().hook_ns, 0U) << "channel=" << kind_name(kind);
  }
}

// --- egress framing: emission order, batch split, determinism ---------------

// Regression: the egress flush used to order a phase's deliveries by
// (to_index, to_port) with an unstable sort, so a module emitting twice on
// one port could reach the receiver with its superseded value last.
TEST(TransportEgressFraming, RepeatedPortEmissionsKeepEmissionOrder) {
  constexpr std::size_t kFanout = 20;  // 21 deliveries per phase on the link
  const core::Program program = testutil::repeated_port_program(kFanout);
  const event::PhaseId phases = 40;
  for (const std::size_t checkpoint_every : {std::size_t{0}, std::size_t{4}}) {
    for (const ChannelKind kind : kBothKinds) {
      for (const std::size_t engine_threads :
           {std::size_t{1}, std::size_t{4}}) {
        TransportOptions options;
        options.machines = 2;
        options.channel = kind;
        options.partitioning = testutil::source_alone_cut(program);
        options.engine_threads = engine_threads;
        options.checkpoint_every = checkpoint_every;
        TransportEngine transport(program, options);
        const auto report =
            trace::check_against_sequential(program, transport, phases);
        EXPECT_TRUE(report.equivalent)
            << "checkpoint_every=" << checkpoint_every
            << " channel=" << kind_name(kind)
            << " engine_threads=" << engine_threads << "\n"
            << report.summary();
        EXPECT_EQ(transport.transport_stats().remote_messages,
                  (kFanout + 1) * phases);
      }
    }
  }
}

// Three sources in block 0 each send one 32-48 KiB vector per phase to a
// forwarder in block 1: about 120 KB per phase on the one link, more than
// the 48 KiB flush threshold, so every phase's flush splits into frames.
core::Program large_value_program() {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> sources;
  for (std::size_t i = 0; i < 3; ++i) {
    sources.push_back(b.add_lambda(
        "big" + std::to_string(i), [i](model::PhaseContext& ctx) {
          std::vector<double> values((4 + i) * 1024);
          for (std::size_t k = 0; k < values.size(); ++k) {
            values[k] = static_cast<double>(ctx.phase() * 1000003 +
                                            i * 7919 + k);
          }
          ctx.emit(0, event::Value(std::move(values)));
        }));
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const graph::VertexId forward = b.add(
        "out" + std::to_string(i), model::factory_of<model::ForwardModule>());
    b.connect(sources[i], 0, forward, 0);
  }
  return std::move(b).build(23);
}

// Records a copy of every frame sent on the wrapped channel.
class TapChannel final : public distrib::Channel {
 public:
  TapChannel(std::unique_ptr<distrib::Channel> inner,
             std::vector<std::vector<std::uint8_t>>& sent)
      : inner_(std::move(inner)), sent_(sent) {}

  void send(std::span<const std::uint8_t> frame) override {
    sent_.emplace_back(frame.begin(), frame.end());
    inner_->send(frame);
  }
  void close_send() override { inner_->close_send(); }
  bool recv(std::vector<std::uint8_t>& frame) override {
    return inner_->recv(frame);
  }
  void close_recv() override { inner_->close_recv(); }

 private:
  std::unique_ptr<distrib::Channel> inner_;
  std::vector<std::vector<std::uint8_t>>& sent_;
};

TEST(TransportEgressFraming, OversizedPhasesSplitDeterministically) {
  const core::Program program = large_value_program();
  const event::PhaseId phases = 40;
  graph::Partitioning cut;
  cut.bounds = {0, 3, 6};
  for (const std::size_t checkpoint_every : {std::size_t{0}, std::size_t{4}}) {
    for (const ChannelKind kind : kBothKinds) {
      std::vector<std::vector<std::uint8_t>> one_worker_frames;
      for (const std::size_t engine_threads :
           {std::size_t{1}, std::size_t{4}}) {
        const std::string where =
            "checkpoint_every=" + std::to_string(checkpoint_every) +
            " channel=" + kind_name(kind) +
            " engine_threads=" + std::to_string(engine_threads);
        std::vector<std::vector<std::uint8_t>> frames;
        TransportOptions options;
        options.machines = 2;
        options.channel = kind;
        options.partitioning = cut;
        options.engine_threads = engine_threads;
        options.checkpoint_every = checkpoint_every;
        options.channel_wrapper =
            [&frames](std::unique_ptr<distrib::Channel> inner, std::size_t,
                      std::size_t) -> std::unique_ptr<distrib::Channel> {
          return std::make_unique<TapChannel>(std::move(inner), frames);
        };
        TransportEngine transport(program, options);
        const auto report =
            trace::check_against_sequential(program, transport, phases);
        EXPECT_TRUE(report.equivalent) << where << "\n" << report.summary();

        const auto& stats = transport.transport_stats();
        EXPECT_GT(stats.batch_frames_sent, phases) << where << ": no split";
        EXPECT_EQ(stats.batched_deliveries, stats.remote_messages) << where;
        EXPECT_EQ(stats.remote_messages, 3 * phases) << where;
        EXPECT_EQ(frames.size(), stats.frames_sent) << where;
        // Without checkpoints nothing but the flush shapes the frames, so
        // four racing workers must put the same bytes on the wire as one.
        if (checkpoint_every == 0) {
          if (engine_threads == 1) {
            one_worker_frames = std::move(frames);
          } else {
            EXPECT_TRUE(frames == one_worker_frames)
                << where << ": frame bytes depend on worker interleaving";
          }
        }
      }
    }
  }
}

// --- fault injection: exactly-once delivery and Δ-semantics survive ---------

class TransportFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransportFaults, DuplicatedReorderedDelayedFramesChangeNothing) {
  const std::uint64_t seed = GetParam();
  const core::Program program = testutil::random_program(seed);
  const event::PhaseId phases = 50;

  for (const std::size_t machines : {std::size_t{2}, std::size_t{4}}) {
    if (machines > program.numbering.size()) {
      continue;
    }
    std::vector<distrib::FaultInjectingChannel*> faulty;
    TransportOptions options;
    options.machines = machines;
    options.channel = ChannelKind::kInProcess;
    options.channel_capacity = 8;
    options.channel_wrapper =
        [&faulty, seed](std::unique_ptr<distrib::Channel> inner,
                        std::size_t from,
                        std::size_t to) -> std::unique_ptr<distrib::Channel> {
      distrib::FaultOptions fault;
      fault.duplicate_probability = 0.2;
      fault.hold_probability = 0.3;
      fault.reorder_window = 4;
      fault.seed = seed * 1000 + from * 10 + to;
      auto channel = std::make_unique<distrib::FaultInjectingChannel>(
          std::move(inner), fault);
      faulty.push_back(channel.get());
      return channel;
    };

    TransportEngine transport(program, options);
    const auto report =
        trace::check_against_sequential(program, transport, phases);
    EXPECT_TRUE(report.equivalent)
        << "machines=" << machines << " seed=" << seed << "\n"
        << report.summary();

    // Exactly-once: the receiver sequencers dropped precisely the copies
    // the fault layer injected — nothing more (a lost frame would deadlock
    // the run long before this check) and nothing less (a duplicate that
    // slipped through would corrupt a bundle and fail the sink diff).
    std::uint64_t injected = 0;
    std::uint64_t held = 0;
    for (const auto* channel : faulty) {
      injected += channel->duplicates_injected();
      held += channel->frames_held();
    }
    EXPECT_EQ(transport.transport_stats().duplicates_dropped, injected);
    EXPECT_GT(injected, 0U) << "fault layer never duplicated a frame";
    EXPECT_GT(held, 0U) << "fault layer never delayed/reordered a frame";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportFaults,
                         ::testing::Range<std::uint64_t>(0, 10));

// --- degenerate partitions and the shared cut validator ---------------------

TEST(PartitionCuts, EmptyBlocksExecuteCorrectly) {
  const core::Program program = testutil::random_program(7);
  const auto n = program.numbering.size();
  ASSERT_GE(n, 6U);
  // First, middle, and last blocks empty: {0, 0, k, k, n, n}.
  graph::Partitioning degenerate;
  degenerate.bounds = {0, 0, n / 2, n / 2, n, n};
  const event::PhaseId phases = 40;

  for (const ChannelKind kind : kBothKinds) {
    TransportOptions options;
    options.machines = degenerate.bounds.size() - 1;
    options.channel = kind;
    options.partitioning = degenerate;
    TransportEngine transport(program, options);
    const auto report =
        trace::check_against_sequential(program, transport, phases);
    EXPECT_TRUE(report.equivalent)
        << "channel=" << kind_name(kind) << "\n" << report.summary();
  }
}

TEST(PartitionCuts, SharedValidatorRejectsInvalidCutsEverywhere) {
  const core::Program program = testutil::random_program(3);
  const auto n = program.numbering.size();
  ASSERT_GE(n, 4U);

  const auto reject_everywhere = [&](std::vector<std::uint32_t> bounds) {
    graph::Partitioning bad;
    bad.bounds = std::move(bounds);
    EXPECT_THROW(graph::validate_partition_cut(
                     bad, n, bad.bounds.empty() ? 1 : bad.bounds.size() - 1),
                 support::check_error);
    TransportOptions transport_options;
    transport_options.machines = bad.bounds.size() < 2
                                     ? 1
                                     : bad.bounds.size() - 1;
    transport_options.partitioning = bad;
    EXPECT_THROW(TransportEngine(program, transport_options),
                 support::check_error);
  };

  reject_everywhere({1, n});         // does not start at 0
  reject_everywhere({0, n - 1});     // does not cover the graph
  reject_everywhere({0, 3, 2, n});   // decreasing bounds
  reject_everywhere({0, n + 1});     // out of range
  reject_everywhere({0});            // no blocks at all

  // Block-count mismatch against the options' machine count.
  graph::Partitioning three_blocks;
  three_blocks.bounds = {0, 1, 2, n};
  TransportOptions mismatched;
  mismatched.machines = 2;
  mismatched.partitioning = three_blocks;
  EXPECT_THROW(TransportEngine(program, mismatched), support::check_error);

  // Valid degenerate cut passes the validator directly.
  graph::Partitioning degenerate;
  degenerate.bounds = {0, 0, n, n};
  graph::validate_partition_cut(degenerate, n, 3);
}

// --- error teardown ----------------------------------------------------------

core::Program throwing_program(event::PhaseId throw_phase,
                               bool throw_in_last_vertex) {
  // chain: source -> mid -> tail; the chosen vertex throws at throw_phase.
  spec::GraphBuilder b;
  const auto make_thrower = [throw_phase] {
    return model::ModuleFactory([throw_phase] {
      return std::make_unique<model::LambdaModule>(
          [throw_phase](model::PhaseContext& ctx) {
            if (ctx.phase() == throw_phase) {
              throw std::runtime_error("module exploded");
            }
            ctx.emit(0, event::Value(static_cast<double>(ctx.phase())));
          });
    });
  };
  const auto forward = [] {
    return model::ModuleFactory([] {
      return std::make_unique<model::LambdaModule>(
          [](model::PhaseContext& ctx) {
            ctx.emit(0, ctx.has_input(0) ? ctx.input(0) : event::Value(0.0));
          });
    });
  };
  const auto source = b.add("source", throw_in_last_vertex ? forward()
                                                           : make_thrower());
  const auto mid = b.add("mid", forward());
  const auto tail = b.add("tail", throw_in_last_vertex ? make_thrower()
                                                       : forward());
  b.connect(source, 0, mid, 0);
  b.connect(mid, 0, tail, 0);
  return std::move(b).build(5);
}

TEST(TransportTeardown, ModuleExceptionSurfacesAsRootCause) {
  for (const bool in_last : {false, true}) {
    for (const ChannelKind kind : kBothKinds) {
      TransportOptions options;
      options.machines = 3;  // one vertex per block
      options.channel = kind;
      TransportEngine transport(throwing_program(4, in_last), options);
      try {
        transport.run(20, nullptr);
        FAIL() << "expected the module exception to propagate";
      } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "module exploded")
            << "secondary teardown error masked the root cause (in_last="
            << in_last << ", channel=" << kind_name(kind) << ")";
      }
    }
  }
}

// Corrupts one frame in transit on the wrapped channel (send-side byte
// rewrite), so the receiving reader's decode rejects it mid-run.
class CorruptingChannel final : public distrib::Channel {
 public:
  CorruptingChannel(std::unique_ptr<distrib::Channel> inner,
                    std::uint64_t corrupt_index, std::size_t byte,
                    std::uint8_t value)
      : inner_(std::move(inner)),
        corrupt_index_(corrupt_index),
        byte_(byte),
        value_(value) {}

  void send(std::span<const std::uint8_t> frame) override {
    if (sent_++ == corrupt_index_) {
      std::vector<std::uint8_t> mangled(frame.begin(), frame.end());
      mangled[byte_] = value_;
      inner_->send(mangled);
      return;
    }
    inner_->send(frame);
  }
  void close_send() override { inner_->close_send(); }
  bool recv(std::vector<std::uint8_t>& frame) override {
    return inner_->recv(frame);
  }
  void close_recv() override { inner_->close_recv(); }

 private:
  std::unique_ptr<distrib::Channel> inner_;
  std::uint64_t corrupt_index_;
  std::size_t byte_;
  std::uint8_t value_;
  std::uint64_t sent_ = 0;
};

// Runs a 2-machine transport whose channels rewrite byte `byte` of their
// sixth frame to `value`, and expects the run to abort with a check_error
// naming the reader's rejection `reason`.
void expect_ingress_rejection(std::size_t byte, std::uint8_t value,
                              const std::string& reason) {
  const core::Program program = testutil::random_program(1);
  for (const ChannelKind kind : kBothKinds) {
    TransportOptions options;
    options.machines = 2;
    options.channel = kind;
    options.channel_capacity = 8;  // small: the blocked-sender bound bites
    options.channel_wrapper =
        [byte, value](std::unique_ptr<distrib::Channel> inner, std::size_t,
                      std::size_t) -> std::unique_ptr<distrib::Channel> {
      return std::make_unique<CorruptingChannel>(std::move(inner), 5, byte,
                                                 value);
    };
    TransportEngine transport(program, options);
    try {
      transport.run(50, nullptr);
      FAIL() << "expected the decode rejection to propagate (channel="
             << kind_name(kind) << ")";
    } catch (const support::check_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("rejected ingress frame: " + reason),
                std::string::npos)
          << "channel=" << kind_name(kind) << ": " << what;
    }
  }
}

// Regression: a reader that dies on a rejected frame must keep draining its
// channel to EOF. Before that fix the upstream sender blocked forever on
// the full channel, never reached its own teardown, and run() hung instead
// of surfacing the decode error.
TEST(TransportTeardown, CorruptedFrameAbortsTheRunInsteadOfHanging) {
  expect_ingress_rejection(0, 'X', "bad magic");  // breaks the DFW magic
}

// A frame carrying the retired wire version 1 header is refused loudly by
// the receiving reader, never decoded as if it were current.
TEST(TransportTeardown, VersionOneFrameIsRejectedWithCheckError) {
  expect_ingress_rejection(3, 1, "unsupported version");
}

// Type byte 1 — the retired single-delivery frame — is an unknown type.
TEST(TransportTeardown, RetiredFrameTypeIsRejectedWithCheckError) {
  expect_ingress_rejection(4, 1, "unknown frame type");
}

// Throws from send() on the final watermark (the frame whose phase field
// equals the run's last phase), i.e. at the very end of the sender's
// lifecycle — the last moment an egress error can occur.
class FinalWatermarkFailingChannel final : public distrib::Channel {
 public:
  FinalWatermarkFailingChannel(std::unique_ptr<distrib::Channel> inner,
                               event::PhaseId final_phase)
      : inner_(std::move(inner)), final_phase_(final_phase) {}

  void send(std::span<const std::uint8_t> frame) override {
    distrib::wire::FrameHeader header;
    if (distrib::wire::decode_header(frame, header) ==
            distrib::wire::DecodeStatus::kOk &&
        header.type == distrib::wire::FrameType::kWatermark &&
        header.phase == final_phase_) {
      throw std::runtime_error("send exploded");
    }
    inner_->send(frame);
  }
  void close_send() override { inner_->close_send(); }
  bool recv(std::vector<std::uint8_t>& frame) override {
    return inner_->recv(frame);
  }
  void close_recv() override { inner_->close_recv(); }

 private:
  std::unique_ptr<distrib::Channel> inner_;
  event::PhaseId final_phase_;
};

// Regression: a send failure recorded *inside* the teardown-side
// belt-and-braces flush_through(num_phases) used to vanish — the hub noted
// it, nothing rethrew it, and the run surfaced the downstream's secondary
// peer_closed_error (missing final watermark) instead of the root cause.
// Whether that flush or the phase-completion callback performs the failing
// send is a race; both paths must now surface the same root cause, so this
// test is deterministic only with the post-flush re-check in place.
TEST(TransportTeardown, SendFailureOnFinalWatermarkSurfacesAsRootCause) {
  const core::Program program = testutil::random_program(1);
  const event::PhaseId phases = 30;
  for (const ChannelKind kind : kBothKinds) {
    TransportOptions options;
    options.machines = 2;
    options.channel = kind;
    options.channel_wrapper =
        [phases](std::unique_ptr<distrib::Channel> inner, std::size_t,
                 std::size_t) -> std::unique_ptr<distrib::Channel> {
      return std::make_unique<FinalWatermarkFailingChannel>(std::move(inner),
                                                            phases);
    };
    TransportEngine transport(program, options);
    try {
      transport.run(phases, nullptr);
      FAIL() << "expected the send failure to propagate (channel="
             << kind_name(kind) << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "send exploded")
          << "secondary teardown error masked the egress root cause "
          << "(channel=" << kind_name(kind) << ")";
    }
  }
}

// Regression for the framed-stream teardown contract: a peer that dies
// after writing a length prefix (or part of one) but before the full
// payload must surface as a hard error on the receiver — never a hang and
// never a silent truncation that looks like clean EOF.
TEST(TransportTeardown, HalfWrittenFrameAtCloseSurfacesAsError) {
  const auto raw_write = [](int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t result =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      ASSERT_GE(result, 0) << std::strerror(errno);
      written += static_cast<std::size_t>(result);
    }
  };
  const auto prefix_for = [](std::uint32_t size) {
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
    }
    return bytes;
  };

  {
    // Prefix claims 40 payload bytes; only 10 arrive before the close.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    raw_write(fds[0], prefix_for(40));
    raw_write(fds[0], std::vector<std::uint8_t>(10, 0xcd));
    ::close(fds[0]);
    auto channel = distrib::SocketChannel::adopt(-1, fds[1]);
    std::vector<std::uint8_t> frame;
    try {
      channel->recv(frame);
      FAIL() << "truncated payload decoded as a clean EOF";
    } catch (const support::check_error& error) {
      EXPECT_NE(std::string(error.what()).find("peer closed mid-frame"),
                std::string::npos)
          << error.what();
    }
  }
  {
    // Even a torn length prefix (2 of 4 bytes) is mid-frame, not EOF.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    raw_write(fds[0], {0x12, 0x34});
    ::close(fds[0]);
    auto channel = distrib::SocketChannel::adopt(-1, fds[1]);
    std::vector<std::uint8_t> frame;
    EXPECT_THROW(channel->recv(frame), support::check_error);
  }
  {
    // A complete frame followed by a half-written one: the good frame is
    // delivered, then the truncation surfaces.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::vector<std::uint8_t> payload(16, 0xab);
    raw_write(fds[0], prefix_for(16));
    raw_write(fds[0], payload);
    raw_write(fds[0], prefix_for(16));
    raw_write(fds[0], std::vector<std::uint8_t>(7, 0xee));
    ::close(fds[0]);
    auto channel = distrib::SocketChannel::adopt(-1, fds[1]);
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(channel->recv(frame));
    EXPECT_EQ(frame, payload);
    EXPECT_THROW(channel->recv(frame), support::check_error);
  }
  {
    // Clean close exactly on a frame boundary is EOF, not an error.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    raw_write(fds[0], prefix_for(4));
    raw_write(fds[0], {1, 2, 3, 4});
    ::close(fds[0]);
    auto channel = distrib::SocketChannel::adopt(-1, fds[1]);
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(channel->recv(frame));
    EXPECT_FALSE(channel->recv(frame));
  }
}

// Half-open teardown: a peer that dies *abruptly* (connection reset, the
// process-death signature — e.g. between its checkpoint and the next
// watermark) must surface as the retryable peer_lost_error so the
// crash-restart supervisor can trigger recovery, distinct from the fatal
// "peer closed mid-frame" above (an orderly close mid-frame can only be a
// sender bug) and from clean EOF.
TEST(TransportTeardown, AbruptPeerDeathSurfacesAsRetryablePeerLost) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // One complete frame reaches the receiver's queue before the death.
  const std::uint8_t good[8] = {4, 0, 0, 0, 9, 9, 9, 9};
  ASSERT_EQ(::write(fds[0], good, sizeof good), 8);
  // Unread data in the dying peer's queue turns its close into a reset
  // (the kernel's equivalent of a TCP RST) instead of an orderly FIN.
  const std::uint8_t junk = 0x5a;
  ASSERT_EQ(::write(fds[1], &junk, 1), 1);
  ::close(fds[0]);

  auto channel = distrib::SocketChannel::adopt(-1, fds[1]);
  std::vector<std::uint8_t> frame;
  // Frames already in flight before the reset are still delivered.
  ASSERT_TRUE(channel->recv(frame));
  EXPECT_EQ(frame, (std::vector<std::uint8_t>{9, 9, 9, 9}));
  // The reset itself is the retryable peer-loss, caught by exact type —
  // a check_error here would abort the run instead of triggering restart.
  try {
    channel->recv(frame);
    FAIL() << "peer reset decoded as clean EOF";
  } catch (const distrib::protocol::peer_lost_error& error) {
    EXPECT_NE(std::string(error.what()).find("peer connection lost"),
              std::string::npos)
        << error.what();
  }
}

// --- channel stress (ctest label: transport; runs under TSan in CI) ---------

std::vector<std::uint8_t> stress_frame(std::uint64_t i) {
  // Variable-length payload derived from i so truncation/misordering shows.
  std::vector<std::uint8_t> frame(8 + (i * 7) % 96);
  for (std::size_t b = 0; b < 8; ++b) {
    frame[b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  for (std::size_t b = 8; b < frame.size(); ++b) {
    frame[b] = static_cast<std::uint8_t>(i + b);
  }
  return frame;
}

void stress_channel(distrib::Channel& channel, std::uint64_t frames) {
  std::atomic<std::uint64_t> received{0};
  std::thread consumer([&] {
    std::vector<std::uint8_t> frame;
    std::uint64_t expected = 0;
    while (channel.recv(frame)) {
      const std::vector<std::uint8_t> want = stress_frame(expected);
      ASSERT_EQ(frame.size(), want.size()) << "frame " << expected;
      ASSERT_EQ(std::memcmp(frame.data(), want.data(), want.size()), 0)
          << "frame " << expected << " corrupted in transit";
      ++expected;
    }
    received.store(expected);
  });
  for (std::uint64_t i = 0; i < frames; ++i) {
    const std::vector<std::uint8_t> frame = stress_frame(i);
    channel.send(frame);
  }
  channel.close_send();
  consumer.join();
  EXPECT_EQ(received.load(), frames);
}

TEST(ChannelStress, InProcessBoundedChannelDeliversEverythingInOrder) {
  // Tiny capacity: the sender blocks constantly, exercising the queue's
  // full and empty waits and a close right behind the final frame.
  distrib::InProcessChannel channel(4);
  stress_channel(channel, 50000);
}

TEST(ChannelStress, InProcessCapacityIsAnExactFrameBound) {
  // Three frames fit with no receiver; the fourth send returns only after a
  // recv() made room.
  distrib::InProcessChannel channel(3);
  const std::vector<std::uint8_t> frame(16, 0xcd);
  for (int i = 0; i < 3; ++i) {
    channel.send(frame);
  }
  std::atomic<bool> receiving{false};
  std::thread sender([&] {
    channel.send(frame);
    EXPECT_TRUE(receiving.load()) << "a fourth frame fit into capacity 3";
    channel.close_send();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  receiving.store(true);
  std::vector<std::uint8_t> got;
  int frames = 0;
  while (channel.recv(got)) {
    EXPECT_EQ(got, frame);
    ++frames;
  }
  sender.join();
  EXPECT_EQ(frames, 4);
}

TEST(ChannelStress, SocketChannelDeliversEverythingInOrder) {
  auto channel = distrib::SocketChannel::make_loopback();
  stress_channel(*channel, 20000);
}

TEST(ChannelStress, CloseRecvUnblocksAFullSender) {
  distrib::InProcessChannel channel(2);
  std::thread sender([&] {
    const std::vector<std::uint8_t> frame(16, 0xab);
    for (int i = 0; i < 100; ++i) {
      channel.send(frame);  // blocks at capacity until close_recv
    }
    channel.close_send();
  });
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(channel.recv(frame));  // let the sender make some progress
  channel.close_recv();
  sender.join();  // must not hang: remaining sends drop
}

TEST(ChannelStress, CloseRecvUnblocksAFullSocketSender) {
  // Socket flavour of the same contract: the sender fills the kernel
  // buffer and parks inside send(); close_recv() must wake it (the blocked
  // send returns EPIPE under MSG_NOSIGNAL and the channel goes broken, so
  // the rest of the loop drops) without close()ing a descriptor out from
  // under anyone.
  auto channel = distrib::SocketChannel::make_loopback();
  std::thread sender([&] {
    const std::vector<std::uint8_t> frame(4096, 0xab);
    for (int i = 0; i < 10000; ++i) {
      channel->send(frame);
    }
    channel->close_send();
  });
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(channel->recv(frame));  // let the sender make some progress
  channel->close_recv();
  sender.join();  // must not hang: shutdown(SHUT_WR) wakes the parked send
}

// --- socket coalescing (ctest labels: transport, fault) --------------------

// The wire form of one frame: u32 little-endian length prefix, payload.
std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  const auto size = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
  }
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

void write_raw(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t result = ::write(fd, data + written, size - written);
    ASSERT_GE(result, 0) << std::strerror(errno);
    written += static_cast<std::size_t>(result);
  }
}

// Polls `done` every millisecond for up to ten seconds.
template <typename Predicate>
bool eventually(Predicate done) {
  for (int i = 0; i < 10000; ++i) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// A socket channel over a socketpair with a tiny send buffer, whose writer
// is parked in the kernel on a frame far larger than that buffer (nobody
// reads yet): every frame sent next queues behind the parked write.
struct ParkedWriter {
  std::unique_ptr<distrib::SocketChannel> channel;
  std::vector<std::uint8_t> big = std::vector<std::uint8_t>(256 * 1024, 0x5a);
  std::uint64_t writes_at_park = 0;
};

void park_writer(ParkedWriter& parked) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small),
            0);
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof small),
            0);
  parked.channel = distrib::SocketChannel::adopt(fds[0], fds[1]);
  parked.channel->send(parked.big);
  // The writer counts a send() before issuing it, and this one cannot
  // complete until a reader drains the socket.
  ASSERT_TRUE(eventually([&] { return parked.channel->send_syscalls() >= 1; }));
  parked.writes_at_park = parked.channel->send_syscalls();
}

TEST(SocketCoalescing, SendsQueuedBehindAParkedWriterLeaveInFewWrites) {
  ParkedWriter parked;
  ASSERT_NO_FATAL_FAILURE(park_writer(parked));
  distrib::SocketChannel& channel = *parked.channel;
  constexpr std::uint64_t kSends = 100;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    channel.send(stress_frame(i));
  }
  std::thread closer([&] { channel.close_send(); });
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(channel.recv(frame));
  EXPECT_EQ(frame, parked.big);
  for (std::uint64_t i = 0; i < kSends; ++i) {
    ASSERT_TRUE(channel.recv(frame)) << "frame " << i;
    ASSERT_EQ(frame, stress_frame(i)) << "frame " << i;
  }
  EXPECT_FALSE(channel.recv(frame));
  closer.join();
  EXPECT_LE(channel.send_syscalls() - parked.writes_at_park, kSends / 10)
      << "frames queued behind a parked write must leave together";
}

TEST(SocketCoalescing, CloseSendDrainsQueuedFramesBeforeEof) {
  ParkedWriter parked;
  ASSERT_NO_FATAL_FAILURE(park_writer(parked));
  distrib::SocketChannel& channel = *parked.channel;
  constexpr std::uint64_t kSends = 50;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    channel.send(stress_frame(i));
  }
  std::atomic<bool> closed{false};
  std::thread closer([&] {
    channel.close_send();
    closed.store(true);
  });
  // Nothing is read yet, so the queue cannot have drained: close_send()
  // must still be waiting for the writer.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(closed.load());
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(channel.recv(frame));
  EXPECT_EQ(frame, parked.big);
  for (std::uint64_t i = 0; i < kSends; ++i) {
    ASSERT_TRUE(channel.recv(frame)) << "frame " << i << " lost at close";
    ASSERT_EQ(frame, stress_frame(i)) << "frame " << i;
  }
  EXPECT_FALSE(channel.recv(frame));  // EOF only after every queued frame
  closer.join();
  EXPECT_TRUE(closed.load());
}

TEST(SocketCoalescing, BufferedReaderReturnsFramesHoweverTheBytesArrive) {
  {
    // Raw writes in random 1-7-byte chunks: prefixes and payloads split
    // anywhere across reads.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    constexpr std::uint64_t kFrames = 300;
    std::vector<std::uint8_t> stream;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      const std::vector<std::uint8_t> bytes = framed(stress_frame(i));
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    auto channel = distrib::SocketChannel::adopt(-1, fds[1]);
    std::thread writer([&] {
      support::Rng rng(17);
      for (std::size_t at = 0; at < stream.size();) {
        const std::size_t chunk = std::min<std::size_t>(
            1 + rng.next_below(7), stream.size() - at);
        write_raw(fds[0], stream.data() + at, chunk);
        at += chunk;
      }
      ::close(fds[0]);
    });
    std::vector<std::uint8_t> frame;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(channel->recv(frame)) << "frame " << i;
      ASSERT_EQ(frame, stress_frame(i)) << "frame " << i;
    }
    EXPECT_FALSE(channel->recv(frame));
    writer.join();
  }
  {
    // 200 frames in one raw write: the first read takes them all, and the
    // other 199 recv() calls are served from the buffer.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    constexpr std::uint64_t kFrames = 200;
    std::vector<std::uint8_t> stream;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      const std::vector<std::uint8_t> bytes = framed(stress_frame(i));
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    ASSERT_EQ(::write(fds[0], stream.data(), stream.size()),
              static_cast<ssize_t>(stream.size()));
    ::close(fds[0]);
    auto channel = distrib::SocketChannel::adopt(-1, fds[1]);
    std::vector<std::uint8_t> frame;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(channel->recv(frame)) << "frame " << i;
      ASSERT_EQ(frame, stress_frame(i)) << "frame " << i;
    }
    EXPECT_FALSE(channel->recv(frame));
    // One read for the data (a kernel may split it), one for EOF.
    EXPECT_LE(channel->read_syscalls(), 4u);
  }
  {
    // A frame larger than the reader's initial 64 KiB buffer, between two
    // small ones.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::vector<std::uint8_t> large(300 * 1024);
    for (std::size_t b = 0; b < large.size(); ++b) {
      large[b] = static_cast<std::uint8_t>(b * 31);
    }
    std::vector<std::uint8_t> stream = framed(stress_frame(1));
    for (const auto& payload : {large, stress_frame(2)}) {
      const std::vector<std::uint8_t> bytes = framed(payload);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    auto channel = distrib::SocketChannel::adopt(-1, fds[1]);
    std::thread writer([&] {
      write_raw(fds[0], stream.data(), stream.size());
      ::close(fds[0]);
    });
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(channel->recv(frame));
    EXPECT_EQ(frame, stress_frame(1));
    ASSERT_TRUE(channel->recv(frame));
    EXPECT_EQ(frame, large);
    ASSERT_TRUE(channel->recv(frame));
    EXPECT_EQ(frame, stress_frame(2));
    EXPECT_FALSE(channel->recv(frame));
    writer.join();
  }
}

// A pipe's write end is no socket: the writer's send() fails with
// ENOTSOCK, an error that is neither a dead peer nor retryable.
TEST(SocketCoalescing, UnexpectedWriterErrorSurfacesOnTheSender) {
  const std::vector<std::uint8_t> frame(16, 0xab);
  const auto expect_send_failure = [](const support::check_error& error) {
    EXPECT_NE(std::string(error.what()).find("socket send failed"),
              std::string::npos)
        << error.what();
  };
  {
    // From close_send(), which waits for the writer — and on every later
    // send() and close_send(): the error is never lost.
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    auto channel = distrib::SocketChannel::adopt(pipe_fds[1], -1);
    channel->send(frame);
    try {
      channel->close_send();
      FAIL() << "writer error lost at close_send";
    } catch (const support::check_error& error) {
      expect_send_failure(error);
    }
    EXPECT_THROW(channel->send(frame), support::check_error);
    EXPECT_THROW(channel->close_send(), support::check_error);
    ::close(pipe_fds[0]);
  }
  {
    // From the next send() once the writer has failed.
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    auto channel = distrib::SocketChannel::adopt(pipe_fds[1], -1);
    bool thrown = false;
    ASSERT_TRUE(eventually([&] {
      try {
        channel->send(frame);
      } catch (const support::check_error& error) {
        expect_send_failure(error);
        thrown = true;
      }
      return thrown;
    }));
    EXPECT_THROW(channel->close_send(), support::check_error);
    ::close(pipe_fds[0]);
  }
}

TEST(SocketCoalescing, SendAfterCloseSendThrows) {
  auto channel = distrib::SocketChannel::make_loopback();
  const std::vector<std::uint8_t> frame(8, 0x11);
  channel->send(frame);
  channel->close_send();
  EXPECT_THROW(channel->send(frame), support::check_error);
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(channel->recv(got));
  EXPECT_EQ(got, frame);
  EXPECT_FALSE(channel->recv(got));
}

// Descriptors open in this process below `limit`.
int open_descriptors_below(int limit) {
  int count = 0;
  for (int fd = 0; fd < limit; ++fd) {
    if (::fcntl(fd, F_GETFD) != -1) {
      ++count;
    }
  }
  return count;
}

// make_loopback() opens four descriptors; a failure after the first must
// close every one it opened. The child fills its descriptor table up to a
// lowered RLIMIT_NOFILE but one slot, so the listener's socket() succeeds
// and the client's fails with EMFILE.
TEST(SocketCoalescing, MakeLoopbackLeaksNoDescriptorWhenASocketCallFails) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    int highest = 0;
    for (int fd = 0; fd < 1024; ++fd) {
      if (::fcntl(fd, F_GETFD) != -1) {
        highest = fd;
      }
    }
    const int limit = highest + 8;
    rlimit lowered{};
    if (::getrlimit(RLIMIT_NOFILE, &lowered) != 0) {
      ::_exit(2);
    }
    lowered.rlim_cur = static_cast<rlim_t>(limit);
    if (::setrlimit(RLIMIT_NOFILE, &lowered) != 0) {
      ::_exit(2);
    }
    int last = -1;
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY);
      if (fd < 0) {
        break;
      }
      last = fd;
    }
    if (errno != EMFILE || last < 0) {
      ::_exit(3);
    }
    ::close(last);
    const int before = open_descriptors_below(limit);
    try {
      distrib::SocketChannel::make_loopback();
      ::_exit(4);
    } catch (const support::check_error& error) {
      if (std::string(error.what()).find("socket() failed") ==
          std::string::npos) {
        ::_exit(5);
      }
    } catch (...) {
      ::_exit(6);
    }
    ::_exit(open_descriptors_below(limit) == before ? 0 : 7);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: setrlimit failed, 3: could not fill the descriptor table, "
         "4: make_loopback did not throw, 5: wrong message, "
         "6: not a check_error, 7: a descriptor leaked";
}

}  // namespace
}  // namespace df
