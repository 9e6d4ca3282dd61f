// The partitioned-transport test harness (DESIGN.md, "Real transport"):
//
//   * differential suite — TransportEngine over 2/3/4 partitions and both
//     channel implementations must produce sink output byte-identical to
//     the sequential reference across the randomized program corpus
//     (random_program.hpp, the same corpus the engine serializability
//     sweep uses);
//   * fault injection — channels that duplicate, reorder (within a bounded
//     window), and delay frames must not change the output by a single
//     byte, and the receiver-side sequencers must drop exactly the
//     duplicates that were injected (exactly-once ingestion);
//   * degenerate partitions — empty blocks are legal for both the real
//     transport and the simulated cluster, and invalid cuts are rejected
//     by the one shared validator (graph::validate_partition_cut);
//   * error teardown — a module exception anywhere in the ensemble
//     surfaces as the root cause (not as a secondary peer-closed abort)
//     and the run still terminates;
//   * channel stress — the blocking bounded in-process channel and the
//     loopback socket channel under a fast producer/consumer pair (the
//     `transport` ctest label; runs under TSan in CI).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "distrib/channel.hpp"
#include "distrib/cluster.hpp"
#include "distrib/protocol.hpp"
#include "distrib/transport.hpp"
#include "distrib/wire.hpp"
#include "model/sources.hpp"
#include "model/synthetic.hpp"
#include "random_program.hpp"
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

  for (const std::size_t machines : {std::size_t{2}, std::size_t{3},
                                     std::size_t{4}}) {
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
      EXPECT_GT(stats.watermarks_sent, 0U);
      EXPECT_LE(stats.frames_sent, 2 * phases * channels)
          << "machines=" << machines << " channel=" << kind_name(kind)
          << " seed=" << seed << ": batching regressed ("
          << stats.frames_sent << " frames, " << stats.remote_messages
          << " remote deliveries)";
      // Every remote delivery rides a batch — the engine never falls back
      // to one-delivery-per-frame — and nothing is lost or double-counted.
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
    for (const std::size_t engine_threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const ChannelKind kind : kBothKinds) {
        TransportOptions options;
        options.machines = machines;
        options.channel = kind;
        options.channel_capacity = 8;
        options.engine_threads = engine_threads;
        // Small window so the inner pipeline's backpressure (start_phase
        // blocking while the egress hub holds future-phase batches) is
        // exercised, not just theoretical.
        options.max_inflight_phases = 4;
        TransportEngine transport(program, options);
        const auto report =
            trace::check_against_sequential(program, transport, phases);
        EXPECT_TRUE(report.equivalent)
            << "machines=" << machines << " threads=" << engine_threads
            << " channel=" << kind_name(kind) << " seed=" << seed << "\n"
            << report.summary();
        EXPECT_GT(report.reference_records, 0U)
            << "workload produced no output";

        // The ceiling and the accounting invariants must survive
        // concurrent egress from engine_threads workers per block.
        const auto& stats = transport.transport_stats();
        const std::uint64_t channels = machines * (machines - 1) / 2;
        EXPECT_LE(stats.frames_sent, 2 * phases * channels)
            << "machines=" << machines << " threads=" << engine_threads
            << " seed=" << seed
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

INSTANTIATE_TEST_SUITE_P(Seeds, TransportTwoLevel,
                         ::testing::Range<std::uint64_t>(0, 10));

// Fault-injected channels under multi-threaded block engines: duplicates,
// reordering, and delays must interact correctly with the hold-and-patch
// egress (sequence numbers are assigned at send time, so the receiver's
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
TEST(TransportTwoLevel, RejectsZeroThreadsAndWindow) {
  const core::Program program = testutil::random_program(2);
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

TEST(PartitionCuts, EmptyBlocksExecuteCorrectlyOnTransportAndCluster) {
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

  distrib::ClusterOptions cluster_options;
  cluster_options.machines = degenerate.bounds.size() - 1;
  cluster_options.partitioning = degenerate;
  cluster_options.fixed_vertex_cost_ns = 100;
  distrib::ClusterExecutor cluster(program, cluster_options);
  const auto report =
      trace::check_against_sequential(program, cluster, phases);
  EXPECT_TRUE(report.equivalent) << report.summary();
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
    distrib::ClusterOptions cluster_options;
    cluster_options.machines = transport_options.machines;
    cluster_options.partitioning = bad;
    EXPECT_THROW(distrib::ClusterExecutor(program, cluster_options),
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
  // Tiny capacity: the sender blocks constantly, exercising both condvar
  // directions and the close-after-final-push race re-check.
  distrib::InProcessChannel channel(4);
  stress_channel(channel, 50000);
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

}  // namespace
}  // namespace df
