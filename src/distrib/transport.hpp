// Real partitioned execution over serialized channels (paper section 6;
// DESIGN.md, "Real transport").
//
// Where distrib::ClusterExecutor *simulates* multi-machine execution with a
// timing model, TransportEngine actually runs one engine per partition
// block with serialized bytes crossing every boundary:
//
//   * the graph is cut into contiguous satisfactory-numbering blocks
//     (graph::Partitioning); partition engine k owns block k and executes
//     only its own vertices — a coordinator thread paces the phase windows
//     and a block-scoped core::Engine worker pool runs the pairs — against
//     its own module state;
//   * every ordered pair (j, k), j < k, gets one distrib::Channel carrying
//     wire-encoded frames (distrib/wire.hpp) — cross-partition traffic is
//     forward-only, the invariant the numbering guarantees, so no backward
//     channels exist;
//   * cross-partition deliveries accumulate per egress channel and travel
//     as coalesced kDeliveryBatch frames (wire v2: one header + seq/phase
//     for the whole flush, varint-delta addressing, dense value encoding);
//     a batch is flushed when it reaches the flush threshold and before the
//     phase's kWatermark frame ("all my phase <= p deliveries precede
//     this") goes out on every egress channel — that watermark is the
//     phase-advance handshake: a receiving engine starts phase p only after
//     reassembling watermark p from every upstream block;
//   * the receiver ingests remote frames through a per-channel sequencer
//     that restores exact send order from frame sequence numbers and drops
//     duplicates, so exactly-once in-order ingestion survives duplicating,
//     reordering, and delaying channels (FaultInjectingChannel). Reader
//     threads only *validate* frames (bounds-checked structural walk, no
//     allocation); the raw bytes ride pooled buffers through the sequencer
//     and the engine decodes batches straight into its pending input
//     bundles — payload bytes are copied exactly once, from the received
//     frame into the final event::Value, and steady-state ingestion
//     recycles every buffer it touches;
//   * pipelining happens *across* blocks: block 0 may be phases ahead of
//     block k, bounded by channel capacity (in-process ring) or the kernel
//     socket buffer — the transport's backpressure.
//
// Within a block, execution is a full core::Engine — the paper's multicore
// worker pool — scoped to the block (DESIGN.md, "Two-level parallelism"):
// the engine's scheduler tables are sized to the block's contiguous index
// range (graph::block_local_m), engine_threads workers execute in-block
// pairs concurrently with phases pipelined up to max_inflight_phases. The
// two seams:
//
//   * ingress: each phase's reassembled remote deliveries are injected as
//     that phase's virtual index-0 inputs when its window opens (the
//     watermark handshake guarantees the set is complete), so the block
//     scheduler can promote remote-fed vertices exactly like locally-fed
//     ones;
//   * egress: boundary-crossing worker outputs land in per-(channel, phase)
//     batches under a per-link mutex and are sent only when the engine
//     reports the phase complete — watermark order is preserved and the
//     sub-threshold frames-per-phase ceiling (one batch + one watermark per
//     channel per phase) survives concurrent egress.
//
// The ensemble's sink output stays *byte-identical* (canonical order) to
// the sequential reference; the differential suite in test_transport.cpp
// asserts exactly that over the randomized program corpus, both channel
// implementations, fault-injected channels, and engine_threads {1, 2, 4}.
//
// Teardown ordering (also DESIGN.md): each engine closes its egress
// channels immediately after its last watermark, then drains its ingress
// channels to EOF (consuming any fault-injected trailing duplicates). On an
// error, the failing engine closes egress first — downstream observes a
// close before the expected watermark and aborts in turn — and then keeps
// draining ingress to EOF so upstream senders can never block forever on a
// full channel to it. The coordinator joins all engines and rethrows the
// first root-cause error.
#pragma once

#include <functional>
#include <memory>

#include "core/engine.hpp"
#include "core/executor.hpp"
#include "distrib/channel.hpp"
#include "graph/partition.hpp"

namespace df::distrib {

enum class ChannelKind {
  kInProcess,  // bounded SPSC-ring channel, frames still wire-encoded
  kSocket,     // loopback TCP, length-prefixed frames
};

/// Thrown by a TransportOptions::crash_hook to kill the calling partition
/// at that instant: its block engine (all in-flight phases, module state,
/// staged egress) is destroyed, its ingress channels die mid-stream, and
/// the supervisor restarts it from its last committed checkpoint. Not an
/// std::exception on purpose — nothing but the supervisor may absorb it.
struct CrashSignal {};

/// Instrumented points of the partition coordinator loop where a
/// crash_hook fires (and may throw CrashSignal). Together they cover the
/// interesting failure geometry: between phases, mid-ingest (after one
/// upstream's watermark but before the next), and on both sides of the
/// checkpoint commit point — a kMidCheckpoint crash must restart from the
/// *previous* checkpoint, kAfterCheckpoint from the new one.
enum class CrashPoint : std::uint8_t {
  kBeforeIngest,    // top of the phase loop, before any ingestion
  kMidIngest,       // first upstream's watermark consumed, rest pending
  kBeforePhase,     // all remote deliveries reassembled, phase not started
  kMidCheckpoint,   // snapshot built but not yet committed
  kAfterCheckpoint  // checkpoint committed and upstream retention acked
};

struct TransportOptions {
  std::size_t machines = 2;
  ChannelKind channel = ChannelKind::kInProcess;
  /// Frames buffered per in-process channel before the sender blocks (the
  /// cross-partition backpressure bound). Rounded up to a power of two.
  std::size_t channel_capacity = 256;
  /// Explicit cut; if empty bounds, a balanced one is computed. Validated
  /// by graph::validate_partition_cut (empty blocks are legal).
  graph::Partitioning partitioning;
  /// Test hook: wraps each freshly built channel, e.g. in a
  /// FaultInjectingChannel. Arguments are (channel, from_block, to_block).
  std::function<std::unique_ptr<Channel>(std::unique_ptr<Channel>,
                                         std::size_t, std::size_t)>
      channel_wrapper;
  /// Worker threads of each per-block core::Engine (the inner level of the
  /// two-level parallelism; the outer level is `machines`).
  std::size_t engine_threads = 1;
  /// Per-block engine phase window (EngineOptions::max_inflight_phases);
  /// bounds how far a block's own pipeline runs ahead of its slowest
  /// in-flight phase. Cross-block skew is bounded separately by
  /// channel_capacity. Must be >= 1 (the per-block engines need a finite
  /// window to pace the watermark flush).
  std::size_t max_inflight_phases = 64;
  /// Crash-restart recovery (DESIGN.md, "Crash-restart recovery"): when
  /// > 0, every partition engine checkpoints its full execution state
  /// (core::Engine::snapshot_state plus ingress/egress cursors and the
  /// partition's sink count) each `checkpoint_every` completed phases, and
  /// egress links retain their sent frames until the downstream partition's
  /// checkpoint commit acknowledges them (watermark-bounded replay). Egress
  /// framing also switches to the deterministic sorted-flush path so a
  /// restarted partition's re-executed phases reproduce byte-identical
  /// frames under the original sequence numbers. 0 (default) disables
  /// checkpointing, retention, and the deterministic path entirely — the
  /// incremental-encode hot path is untouched.
  std::size_t checkpoint_every = 0;
  /// Test seam for the kill-a-partition harness: called at the instrumented
  /// CrashPoints of every partition coordinator with (block, phase, point).
  /// Throwing CrashSignal from it simulates that partition's process death;
  /// anything else it throws aborts the run like a module error. Setting it
  /// requires checkpoint_every > 0 (recovery needs retained frames to
  /// replay) and wraps every channel in a CrashableChannel.
  std::function<void(std::size_t, event::PhaseId, CrashPoint)> crash_hook;
};

/// Per-run wire accounting, summed over every engine. The differential
/// suite asserts a frames-per-phase ceiling on these (at most one batch
/// flush plus one watermark per channel per phase for sub-threshold
/// traffic), so a batching regression fails CI instead of only showing up
/// in bench_transport.
struct TransportStats {
  std::uint64_t frames_sent = 0;        // delivery + batch + watermark frames
  std::uint64_t frames_received = 0;    // includes duplicates
  std::uint64_t bytes_sent = 0;         // encoded frame bytes (no prefixes)
  std::uint64_t bytes_received = 0;     // encoded frame bytes (incl. dups)
  std::uint64_t batch_frames_sent = 0;  // kDeliveryBatch frames
  std::uint64_t batched_deliveries = 0; // deliveries carried inside batches
  std::uint64_t watermarks_sent = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t remote_messages = 0;    // deliveries that crossed a boundary
  std::uint64_t local_messages = 0;     // deliveries within a block
  /// Re-sends of frames whose sequence number had already been sent on
  /// that link — retention replays after a downstream restart plus a
  /// restarted partition's own rollback re-flushes. Counted separately
  /// from frames_sent, which keeps counting *unique* seqs only, so the
  /// frames-per-phase ceiling holds across restarts.
  std::uint64_t frames_replayed = 0;
  std::uint64_t checkpoints_taken = 0;  // committed partition checkpoints
  std::uint64_t checkpoint_bytes = 0;   // engine snapshot bytes, summed
  std::uint64_t restarts = 0;           // partition generations beyond the first
};

class TransportEngine final : public core::Executor {
 public:
  TransportEngine(const core::Program& program, TransportOptions options);

  /// Pulls all feed batches up front, routes each external event to the
  /// partition owning its source vertex, runs every partition engine to
  /// completion, and rethrows the first engine error (if any) after all
  /// threads have been joined.
  void run(event::PhaseId num_phases, core::PhaseFeed* feed) override;

  const core::SinkStore& sinks() const override { return sinks_; }
  core::ExecStats stats() const override { return stats_; }
  const TransportStats& transport_stats() const { return transport_stats_; }
  const graph::Partitioning& partitioning() const { return partitioning_; }

 private:
  struct EngineState;

  void engine_main(EngineState& state, event::PhaseId num_phases);

  core::Program program_;
  TransportOptions options_;
  graph::Partitioning partitioning_;
  /// owner_[v] = block owning internal index v (slot 0 unused): an O(1)
  /// table form of Partitioning::block_of.
  std::vector<std::uint32_t> owner_;
  /// Channels live until the engine is destroyed (not just until run()
  /// returns), so tests holding wrapper pointers can read fault counters
  /// after the run.
  std::vector<std::unique_ptr<Channel>> channels_;
  core::SinkStore sinks_;
  core::ExecStats stats_;
  TransportStats transport_stats_;
  bool ran_ = false;
};

}  // namespace df::distrib
