#include "distrib/transport.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "concurrency/annotations.hpp"
#include "concurrency/blocking_queue.hpp"
#include "core/engine.hpp"
#include "distrib/protocol.hpp"
#include "distrib/wire.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace df::distrib {

namespace {

using protocol::EngineEvent;
using protocol::peer_closed_error;
using protocol::ReceiverEvent;
using protocol::SenderEvent;
using protocol::SenderState;

/// A phase's staged payload is finished into a frame as soon as it reaches
/// this size, so frames stay bounded no matter how chatty a phase is
/// (multiple batch frames per phase are legal; each carries the same phase
/// id).
constexpr std::size_t kBatchFlushBytes = std::size_t{48} * 1024;

/// Concurrent egress side of one partition: owns every egress link of the
/// block. The block engine's workers add boundary-crossing deliveries from
/// any thread (serialized per link by that link's mutex); the engine's
/// phase-completion hook flushes completed phases in watermark order.
///
/// Because the worker pool pipelines phases, deliveries for phase q arrive
/// while earlier phases are still open — but a frame for phase q must not
/// reach the peer before watermark q-1 (the receiver's phase window
/// rejects it), and the per-channel seq must reflect send order. So each
/// link stages the live deliveries of every open phase and sends nothing
/// until the phase completes; the flush then encodes them, starting a new
/// frame whenever the payload reaches kBatchFlushBytes. Sub-threshold
/// traffic keeps the frames-per-phase ceiling: exactly one kDeliveryBatch
/// (if any deliveries) plus one kWatermark per channel per phase. Staged
/// memory per open (link, phase) is bounded by that phase's traffic, and
/// the staging vectors are recycled, so a warm link allocates no staging
/// storage.
///
/// The flush encodes in (to_index, to_port, staging position) order. The
/// key is not unique: a module may emit twice on one port in a phase, and
/// the receiver keeps the last message (PhaseContext::input). Equal keys
/// can only come from one producer, though — each input port has at most
/// one in-edge — and one worker stages that producer's deliveries in
/// emission order. So the order keeps repeated emissions in emission order
/// and does not depend on worker interleaving: frame boundaries and bytes
/// are a pure function of the phase's deliveries, which rollback re-sends
/// rely on.
///
/// The add -> flush ordering needs no extra fence: a phase-q delivery is
/// added while its producing pair executes, the pair's finish is applied
/// afterwards, and only then can phase q complete and trigger the flush —
/// with the link mutex serializing add against flush.
///
/// Crash-restart recovery (retain mode, DESIGN.md "Crash-restart
/// recovery") layers two things on top, both inactive when retain is
/// false:
///   * retention — every sent frame is kept, keyed by seq, until the
///     downstream partition's checkpoint commit calls ack_through; a
///     restarted downstream asks replay_from to re-send everything past
///     its checkpoint's consumed floor;
///   * rollback — a restarted sender rewinds its seq/flush cursors to the
///     checkpoint's and clears staged phases; re-execution restages them
///     and the flush reproduces byte-identical frames under the original
///     seqs, which the peer's sequencer drops as duplicates. Re-sends of
///     already-sent seqs count as frames_replayed, not frames_sent, so
///     frames_sent keeps counting unique seqs and the frames-per-phase
///     ceiling holds across restarts.
class EgressHub {
 public:
  /// One link's send-side cursor pair, recorded into checkpoints.
  struct LinkCursor {
    std::uint64_t next_seq = 0;
    event::PhaseId flushed_through = 0;
  };

  EgressHub(const std::vector<Channel*>& channels, bool retain)
      : retain_(retain) {
    links_.reserve(channels.size());
    for (Channel* channel : channels) {
      links_.push_back(std::make_unique<Link>());
      links_.back()->channel = channel;
    }
  }

  /// Stages one boundary-crossing delivery on link `link_index` for
  /// `phase`. Called from engine worker threads.
  void add(std::size_t link_index, event::PhaseId phase,
           core::Delivery&& delivery) {
    Link& link = *links_[link_index];
    conc::MutexLock lock(link.mutex);
    ++link.stats.remote_messages;
    // Workers only produce deliveries while the block engine is alive, and
    // close_all runs strictly after its destruction — an add after close is
    // a protocol violation, not a race to tolerate.
    DF_CHECK(!link.machine.is(SenderState::kClosed),
             "egress delivery for phase ", phase, " after close_send");
    if (link.machine.is(SenderState::kFailed)) {
      return;  // peer unreachable; the run is already aborting
    }
    DF_CHECK(phase > link.flushed_through,
             "egress delivery for phase ", phase,
             " after its watermark was flushed");
    auto it = link.staged.find(phase);
    if (it == link.staged.end()) {
      if (link.spare.empty()) {
        it = link.staged.try_emplace(phase).first;
      } else {
        // Reuse a flushed phase's map node and vector capacity.
        Staged::node_type node = std::move(link.spare.back());
        link.spare.pop_back();
        node.key() = phase;
        it = link.staged.insert(std::move(node)).position;
      }
    }
    it->second.push_back(std::move(delivery));
  }

  /// Sends every unflushed phase <= p, in phase order, each phase's batch
  /// frames followed by its watermark. Monotone and idempotent per link,
  /// so out-of-order completion callbacks from concurrent workers are
  /// safe. Send failures take the link's sender machine to kFailed and
  /// record the first error instead of throwing (callers run inside engine
  /// worker loops).
  void flush_through(event::PhaseId p) {
    for (std::unique_ptr<Link>& entry : links_) {
      Link& link = *entry;
      conc::MutexLock lock(link.mutex);
      if (retain_) {
        prune_locked(link);  // harvest acks posted since the last flush
      }
      while (link.machine.is(SenderState::kOpen) && link.flushed_through < p) {
        const event::PhaseId q = link.flushed_through + 1;
        try {
          flush_phase_locked(link, q);
        } catch (...) {
          record_error(std::current_exception());
          link.machine.advance(SenderEvent::kSendError);
          break;
        }
        link.machine.advance(SenderEvent::kFlush);
        link.flushed_through = q;
      }
    }
  }

  /// Idempotent: the sender machine's kClose edge fires at most once per
  /// link (kFailed also closes — the abort path still signals EOF so the
  /// peer can finish draining).
  void close_all() {
    for (std::unique_ptr<Link>& entry : links_) {
      Link& link = *entry;
      conc::MutexLock lock(link.mutex);
      if (!link.machine.is(SenderState::kClosed)) {
        link.machine.advance(SenderEvent::kClose);
      }
      try {
        link.channel->close_send();
      } catch (...) {
        record_error(std::current_exception());
      }
    }
  }

  std::exception_ptr error() {
    conc::MutexLock lock(error_mutex_);
    return error_;
  }

  /// Snapshot of every link's send-side cursors, for the checkpoint image.
  /// Call only at a quiescent point after flush_through (no concurrent
  /// adds or flushes advancing the cursors mid-snapshot).
  std::vector<LinkCursor> cursors() {
    std::vector<LinkCursor> out;
    out.reserve(links_.size());
    for (std::unique_ptr<Link>& entry : links_) {
      Link& link = *entry;
      conc::MutexLock lock(link.mutex);
      out.push_back({link.next_seq, link.flushed_through});
    }
    return out;
  }

  /// Restart rollback: rewinds every link to a checkpoint's cursors and
  /// discards staged phases (re-execution restages them). The
  /// downstream peer never died, so the sender machine stays kOpen and the
  /// re-executed flushes re-send their frames under the original seqs —
  /// deterministically identical bytes — which the peer's sequencer drops
  /// as duplicates. Retained frames are kept: another partition may still
  /// request them.
  void rollback(const std::vector<LinkCursor>& cursors) {
    DF_CHECK(retain_, "egress rollback without retention");
    DF_CHECK(cursors.size() == links_.size(), "egress rollback cursor count");
    for (std::size_t i = 0; i < links_.size(); ++i) {
      Link& link = *links_[i];
      conc::MutexLock lock(link.mutex);
      DF_CHECK(link.machine.is(SenderState::kOpen),
               "egress rollback on a ", protocol::to_string(link.machine.state()),
               " link");
      link.staged.clear();
      link.next_seq = cursors[i].next_seq;
      link.flushed_through = cursors[i].flushed_through;
    }
  }

  /// Downstream checkpoint commit for link `link_index`: frames below
  /// `floor` can never be requested again, so retention may drop them.
  /// This is the watermark bound on replay memory. Deliberately lock-free
  /// (a monotone atomic floor, harvested by the sender's own flushes and
  /// by replay_from): the caller is the *downstream* coordinator, and this
  /// link's mutex may be held by an upstream worker blocked on a send into
  /// the very channel that coordinator has stopped draining — taking the
  /// mutex here would close a deadlock cycle through the backpressure.
  void ack_through(std::size_t link_index, std::uint64_t floor) {
    std::atomic<std::uint64_t>& cell = links_[link_index]->ack_floor;
    std::uint64_t seen = cell.load(std::memory_order_relaxed);
    while (seen < floor &&
           !cell.compare_exchange_weak(seen, floor,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Re-sends every retained frame with seq >= from_seq down link
  /// `link_index`, bracketed by the sender machine's kReplayStart /
  /// kReplayDone edges. Called by the *restarted downstream partition's*
  /// supervisor thread — not by this block's own workers — after it
  /// revived its end of the channel; holding the link mutex for the whole
  /// replay means a concurrent flush_through never observes kReplaying
  /// (the verifier's model additionally proves the interleaved composition
  /// safe). If the original session had already closed, a fresh sender
  /// machine walks the same verified open->replay->close path and the
  /// close is re-issued so the revived peer still sees frames-then-EOF.
  void replay_from(std::size_t link_index, std::uint64_t from_seq) {
    DF_CHECK(retain_, "egress replay without retention");
    Link& link = *links_[link_index];
    conc::MutexLock lock(link.mutex);
    if (link.machine.is(SenderState::kFailed)) {
      return;  // the run is aborting; the restarted peer will observe EOF
    }
    const bool was_closed = link.machine.is(SenderState::kClosed);
    if (was_closed) {
      link.machine = protocol::SenderMachine();
    }
    // Requesting replay from `from_seq` is also an ack: the restarted peer
    // committed that floor, so earlier frames are unreachable.
    ack_through(link_index, from_seq);
    prune_locked(link);
    link.machine.advance(SenderEvent::kReplayStart);
    try {
      for (auto it = link.retained.lower_bound(from_seq);
           it != link.retained.end(); ++it) {
        link.channel->send(it->second);
        link.machine.advance(SenderEvent::kFlush);
        ++link.stats.frames_replayed;
      }
    } catch (...) {
      record_error(std::current_exception());
      link.machine.advance(SenderEvent::kSendError);
      return;
    }
    link.machine.advance(SenderEvent::kReplayDone);
    if (was_closed) {
      link.machine.advance(SenderEvent::kClose);
      try {
        link.channel->close_send();
      } catch (...) {
        record_error(std::current_exception());
      }
    }
  }

  /// frames_replayed is deliberately NOT folded here: fold_stats runs
  /// when this hub's own partition completes, but a crashed *downstream*
  /// partition's replay_from can still bump the counter afterwards (the
  /// upstream may finish its run long before the victim even crashes).
  /// The ensemble reads frames_replayed() once every partition thread has
  /// joined instead.
  void fold_stats(TransportStats& total) {
    for (std::unique_ptr<Link>& entry : links_) {
      Link& link = *entry;
      conc::MutexLock lock(link.mutex);
      total.frames_sent += link.stats.frames_sent;
      total.bytes_sent += link.stats.bytes_sent;
      total.batch_frames_sent += link.stats.batch_frames_sent;
      total.batched_deliveries += link.stats.batched_deliveries;
      total.watermarks_sent += link.stats.watermarks_sent;
      total.remote_messages += link.stats.remote_messages;
    }
  }

  /// Sum of replayed frames across links — rollback re-sends and
  /// retention replays both land here. Only stable once no restarted
  /// peer can request another replay (all partition threads joined).
  std::uint64_t frames_replayed() {
    std::uint64_t total = 0;
    for (std::unique_ptr<Link>& entry : links_) {
      Link& link = *entry;
      conc::MutexLock lock(link.mutex);
      total += link.stats.frames_replayed;
    }
    return total;
  }

 private:
  struct LinkStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t batch_frames_sent = 0;
    std::uint64_t batched_deliveries = 0;
    std::uint64_t watermarks_sent = 0;
    std::uint64_t remote_messages = 0;
    std::uint64_t frames_replayed = 0;
  };

  /// Each open phase's staged deliveries, in staging order.
  using Staged = std::map<event::PhaseId, std::vector<core::Delivery>>;

  struct Link {
    Channel* channel = nullptr;  // set once at construction, then immutable
    conc::Mutex mutex;
    /// Lifecycle per protocol.hpp's sender machine: one kFlush per flushed
    /// phase, kSendError on the first failure, kClose exactly once —
    /// plus, in retain mode, kReplayStart/kReplayDone brackets around
    /// replay_from.
    protocol::SenderMachine machine DF_GUARDED_BY(mutex);
    std::uint64_t next_seq DF_GUARDED_BY(mutex) = 0;
    event::PhaseId flushed_through DF_GUARDED_BY(mutex) = 0;
    /// Count of distinct seqs ever sent (the high-water mark next_seq ever
    /// reached); a send below it is a rollback re-send.
    std::uint64_t sent_high DF_GUARDED_BY(mutex) = 0;
    Staged staged DF_GUARDED_BY(mutex);
    /// Flushed phases' map nodes, emptied with their capacity kept.
    std::vector<Staged::node_type> spare DF_GUARDED_BY(mutex);
    /// Flush scratch: the staged phase's encode order (indices into it).
    std::vector<std::uint32_t> order DF_GUARDED_BY(mutex);
    wire::BatchEncoder encoder DF_GUARDED_BY(mutex);
    /// Retain mode: sent frames keyed by seq, pruned below ack_floor.
    std::map<std::uint64_t, std::vector<std::uint8_t>> retained
        DF_GUARDED_BY(mutex);
    /// Monotone retention floor posted by the downstream peer's checkpoint
    /// commits (ack_through); applied to `retained` only by threads already
    /// holding the mutex (prune_locked).
    std::atomic<std::uint64_t> ack_floor{0};
    // encode scratch, capacity retained
    std::vector<std::uint8_t> buf DF_GUARDED_BY(mutex);
    LinkStats stats DF_GUARDED_BY(mutex);
  };

  /// Drops retained frames below the acked floor (the sender-side half of
  /// ack_through's deferred handshake).
  void prune_locked(Link& link) DF_REQUIRES(link.mutex) {
    const std::uint64_t floor = link.ack_floor.load(std::memory_order_acquire);
    link.retained.erase(link.retained.begin(),
                        link.retained.lower_bound(floor));
  }

  /// Sends one fully encoded frame already stamped with `seq` (the caller
  /// advanced link.next_seq). Retain mode stores the frame for replay —
  /// or, when a rollback re-execution re-produces an already-retained seq,
  /// byte-compares against the stored copy, turning any egress
  /// nondeterminism into a loud failure instead of silent divergence at
  /// the peer. Re-sends of already-sent seqs count as frames_replayed
  /// only; `deliveries` is the batch's delivery count (0 for watermarks).
  void send_encoded_locked(Link& link, std::uint64_t seq,
                           std::span<const std::uint8_t> frame,
                           bool watermark, std::uint64_t deliveries)
      DF_REQUIRES(link.mutex) {
    if (retain_) {
      const auto it = link.retained.find(seq);
      if (it == link.retained.end()) {
        link.retained.emplace(
            seq, std::vector<std::uint8_t>(frame.begin(), frame.end()));
      } else {
        DF_CHECK(it->second.size() == frame.size() &&
                     std::equal(frame.begin(), frame.end(),
                                it->second.begin()),
                 "rollback re-execution produced different bytes for seq ",
                 seq, " (nondeterministic egress framing)");
      }
    }
    link.channel->send(frame);
    if (seq < link.sent_high) {
      ++link.stats.frames_replayed;
      return;
    }
    link.sent_high = seq + 1;
    ++link.stats.frames_sent;
    link.stats.bytes_sent += frame.size();
    if (watermark) {
      ++link.stats.watermarks_sent;
    } else {
      ++link.stats.batch_frames_sent;
      link.stats.batched_deliveries += deliveries;
    }
  }

  /// Finishes the encoder's pending deliveries into one batch frame for
  /// phase q and sends it.
  void send_batch_locked(Link& link, event::PhaseId q)
      DF_REQUIRES(link.mutex) {
    const std::uint64_t seq = link.next_seq++;
    const std::uint64_t count = link.encoder.pending();
    link.encoder.finish(seq, q, link.buf);
    send_encoded_locked(link, seq, link.buf, /*watermark=*/false, count);
  }

  void flush_phase_locked(Link& link, event::PhaseId q)
      DF_REQUIRES(link.mutex) {
    const auto it = link.staged.find(q);
    if (it != link.staged.end()) {
      // The deterministic encode order (class comment): sorting indices
      // moves no Delivery, and the index tie-break keeps one port's
      // repeated emissions in emission order.
      const std::vector<core::Delivery>& staged = it->second;
      link.order.resize(staged.size());
      std::iota(link.order.begin(), link.order.end(), std::uint32_t{0});
      std::sort(link.order.begin(), link.order.end(),
                [&staged](std::uint32_t a, std::uint32_t b) {
                  const core::Delivery& x = staged[a];
                  const core::Delivery& y = staged[b];
                  if (x.to_index != y.to_index) {
                    return x.to_index < y.to_index;
                  }
                  return x.to_port != y.to_port ? x.to_port < y.to_port
                                                : a < b;
                });
      for (const std::uint32_t i : link.order) {
        link.encoder.add(staged[i]);
        if (link.encoder.payload_bytes() >= kBatchFlushBytes) {
          send_batch_locked(link, q);
        }
      }
      if (link.encoder.pending() > 0) {
        send_batch_locked(link, q);
      }
      Staged::node_type node = link.staged.extract(it);
      node.mapped().clear();
      link.spare.push_back(std::move(node));
    }
    const std::uint64_t seq = link.next_seq++;
    wire::encode_watermark(seq, q, link.buf);
    send_encoded_locked(link, seq, link.buf, /*watermark=*/true, 0);
  }

  void record_error(std::exception_ptr error) {
    conc::MutexLock lock(error_mutex_);
    if (!error_) {
      error_ = std::move(error);
    }
  }

  const bool retain_;
  std::vector<std::unique_ptr<Link>> links_;
  conc::Mutex error_mutex_;
  std::exception_ptr error_ DF_GUARDED_BY(error_mutex_);
};

/// Recycles received-frame buffers between the engine thread (which
/// releases each consumed frame) and its reader threads (which acquire one
/// before every recv). In steady state every buffer in flight came from
/// here with its capacity intact, so ingestion performs no per-frame
/// allocations. The lock is uncontended in practice: batching makes frames
/// rare (a couple per channel per phase).
class BufferPool {
 public:
  std::vector<std::uint8_t> acquire() {
    conc::MutexLock lock(mutex_);
    if (pool_.empty()) {
      return {};
    }
    std::vector<std::uint8_t> buf = std::move(pool_.back());
    pool_.pop_back();
    return buf;
  }

  void release(std::vector<std::uint8_t>&& buf) {
    buf.clear();
    conc::MutexLock lock(mutex_);
    if (pool_.size() < kMaxPooled) {
      pool_.push_back(std::move(buf));
    }
  }

 private:
  static constexpr std::size_t kMaxPooled = 64;
  conc::Mutex mutex_;
  std::vector<std::vector<std::uint8_t>> pool_ DF_GUARDED_BY(mutex_);
};

/// One received frame travelling from a reader to the engine: the decoded
/// header plus the raw encoded bytes (already validated by the reader; the
/// payload is decoded only by the engine, straight into its input
/// bundles). `bytes` is a pooled buffer and returns to the pool once the
/// engine has consumed the frame.
struct RawFrame {
  wire::FrameHeader header;
  std::vector<std::uint8_t> bytes;
};

/// One entry of an engine's ingress queue: a validated frame from upstream
/// block `src`, or (with `closed`) that channel's end-of-stream marker,
/// carrying the reader's error if validation failed.
struct IngressItem {
  std::size_t src = 0;
  bool closed = false;
  std::exception_ptr error;
  RawFrame frame;
};

/// Engine-side reassembly state for one ingress channel: restores the
/// exact send order from sequence numbers, parking early arrivals in a
/// reorder buffer and dropping duplicates — the exactly-once, in-order
/// ingestion layer that makes fault-injected channels survivable. Fed by
/// the engine thread only (frames arrive through the ingress queue), so it
/// needs no synchronization of its own.
class IngressSequencer {
 public:
  /// Fresh stream from seq 0 (receiver machine starts kStreaming).
  IngressSequencer() = default;

  /// Restored stream for a restarted partition: `floor` is the restored
  /// checkpoint's consumed count, so the sequence resumes exactly where the
  /// checkpointed engine had consumed to — replayed frames below it drop as
  /// duplicates, frames at/above it re-deliver. The receiver machine starts
  /// in kReplaying (protocol.hpp): duplicates self-loop there and the first
  /// live frame or watermark returns the stream to kStreaming.
  explicit IngressSequencer(std::uint64_t floor)
      : next_seq_(floor),
        consumed_(floor),
        machine_(protocol::ReceiverState::kReplaying) {}

  /// Accepts one validated frame: duplicates are counted and dropped (their
  /// buffers recycled), early arrivals parked, and every frame that
  /// completes the sequence moves to the in-order ready queue.
  void feed(RawFrame&& frame, BufferPool& pool) {
    ++frames_received_;
    bytes_received_ += frame.bytes.size();
    if (frame.header.seq < next_seq_ ||
        out_of_order_.contains(frame.header.seq)) {
      ++duplicates_dropped_;
      // Legal while streaming or drained; after a failure the trailing
      // stream is garbage and no longer a protocol event.
      if (!machine_.terminal()) {
        machine_.advance(ReceiverEvent::kDuplicate);
      }
      pool.release(std::move(frame.bytes));
      return;
    }
    out_of_order_.emplace(frame.header.seq, std::move(frame));
    while (!out_of_order_.empty() &&
           out_of_order_.begin()->first == next_seq_) {
      ready_.push_back(std::move(out_of_order_.begin()->second));
      out_of_order_.erase(out_of_order_.begin());
      ++next_seq_;
    }
  }

  /// Pops the next in-order frame, if one is ready. The engine consumes
  /// frames one at a time, stopping at each watermark — frames past the
  /// current phase's watermark stay queued until that phase's window.
  bool next_ready(RawFrame& out) {
    if (ready_.empty()) {
      return false;
    }
    out = std::move(ready_.front());
    ready_.pop_front();
    ++consumed_;
    return true;
  }

  /// Seq of the next frame the engine would consume — the replay floor a
  /// checkpoint records: everything below it has been folded into the
  /// checkpointed engine state, everything at/above it must be replayed
  /// after a restore. Distinct from next_seq_ (frames *sequenced*, which
  /// may run ahead of consumption while later phases sit in ready_).
  std::uint64_t consumed() const { return consumed_; }

  void mark_closed() { closed_ = true; }
  bool closed() const { return closed_; }

  /// The stream's receiver machine (protocol.hpp). The sequencer advances
  /// kDuplicate itself (drops never reach the consumer); the engine thread
  /// advances kFrame/kWatermark/kFinalWatermark at consumption, and
  /// kEof/kError where it observes the close — the machine must not reach
  /// a terminal state before the frames ahead of the close are consumed.
  protocol::ReceiverMachine& machine() { return machine_; }

  /// After the final watermark, nothing new may remain: trailing frames
  /// reaching feed() must all have been duplicates, and no gap may be left
  /// in the sequence.
  void check_drained() const {
    DF_CHECK(ready_.empty(), "trailing non-duplicate frames after teardown");
    DF_CHECK(out_of_order_.empty(),
             "channel closed with frames missing from the sequence");
  }

  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }

 private:
  std::uint64_t next_seq_ = 0;
  std::uint64_t consumed_ = 0;
  std::map<std::uint64_t, RawFrame> out_of_order_;
  std::deque<RawFrame> ready_;
  protocol::ReceiverMachine machine_;
  bool closed_ = false;
  std::uint64_t frames_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

/// Body of one channel-reader thread: blocking-receive frames into pooled
/// buffers, validate them (a bounds-checked structural walk — corruption
/// dies here, off the engine's critical path, without allocating), and
/// hand the raw bytes to the engine through the bounded queue. Always ends
/// by pushing the channel's closed marker.
void reader_main(Channel* channel, std::size_t src,
                 conc::BlockingQueue<IngressItem>& queue, BufferPool& pool) {
  std::exception_ptr error;
  try {
    for (;;) {
      std::vector<std::uint8_t> buf = pool.acquire();
      if (!channel->recv(buf)) {
        pool.release(std::move(buf));
        break;
      }
      IngressItem item;
      item.src = src;
      const wire::DecodeStatus status = wire::validate_frame(buf);
      DF_CHECK(status == wire::DecodeStatus::kOk,
               "rejected ingress frame: ", wire::to_string(status));
      wire::decode_header(buf, item.frame.header);
      item.frame.bytes = std::move(buf);
      queue.push(std::move(item));
    }
  } catch (...) {
    error = std::current_exception();
    // Keep consuming to EOF, discarding frames: a reader that stopped
    // receiving would let the upstream sender block forever on a full
    // channel, freezing that engine before it could close its *other*
    // egress channels and deadlocking the ensemble. The error is already
    // captured; it rides the closed marker once EOF arrives.
    try {
      std::vector<std::uint8_t> discard;
      while (channel->recv(discard)) {
      }
    } catch (...) {
    }
  }
  IngressItem closed;
  closed.src = src;
  closed.closed = true;
  closed.error = error;
  queue.push(std::move(closed));
}

/// One committed partition checkpoint, held in the supervisor's memory —
/// the crash model is the partition's *execution state* dying (engine,
/// in-flight phases, channel contents), not host storage loss; a durable
/// variant would write exactly these bytes to disk at the commit point.
struct PartitionCheckpoint {
  event::PhaseId phase = 0;                   // completed through
  std::vector<std::uint8_t> engine_image;     // core::Engine::snapshot_state
  std::vector<std::uint64_t> ingress_floors;  // consumed seq per upstream
  std::vector<EgressHub::LinkCursor> egress;  // send cursors per egress link
  std::size_t sink_records = 0;               // partition sink store size
};

/// Sums `part`'s additive counters into `total` and keeps the larger
/// max_inflight_phases. `units` and `phases_completed` are the caller's:
/// how they combine depends on what is folded (generations or blocks).
void add_exec_counters(core::ExecStats& total, const core::ExecStats& part) {
  total.executed_pairs += part.executed_pairs;
  total.scheduled_pairs += part.scheduled_pairs;
  total.messages_delivered += part.messages_delivered;
  total.sink_records += part.sink_records;
  total.compute_ns += part.compute_ns;
  total.bookkeeping_ns += part.bookkeeping_ns;
  total.hook_ns += part.hook_ns;
  total.window_waits += part.window_waits;
  total.progress_wakeups += part.progress_wakeups;
  total.queue_parks += part.queue_parks;
  total.lock_waits += part.lock_waits;
  total.lock_wait_ns += part.lock_wait_ns;
  total.lock_hold_ns += part.lock_hold_ns;
  total.max_inflight_phases =
      std::max(total.max_inflight_phases, part.max_inflight_phases);
}

/// Adds one generation's engine stats into the partition's accumulator.
/// Across a restart the re-executed work is counted again on purpose: the
/// exec stats report work *performed* — exactly-once applies to sink
/// output and wire effects, not to effort.
void fold_exec_stats(core::ExecStats& total, const core::ExecStats& gen) {
  add_exec_counters(total, gen);
  total.units = gen.units;  // every generation runs the same plan
  total.phases_completed =
      std::max(total.phases_completed, gen.phases_completed);
}

}  // namespace

/// Everything one partition engine owns: its block bounds, its channel
/// endpoints, and its pre-routed external events. The block's own
/// core::Engine (which instantiates the full program, so per-vertex module
/// state and rng streams agree bit-for-bit with the sequential reference)
/// is constructed inside engine_main. `ingress_channels` and `sequencers`
/// are parallel vectors over upstream blocks 0..block-1 in ascending
/// order; `queue` sits between the per-channel reader threads and the
/// coordinator thread.
struct TransportEngine::EngineState {
  std::size_t block = 0;
  std::uint32_t begin = 1;  // inclusive internal range; begin > end if empty
  std::uint32_t end = 0;
  std::vector<Channel*> ingress_channels;
  std::vector<IngressSequencer> sequencers;
  /// One producer per ingress channel. The bound is part of the
  /// backpressure story: readers stop pulling once the engine falls this
  /// far behind, which in turn fills the channel and blocks the sender.
  ///
  /// Why readers exist at all (DESIGN.md, "Real transport"): an engine
  /// that blocked on *one* channel's recv while another ingress channel
  /// filled up could deadlock the ensemble (sender j stuck on a full
  /// j->k while k waits for a laggard j' whose progress transitively
  /// needs j). Readers guarantee every ingress channel keeps draining no
  /// matter which sender the engine is logically waiting for; the engine
  /// itself always consumes from this queue while waiting, so the queue
  /// never stays full while anyone needs it to move. It is never closed:
  /// every reader ends by pushing its channel's closed marker.
  std::unique_ptr<conc::BlockingQueue<IngressItem>> queue;
  BufferPool pool;  // recycles frame buffers engine -> readers
  std::vector<Channel*> egress_channels;  // to blocks block+1.., ascending
  /// The block's egress hub, built in run() (before any engine thread
  /// starts) rather than inside engine_main: a restarted *downstream*
  /// partition's supervisor calls replay_from / takes ack_through on its
  /// upstream blocks' hubs, so hubs must be addressable across threads.
  std::unique_ptr<EgressHub> hub;
  /// Hubs of blocks 0..block-1, for checkpoint acks and restart replay
  /// requests; upstream_hubs[j]'s link to this block is index
  /// block - j - 1.
  std::vector<EgressHub*> upstream_hubs;
  /// Crash-harness wrappers around ingress_channels (parallel vector; only
  /// populated when crash_hook is set) — the supervisor kills them on a
  /// CrashSignal and revives them before replay.
  std::vector<CrashableChannel*> ingress_crashable;
  /// This partition's own sink store: recovery truncates it back to the
  /// checkpoint's record count, which only works if no other partition
  /// interleaves records into it; run() folds the per-partition stores at
  /// the end.
  core::SinkStore sinks;
  std::vector<std::vector<event::ExternalEvent>> events;  // [phase - 1]
  core::ExecStats stats;
  TransportStats tstats;
  std::exception_ptr error;
};

TransportEngine::TransportEngine(const core::Program& program,
                                 TransportOptions options)
    : program_(program),
      options_(std::move(options)),
      partitioning_(options_.partitioning.bounds.empty()
                        ? graph::partition_balanced(program.numbering,
                                                    options_.machines)
                        : options_.partitioning) {
  DF_CHECK(options_.machines >= 1, "transport needs at least one machine");
  DF_CHECK(options_.engine_threads >= 1,
           "transport needs at least one engine thread per block");
  DF_CHECK(options_.max_inflight_phases >= 1,
           "transport block engines need a finite phase window");
  DF_CHECK(options_.channel_capacity >= 1,
           "transport channels need a capacity of at least one frame");
  DF_CHECK(!options_.crash_hook || options_.checkpoint_every > 0,
           "crash_hook requires checkpoint_every > 0 (recovery replays from "
           "retained frames)");
  const auto n = static_cast<std::uint32_t>(program_.numbering.size());
  graph::validate_partition_cut(partitioning_, n, options_.machines);
  owner_.assign(n + 1, 0);
  for (std::size_t k = 0; k < partitioning_.block_count(); ++k) {
    for (std::uint32_t v = partitioning_.bounds[k] + 1;
         v <= partitioning_.bounds[k + 1]; ++v) {
      owner_[v] = static_cast<std::uint32_t>(k);
    }
  }
}

void TransportEngine::engine_main(EngineState& state,
                                  event::PhaseId num_phases) {
  // The egress hub (owned by EngineState, built in run()) and the block
  // engine outlive the try below: the catch paths must capture the
  // engine's partial stats and close the hub's channels, and the stats
  // fold at the bottom runs on every path.
  EgressHub& hub = *state.hub;
  std::unique_ptr<core::Engine> engine;

  // This partition's lifecycle machine. Every control-flow milestone below
  // steps it through a checked advance; an out-of-order milestone (e.g.
  // draining ingress before closing egress) is a DF_CHECK failure in every
  // build type, and tools/verify_protocol explores the same table
  // exhaustively in CI. A crash discards it with the rest of the dead
  // generation; the replacement walks kCreated -> kReplaying -> kRunning.
  protocol::EngineMachine machine;

  // One reader per ingress channel per partition *generation*; they exit
  // at channel EOF (every sender closes its egress on completion *and* on
  // abort, and a killed CrashableChannel severs to EOF, so EOF always
  // arrives).
  std::vector<std::thread> readers;
  const auto spawn_readers = [&] {
    readers.clear();
    readers.reserve(state.ingress_channels.size());
    for (std::size_t j = 0; j < state.ingress_channels.size(); ++j) {
      readers.emplace_back(reader_main, state.ingress_channels[j], j,
                           std::ref(*state.queue), std::ref(state.pool));
    }
  };
  spawn_readers();
  std::size_t open_channels = state.ingress_channels.size();

  // One helper thread per upstream replay request. replay_from must not
  // run on this coordinator thread: it blocks on the upstream link mutex,
  // which an upstream flush may hold while blocked sending into *this*
  // partition's bounded ingress path — a cycle only this coordinator's
  // consumption can break. The helpers wait out that backpressure while
  // the phase loop below keeps draining; they finish as soon as their
  // sends are consumed (every replayed frame precedes a watermark this
  // partition must ingest, so joining after the phase loop never waits).
  std::vector<std::thread> replayers;
  const auto join_replayers = [&replayers] {
    for (std::thread& replayer : replayers) {
      replayer.join();
    }
    replayers.clear();
  };

  // Takes one item off the ingress queue: feeds a frame to its channel's
  // sequencer, or marks the channel closed (rethrowing the reader's error,
  // e.g. a rejected frame — a root-cause protocol failure).
  const auto ingest_one = [&state, &open_channels] {
    IngressItem item = *state.queue->pop();
    if (item.closed) {
      --open_channels;
      state.sequencers[item.src].mark_closed();
      if (item.error) {
        state.sequencers[item.src].machine().advance(ReceiverEvent::kError);
        std::rethrow_exception(item.error);
      }
      return;
    }
    state.sequencers[item.src].feed(std::move(item.frame), state.pool);
  };

  // Crash-restart supervisor state. The loop below runs one iteration per
  // partition generation: normally exactly one, plus one per CrashSignal
  // a crash_hook throws. `last_good` is the restart target; before the
  // first commit the target is the initial state (phase 0, everything
  // zero), which restarts from scratch.
  const std::size_t checkpoint_every = options_.checkpoint_every;
  PartitionCheckpoint last_good;
  bool have_checkpoint = false;
  bool restarting = false;
  const auto crash_point = [&](event::PhaseId p, CrashPoint where) {
    if (options_.crash_hook) {
      options_.crash_hook(state.block, p, where);
    }
  };

  for (;;) {
    try {
    const auto n = static_cast<std::uint32_t>(program_.numbering.size());

    // The block's full worker pool: a core::Engine scoped to [begin, end].
    // Its egress hook stages boundary-crossing deliveries in the hub per
    // (channel, phase), and its phase-completion hook flushes them (batch
    // frames, then watermark) the moment the phase's last finish is
    // applied — from whichever worker applied it.
    core::EngineOptions eopts;
    eopts.threads = options_.engine_threads;
    eopts.max_inflight_phases = options_.max_inflight_phases;
    core::EngineOptions::BlockScope scope;
    scope.begin = state.begin;
    scope.end = state.end;
    scope.egress = [this, &state, &hub, n](core::Delivery&& d,
                                           event::PhaseId phase) {
      DF_CHECK(d.to_index >= 1 && d.to_index <= n, "egress delivery for ",
               "out-of-range internal index ", d.to_index);
      const std::size_t dest = owner_[d.to_index];
      DF_CHECK(dest > state.block,
               "backward cross-partition delivery for internal index ",
               d.to_index);
      hub.add(dest - state.block - 1, phase, std::move(d));
    };
    // Partition-private store (folded by run()): recovery truncates it back
    // to the checkpoint's record count, which a store shared across
    // partitions could not support.
    scope.sinks = &state.sinks;
    eopts.block = std::move(scope);
    eopts.on_phase_complete = [&hub](event::PhaseId completed) {
      hub.flush_through(completed);
    };
    engine = std::make_unique<core::Engine>(program_, std::move(eopts));
    engine->start();
    if (restarting) {
      // kCreated -> kReplaying -> kRunning: the restore must land between
      // start() (reserve_steady_state) and the first start_phase.
      machine.advance(EngineEvent::kRestore);
      if (have_checkpoint) {
        engine->restore_state(last_good.engine_image);
        // The commit record and the image both carry the phase; resuming
        // from a phase other than the image's would re-execute the wrong
        // phases against restored module state.
        DF_CHECK(engine->completed_phases() == last_good.phase,
                 "partition ", state.block, ": checkpoint image resumes "
                 "after phase ", engine->completed_phases(),
                 " but its commit record says ", last_good.phase);
      }
      machine.advance(EngineEvent::kStart);
    } else {
      machine.advance(EngineEvent::kStart);
    }

    // Reassembled remote deliveries for the phase being opened, still
    // addressed by global internal index; start_phase consumes them.
    std::vector<core::Delivery> remote;
    const auto deliver_remote = [this, &state, &remote, n](core::Delivery&& d) {
      DF_CHECK(d.to_index >= 1 && d.to_index <= n &&
                   owner_[d.to_index] == state.block,
               "misrouted delivery for internal index ", d.to_index);
      remote.push_back(std::move(d));
    };

    const event::PhaseId first_phase =
        restarting ? (have_checkpoint ? last_good.phase + 1 : 1) : 1;
    for (event::PhaseId p = first_phase; p <= num_phases; ++p) {
      crash_point(p, CrashPoint::kBeforeIngest);
      remote.clear();
      // Phase-advance handshake: ingest every upstream block's phase-p
      // deliveries, in ascending block order, blocking on each until its
      // watermark arrives. Ascending block order = ascending sender index
      // order, the order the sequential reference applies them in. While
      // logically waiting for one channel the engine still consumes the
      // shared queue, so every ingress channel keeps draining (the
      // no-deadlock argument in DESIGN.md rests on this). Stopping at each
      // watermark keeps frames the sender pipelined ahead (later phases)
      // queued until their own window.
      for (IngressSequencer& in : state.sequencers) {
        for (bool watermark = false; !watermark;) {
          RawFrame raw;
          if (!in.next_ready(raw)) {
            if (in.closed()) {
              // EOF before this phase's watermark: the peer aborted. The
              // receiver machine lands in kPeerClosed and classify() ranks
              // the resulting error below any root cause.
              in.machine().advance(ReceiverEvent::kEof);
              throw peer_closed_error(
                  "upstream partition closed its channel before phase " +
                  std::to_string(p) + " completed");
            }
            ingest_one();
            continue;
          }
          DF_CHECK(raw.header.phase == p, "frame for phase ",
                   raw.header.phase, " inside phase ", p,
                   "'s window (protocol violation)");
          switch (raw.header.type) {
            case wire::FrameType::kWatermark:
              in.machine().advance(p == num_phases
                                       ? ReceiverEvent::kFinalWatermark
                                       : ReceiverEvent::kWatermark);
              watermark = true;
              break;
            case wire::FrameType::kDeliveryBatch: {
              in.machine().advance(ReceiverEvent::kFrame);
              // The reader already validated the frame; these statuses are
              // protocol assertions, not reachable decode paths.
              wire::BatchReader batch;
              wire::DecodeStatus status = batch.open(raw.bytes);
              DF_CHECK(status == wire::DecodeStatus::kOk,
                       "batch frame failed to reopen: ",
                       wire::to_string(status));
              core::Delivery d;
              while (batch.remaining() > 0) {
                status = batch.next(d);
                DF_CHECK(status == wire::DecodeStatus::kOk,
                         "batched delivery failed to decode: ",
                         wire::to_string(status));
                deliver_remote(std::move(d));
              }
              break;
            }
          }
          state.pool.release(std::move(raw.bytes));
        }
        // One upstream's phase-p traffic fully consumed, the rest still
        // pending — the mid-ingest kill point (a crash here loses a
        // half-reassembled phase).
        crash_point(p, CrashPoint::kMidIngest);
      }

      crash_point(p, CrashPoint::kBeforePhase);
      // Open the phase window: external events plus the injected remote
      // deliveries enter together, then the worker pool takes over. The
      // call blocks while max_inflight_phases are active — the inner
      // backpressure; meanwhile this block's readers keep draining ingress
      // and its workers keep flushing egress, so the ensemble's
      // no-deadlock argument is unchanged (DESIGN.md, "Two-level
      // parallelism").
      engine->start_phase(state.events[p - 1], remote);

      if (checkpoint_every > 0 && p % checkpoint_every == 0) {
        // Checkpoint: quiesce the block (all started phases complete),
        // make the egress cursors final (the completion hook may still be
        // in flight on a worker; the coordinator's own idempotent flush
        // closes that window), then snapshot everything a restart needs.
        engine->quiesce();
        hub.flush_through(p);
        if (hub.error() != nullptr) {
          std::rethrow_exception(hub.error());
        }
        PartitionCheckpoint next;
        next.phase = p;
        next.engine_image = engine->snapshot_state();
        next.ingress_floors.reserve(state.sequencers.size());
        for (IngressSequencer& in : state.sequencers) {
          next.ingress_floors.push_back(in.consumed());
        }
        next.egress = hub.cursors();
        next.sink_records = state.sinks.size();
        crash_point(p, CrashPoint::kMidCheckpoint);
        // The commit point. Only now — never for an uncommitted image —
        // may upstream retention drop frames below this image's floors.
        last_good = std::move(next);
        have_checkpoint = true;
        ++state.tstats.checkpoints_taken;
        state.tstats.checkpoint_bytes += last_good.engine_image.size();
        for (std::size_t j = 0; j < state.upstream_hubs.size(); ++j) {
          state.upstream_hubs[j]->ack_through(state.block - j - 1,
                                             last_good.ingress_floors[j]);
        }
        crash_point(p, CrashPoint::kAfterCheckpoint);
      }
    }

    // Wait for every started phase to finish (rethrows the first module
    // error after draining — watermarks for all phases were already
    // flushed by the completion hook, so downstream is never left
    // waiting). The flush_through below is belt-and-braces for the
    // final callback having raced with finish(); it is idempotent.
    engine->finish();
    fold_exec_stats(state.stats, engine->stats());
    engine.reset();
    if (hub.error() != nullptr) {
      std::rethrow_exception(hub.error());
    }
    hub.flush_through(num_phases);
    // Re-check after the belt-and-braces flush: a send failure *inside* it
    // is recorded, not thrown, and used to vanish here — downstream would
    // abort on the missing watermark and the run reported its secondary
    // peer_closed_error instead of this root cause.
    if (hub.error() != nullptr) {
      std::rethrow_exception(hub.error());
    }
    machine.advance(EngineEvent::kLocalComplete);

    // Normal teardown: tell downstream we are done first, then consume
    // trailing (necessarily duplicate) frames from upstream until every
    // reader reports EOF — see DESIGN.md, "Real transport", teardown
    // ordering. The machine enforces it: kIngressEof has no edge out of
    // kLocalDone, only out of kEgressClosed.
    hub.close_all();
    machine.advance(EngineEvent::kCloseEgress);
    while (open_channels > 0) {
      ingest_one();
    }
    for (IngressSequencer& in : state.sequencers) {
      // Each receiver consumed its final watermark in the phase loop
      // (kDrained), so the observed EOF is clean. With zero phases the
      // machine is still kStreaming and the same edge lands in
      // kPeerClosed — with nothing expected, that close is also clean.
      // A generation restored past the final checkpoint with no replayed
      // traffic left can still be kReplaying; its EOF is equally clean.
      in.machine().advance(ReceiverEvent::kEof);
      in.check_drained();
    }
    machine.advance(EngineEvent::kIngressEof);
    break;  // generation ran to completion; supervisor done
    } catch (const CrashSignal&) {
      // == Simulated process death of this partition ==
      // Everything the dead generation owned is discarded, in dependency
      // order, then a fresh generation restarts from last_good.
      //
      // 1. The execution state dies. Destroying the engine joins or
      //    abandons its workers (destroy-mid-run is a tested engine
      //    contract), so after reset() no hook can touch the hub.
      if (engine != nullptr) {
        fold_exec_stats(state.stats, engine->stats());
        engine.reset();
      }
      // 2. Its channel endpoints die: killing the ingress wrappers severs
      //    the inner channels, so upstream sends during the outage drop
      //    (in-flight loss — retention replays them) and the old readers
      //    run to EOF. Egress channels stay up: downstream never notices
      //    this death; rollback re-sends arrive as byte-identical
      //    duplicates it drops by seq.
      for (CrashableChannel* wrapper : state.ingress_crashable) {
        wrapper->kill();
      }
      // 3. Drain the queue to every closed marker, discarding frames (the
      //    dead engine's unconsumed backlog is lost with it) and absorbing
      //    reader errors (the death itself is not an error).
      while (open_channels > 0) {
        IngressItem item = *state.queue->pop();
        if (item.closed) {
          --open_channels;
        } else {
          state.pool.release(std::move(item.frame.bytes));
        }
      }
      for (std::thread& reader : readers) {
        reader.join();
      }
      // A previous restart's replay helpers can still be mid-send; the
      // kill above turned those sends into drops, so they finish now (the
      // frames they were re-sending stay retained and the next replay
      // request covers them).
      join_replayers();
      // 4. Restore from the checkpoint: fresh sequencers seeded at the
      //    checkpoint's consumed floors (receiver machines start
      //    kReplaying), egress cursors rewound, sink store truncated to
      //    the committed record count. The dead generation's wire
      //    counters fold into the partition totals first.
      for (const IngressSequencer& in : state.sequencers) {
        state.tstats.frames_received += in.frames_received();
        state.tstats.bytes_received += in.bytes_received();
        state.tstats.duplicates_dropped += in.duplicates_dropped();
      }
      std::vector<IngressSequencer> fresh;
      fresh.reserve(state.sequencers.size());
      for (std::size_t j = 0; j < state.sequencers.size(); ++j) {
        fresh.emplace_back(IngressSequencer(
            have_checkpoint ? last_good.ingress_floors[j] : 0));
      }
      state.sequencers = std::move(fresh);
      hub.rollback(have_checkpoint
                       ? last_good.egress
                       : std::vector<EgressHub::LinkCursor>(
                             state.egress_channels.size()));
      state.sinks.truncate(have_checkpoint ? last_good.sink_records : 0);
      // 5. Revive the ingress channels (which parks upstream closes until
      //    each link's replay has run — a racing normal completion must
      //    not EOF the fresh channel ahead of the replayed frames) and
      //    spawn the new generation's readers *before* requesting replay
      //    (replay sends block on channel backpressure until a reader
      //    drains them). The replay requests themselves run on helper
      //    threads: replay_from blocks on the upstream link mutex, which
      //    an upstream flush may hold while blocked sending into this
      //    partition's bounded ingress path — a cycle only this
      //    coordinator's continued consumption can break.
      for (CrashableChannel* wrapper : state.ingress_crashable) {
        wrapper->revive();
      }
      spawn_readers();
      open_channels = state.ingress_channels.size();
      for (std::size_t j = 0; j < state.upstream_hubs.size(); ++j) {
        EgressHub* upstream = state.upstream_hubs[j];
        CrashableChannel* wrapper = state.ingress_crashable[j];
        const std::size_t link = state.block - j - 1;
        const std::uint64_t floor =
            have_checkpoint ? last_good.ingress_floors[j] : 0;
        replayers.emplace_back([upstream, wrapper, link, floor] {
          upstream->replay_from(link, floor);
          wrapper->release_close();
        });
      }
      // 6. A fresh lifecycle machine for the new generation; the next
      //    iteration advances it kRestore -> kReplaying -> kRunning.
      machine = protocol::EngineMachine();
      restarting = true;
      ++state.tstats.restarts;
      continue;
    } catch (...) {
    state.error = std::current_exception();
    machine.advance(EngineEvent::kError);
    // Abort teardown: capture whatever the block engine managed to do,
    // then destroy it *first* (its destructor joins or abandons the
    // workers, so no more egress traffic can be produced), close egress so
    // downstream observes the failure (a close before the expected
    // watermark) and aborts in turn, and keep draining ingress to EOF so
    // upstream senders never block forever on a full channel to us.
    // Secondary reader errors are absorbed — the root cause is recorded.
    if (engine != nullptr) {
      fold_exec_stats(state.stats, engine->stats());
      engine.reset();
    }
    hub.close_all();
    machine.advance(EngineEvent::kCloseEgress);
    while (open_channels > 0) {
      try {
        ingest_one();
      } catch (...) {
      }
    }
    machine.advance(EngineEvent::kIngressEof);
    break;
    }
  }
  DF_CHECK(machine.terminal(), "engine teardown ended in non-terminal state ",
           protocol::to_string(machine.state()));
  for (std::thread& reader : readers) {
    reader.join();
  }
  // Both exits drained ingress to EOF, which transitively required every
  // outstanding replay send to be consumed — the helpers are already done.
  join_replayers();
  for (const IngressSequencer& in : state.sequencers) {
    state.tstats.frames_received += in.frames_received();
    state.tstats.bytes_received += in.bytes_received();
    state.tstats.duplicates_dropped += in.duplicates_dropped();
  }
  hub.fold_stats(state.tstats);
  // The engine counts every delivery (pre-routing); the hub counted the
  // cross-boundary ones. Saturating on the abort path, where the stats
  // snapshot may predate the hub's last add.
  state.tstats.local_messages =
      state.stats.messages_delivered >= state.tstats.remote_messages
          ? state.stats.messages_delivered - state.tstats.remote_messages
          : 0;
}

void TransportEngine::run(event::PhaseId num_phases, core::PhaseFeed* feed) {
  DF_CHECK(!ran_, "run() may be called once per TransportEngine");
  ran_ = true;
  const std::size_t machines = options_.machines;
  support::Stopwatch wall;

  std::vector<EngineState> states(machines);
  for (std::size_t k = 0; k < machines; ++k) {
    states[k].block = k;
    states[k].begin = partitioning_.bounds[k] + 1;
    states[k].end = partitioning_.bounds[k + 1];
    states[k].events.resize(num_phases);
    states[k].queue = std::make_unique<conc::BlockingQueue<IngressItem>>(
        std::max<std::size_t>(8, options_.channel_capacity));
  }

  // One channel per ordered pair (j, k), j < k; forward-only traffic needs
  // nothing else. Watermarks flow on every channel each phase, so even a
  // pair with no crossing edges keeps its handshake (and an *empty* block
  // still paces its downstream neighbours). With a crash_hook set, every
  // channel additionally goes behind a CrashableChannel so the receiving
  // partition's supervisor can sever and revive it across a simulated
  // death; the factory rebuilds the same kind (and test wrapping) for the
  // revived generation.
  const auto build_channel = [this](std::size_t j,
                                    std::size_t k) -> std::unique_ptr<Channel> {
    std::unique_ptr<Channel> channel;
    switch (options_.channel) {
      case ChannelKind::kInProcess:
        channel =
            std::make_unique<InProcessChannel>(options_.channel_capacity);
        break;
      case ChannelKind::kSocket:
        channel = SocketChannel::make_loopback();
        break;
    }
    if (options_.channel_wrapper) {
      channel = options_.channel_wrapper(std::move(channel), j, k);
      DF_CHECK(channel != nullptr, "channel_wrapper returned null");
    }
    return channel;
  };
  for (std::size_t j = 0; j < machines; ++j) {
    for (std::size_t k = j + 1; k < machines; ++k) {
      std::unique_ptr<Channel> channel = build_channel(j, k);
      if (options_.crash_hook) {
        auto crashable = std::make_unique<CrashableChannel>(
            std::move(channel),
            [build_channel, j, k] { return build_channel(j, k); });
        states[k].ingress_crashable.push_back(crashable.get());
        channel = std::move(crashable);
      }
      states[j].egress_channels.push_back(channel.get());
      states[k].ingress_channels.push_back(channel.get());
      states[k].sequencers.emplace_back();
      channels_.push_back(std::move(channel));
    }
  }

  // Egress hubs live in EngineState rather than inside engine_main: a
  // restarted partition's supervisor thread calls replay_from (and its
  // checkpoints call ack_through) on its *upstream* blocks' hubs.
  const bool retain = options_.checkpoint_every > 0;
  for (std::size_t k = 0; k < machines; ++k) {
    states[k].hub =
        std::make_unique<EgressHub>(states[k].egress_channels, retain);
    for (std::size_t j = 0; j < k; ++j) {
      states[k].upstream_hubs.push_back(states[j].hub.get());
    }
  }

  // Pull the feed up front (feeds are sequential by contract) and route
  // every external event to the partition owning its source vertex.
  core::NullFeed null_feed;
  core::PhaseFeed& source = feed != nullptr ? *feed : null_feed;
  const std::vector<std::uint32_t>& index_of = program_.numbering.index_of;
  const std::uint32_t source_bound = program_.numbering.m[0];
  for (event::PhaseId p = 1; p <= num_phases; ++p) {
    std::vector<event::ExternalEvent> batch = source.events_for(p);
    for (event::ExternalEvent& ev : batch) {
      DF_CHECK(ev.vertex < index_of.size(), "unknown vertex ", ev.vertex);
      const std::uint32_t index = index_of[ev.vertex];
      DF_CHECK(index >= 1 && index <= source_bound,
               "external events may only target source vertices");
      states[owner_[index]].events[p - 1].push_back(std::move(ev));
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(machines);
  for (std::size_t k = 0; k < machines; ++k) {
    threads.emplace_back([this, &states, k, num_phases] {
      engine_main(states[k], num_phases);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Aggregate, then rethrow the highest-ranked error under the protocol's
  // explicit precedence (protocol::ErrorRank): a root cause — module
  // exception, protocol violation, send failure — beats the secondary
  // peer-closed aborts it set off in the neighbours; within a rank the
  // first block wins, keeping reports deterministic.
  std::exception_ptr first_error;
  protocol::ErrorRank first_rank = protocol::ErrorRank::kNone;
  stats_.phases_completed = num_phases;
  for (EngineState& state : states) {
    block_stats_.push_back(state.stats);
    add_exec_counters(stats_, state.stats);
    stats_.units += state.stats.units;
    stats_.phases_completed =
        std::min(stats_.phases_completed, state.stats.phases_completed);
    transport_stats_.frames_sent += state.tstats.frames_sent;
    transport_stats_.frames_received += state.tstats.frames_received;
    transport_stats_.bytes_sent += state.tstats.bytes_sent;
    transport_stats_.bytes_received += state.tstats.bytes_received;
    transport_stats_.batch_frames_sent += state.tstats.batch_frames_sent;
    transport_stats_.batched_deliveries += state.tstats.batched_deliveries;
    transport_stats_.watermarks_sent += state.tstats.watermarks_sent;
    transport_stats_.duplicates_dropped += state.tstats.duplicates_dropped;
    transport_stats_.remote_messages += state.tstats.remote_messages;
    transport_stats_.local_messages += state.tstats.local_messages;
    // Read from the hub, not the folded tstats: a downstream restart's
    // replay_from can bump the upstream hub's counter *after* that
    // upstream partition completed and folded (see fold_stats). Here
    // every partition thread has joined, so the count is final.
    transport_stats_.frames_replayed +=
        state.hub != nullptr ? state.hub->frames_replayed() : 0;
    transport_stats_.checkpoints_taken += state.tstats.checkpoints_taken;
    transport_stats_.checkpoint_bytes += state.tstats.checkpoint_bytes;
    transport_stats_.restarts += state.tstats.restarts;
    // Fold the partition-private sink store into the engine's (canonical
    // order is imposed at comparison time; within-partition emission order
    // is preserved by the batch append).
    state.sinks.drain_into(sinks_);
    const protocol::ErrorRank rank = protocol::classify(state.error);
    if (protocol::outranks(rank, first_rank)) {
      first_rank = rank;
      first_error = state.error;
    }
  }
  stats_.wall_seconds = wall.elapsed_s();
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace df::distrib
