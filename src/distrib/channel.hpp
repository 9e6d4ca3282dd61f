// Frame channels between partition engines (DESIGN.md, "Real transport").
//
// A Channel is a unidirectional, order-preserving pipe of byte frames with
// one sender and one receiver at a time (the transport's senders take turns
// under the egress link mutex). The TransportEngine creates one channel per
// ordered partition pair (j, k), j < k — cross-partition traffic is
// forward-only, so no backward channels exist at all.
//
// Two production implementations:
//   * InProcessChannel — a conc::BlockingQueue of at most capacity_frames
//     frames; the sender blocks while it is full, which is the engine's
//     cross-partition backpressure (an upstream partition cannot run
//     unboundedly ahead).
//   * SocketChannel — a loopback TCP connection carrying length-prefixed
//     frames; backpressure comes from its bounded send queue plus the
//     kernel socket buffer. This is the configuration that proves real
//     bytes cross the boundary; pointing the same code at a remote address
//     is deployment, not engineering.
//
// Plus two test implementations:
//   * FaultInjectingChannel — wraps any channel and duplicates, reorders
//     (within a bounded window), and delays frames on the send side. The
//     receiver's sequence-number reassembly must absorb all of it; the
//     fault-injection suite in test_transport.cpp asserts exactly-once
//     delivery and unchanged sink output.
//   * CrashableChannel — wraps any channel behind a kill()/revive() switch
//     simulating receiver process death: kill() severs the inner channel
//     (in-flight frames are lost, blocked peers unblock and drop, the old
//     reader runs to EOF) and revive() installs a factory-fresh inner for
//     the restarted receiver. The crash-restart suite and the transport's
//     partition supervisor (DESIGN.md, "Crash-restart recovery") drive it.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "concurrency/annotations.hpp"
#include "concurrency/blocking_queue.hpp"
#include "support/rng.hpp"

namespace df::distrib {

class Channel {
 public:
  virtual ~Channel() = default;

  /// Sender side: enqueues one frame, blocking while the channel is at
  /// capacity. After close_recv() the frame is silently dropped — the
  /// receiver is gone and the run is tearing down.
  virtual void send(std::span<const std::uint8_t> frame) = 0;

  /// Sender side: no more sends will follow. Idempotent.
  virtual void close_send() = 0;

  /// Receiver side: blocks for the next frame; returns false once the
  /// sender has closed and every frame has been drained.
  virtual bool recv(std::vector<std::uint8_t>& frame) = 0;

  /// Receiver side: abandons the channel so blocked or future senders drop
  /// frames instead of waiting forever (teardown of an aborting run).
  virtual void close_recv() = 0;
};

/// Bounded in-process channel: one conc::BlockingQueue of frames, so the
/// hand-off between partitions is the same mutex-guarded queue as the run
/// queue and the ingress queue. Either close wakes a blocked sender (whose
/// frame then drops) and a blocked receiver; recv() still returns every
/// frame queued before the close, then false.
///
/// Frame buffers circulate instead of being allocated per frame: recv()
/// swaps the queued frame with the caller's buffer and keeps the caller's
/// old buffer, and send() copies into a kept buffer. At most about
/// capacity_frames buffers are kept, since a buffer is kept only per
/// received frame and taken again per sent one.
class InProcessChannel final : public Channel {
 public:
  /// Holds at most `capacity_frames` frames; 0 throws check_error (it would
  /// make the queue unbounded and remove the backpressure).
  explicit InProcessChannel(std::size_t capacity_frames);

  void send(std::span<const std::uint8_t> frame) override;
  void close_send() override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  void close_recv() override;

 private:
  conc::BlockingQueue<std::vector<std::uint8_t>> queue_;
  conc::Mutex spare_mutex_;
  /// Buffers recv() took from its callers, for send() to fill.
  std::vector<std::vector<std::uint8_t>> spare_ DF_GUARDED_BY(spare_mutex_);
};

/// Loopback-TCP channel: frames travel as u32 little-endian length prefixes
/// followed by the frame bytes. One connected socket per channel; the
/// sender owns the write end, the receiver the read end.
///
/// Both directions coalesce, so syscalls are paid per burst, not per frame:
///   * send() appends prefix and payload to a bounded user-space queue and
///     returns. One writer thread per channel swaps out everything queued
///     since its last write and writes it with a single send() syscall, so
///     frames queued while a write is in the kernel leave together in the
///     next one (and TCP_NODELAY never emits a lone 4-byte prefix). send()
///     blocks only while the queue holds more than kSendQueueBytes
///     (channel.cpp); a larger frame is admitted into an empty queue.
///   * recv() reads into a per-channel buffer: one read() takes every byte
///     the kernel holds, and later calls return the complete frames already
///     buffered without a syscall.
/// Coalescing sits beneath the Channel interface: wrappers still see one
/// frame per send() and per recv().
///
/// Writer failures: EPIPE/ECONNRESET (the receiver closed) mark the channel
/// broken and later sends drop; any other error is recorded on the writer
/// thread and rethrown by every later send() and close_send().
class SocketChannel final : public Channel {
 public:
  /// Builds a connected loopback pair (listen on 127.0.0.1:0, connect,
  /// accept) and returns the ready channel. Throws check_error on any
  /// socket failure, with every descriptor opened so far closed again.
  static std::unique_ptr<SocketChannel> make_loopback();

  /// Wraps already-connected descriptors (ownership transfers; pass -1 for
  /// a side this endpoint does not use, e.g. a receive-only channel, which
  /// starts no writer thread). This is the deployment seam — a remote
  /// connect/accept produces fds, this turns them into a Channel — and the
  /// hook tests use to inject raw stream conditions like a half-written
  /// frame.
  static std::unique_ptr<SocketChannel> adopt(int write_fd, int read_fd);

  /// Joins the writer, then closes both descriptors. Without a preceding
  /// close_send() the frames still queued are abandoned (no reader is left
  /// that could want them), so destruction never blocks on a peer.
  ~SocketChannel() override;
  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  /// Queues one frame. Throws check_error after close_send(), and the
  /// writer's recorded error once it has failed.
  void send(std::span<const std::uint8_t> frame) override;
  /// Returns once the writer has written every queued frame and exited,
  /// then shuts the write side down, so EOF follows the last frame.
  /// Rethrows a writer failure. Idempotent.
  void close_send() override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  /// Shuts both ends down (waking a reader blocked in read() and a writer
  /// blocked in send()), marks the channel broken and wakes senders parked
  /// on queue room: every queued and later frame drops.
  void close_recv() override;

  /// send() syscalls the writer has issued and read() syscalls recv() has
  /// issued — the coalescing counters.
  std::uint64_t send_syscalls() const {
    return send_syscalls_.load(std::memory_order_relaxed);
  }
  std::uint64_t read_syscalls() const {
    return read_syscalls_.load(std::memory_order_relaxed);
  }

 private:
  SocketChannel(int write_fd, int read_fd);

  /// Called by the factories once the object owns its descriptors, so a
  /// thread-start failure still closes them (through the destructor).
  void start_writer();
  void writer_main();
  /// Writes all of `bytes`; false when the peer is gone (EPIPE or
  /// ECONNRESET), throws check_error on any other failure.
  bool write_all(std::span<const std::uint8_t> bytes);

  int write_fd_;
  int read_fd_;

  // Send side. send_mutex_ guards the queue and the writer's lifecycle;
  // writer_cv_ parks the writer while the queue is empty, sender_cv_
  // parks senders waiting for queue room and close_send() waiting for the
  // writer to finish.
  conc::Mutex send_mutex_;
  conc::CondVar writer_cv_;
  conc::CondVar sender_cv_;
  /// Length-prefixed frames not yet handed to the writer; swapped with the
  /// writer's batch, so both keep their capacity.
  std::vector<std::uint8_t> queue_ DF_GUARDED_BY(send_mutex_);
  /// The writer waits on writer_cv_ and no send() has woken it yet; a
  /// send() notifies only then.
  bool writer_parked_ DF_GUARDED_BY(send_mutex_) = false;
  bool send_closed_ DF_GUARDED_BY(send_mutex_) = false;
  /// Set when the receiver is gone (close_recv(), EPIPE/ECONNRESET, or
  /// destruction without close_send()); queued and later frames drop.
  bool broken_ DF_GUARDED_BY(send_mutex_) = false;
  /// The writer has exited: drained after close_send(), broken, or failed.
  bool writer_done_ DF_GUARDED_BY(send_mutex_) = false;
  std::exception_ptr writer_error_ DF_GUARDED_BY(send_mutex_);
  std::atomic<std::uint64_t> send_syscalls_{0};
  std::thread writer_;  // after everything writer_main() touches

  // Receive side, owned by the one receiver thread: bytes read but not yet
  // returned occupy in_[in_begin_, in_end_).
  std::vector<std::uint8_t> in_;
  std::size_t in_begin_ = 0;
  std::size_t in_end_ = 0;
  std::atomic<std::uint64_t> read_syscalls_{0};
  /// Set by close_recv() before it shutdown()s the stream. A mid-frame EOF
  /// is normally a fatal sender bug, but after a local teardown it is just
  /// wherever shutdown happened to truncate the reader — reclassified as
  /// the retryable peer_lost_error the old RST-based teardown surfaced.
  std::atomic<bool> torn_down_{false};
};

/// Knobs for FaultInjectingChannel. All faults are send-side: the wrapped
/// channel still delivers every frame it is given, in the order given.
struct FaultOptions {
  /// Chance a frame is enqueued twice.
  double duplicate_probability = 0.0;
  /// Chance a frame is held back and released later (delayed past — and
  /// therefore reordered with — up to `reorder_window` subsequent frames).
  double hold_probability = 0.0;
  /// Maximum frames held back at once; bounds how far delivery order can
  /// diverge from send order.
  std::size_t reorder_window = 4;
  std::uint64_t seed = 1;
};

class FaultInjectingChannel final : public Channel {
 public:
  FaultInjectingChannel(std::unique_ptr<Channel> inner, FaultOptions options);

  void send(std::span<const std::uint8_t> frame) override;
  /// Flushes every held frame (in random order), then closes the inner
  /// channel — faults delay frames, they never lose them.
  void close_send() override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  void close_recv() override;

  /// Fault counters, for tests to assert the faults actually fired. Read
  /// only after the sending thread is joined.
  std::uint64_t duplicates_injected() const { return duplicates_injected_; }
  std::uint64_t frames_held() const { return frames_held_; }

 private:
  /// Releases random held frames until at most `keep` remain.
  void release_down_to(std::size_t keep);

  std::unique_ptr<Channel> inner_;
  FaultOptions options_;
  support::Rng rng_;
  std::vector<std::vector<std::uint8_t>> held_;
  std::uint64_t duplicates_injected_ = 0;
  std::uint64_t frames_held_ = 0;
};

/// Wraps a channel behind a kill()/revive() switch that simulates the
/// *receiving* process dying and restarting. Both endpoints keep their
/// pointer to this wrapper across the death:
///
///   * kill() marks the wrapper dead and severs the current inner channel
///     (close_recv so a sender blocked on a full channel unblocks and
///     drops, close_send so the old reader drains what arrived and hits
///     EOF). Frames the dead receiver had not consumed are lost — exactly
///     the in-flight loss a real crash causes — and sends during the dead
///     window are dropped at the wrapper.
///   * revive() installs a factory-fresh inner channel for the restarted
///     receiver; subsequent sends and recvs flow through it. The sender's
///     retention layer then replays everything past the receiver's last
///     acknowledged sequence number (distrib/transport.cpp, EgressHub).
///
/// Thread-safety: send/recv/close_* snapshot the inner channel under the
/// mutex and call it outside (a blocked recv must not hold the lock kill()
/// needs); the shared_ptr keeps a severed inner alive until every blocked
/// call on it returns. close_send during the dead window is absorbed — the
/// sender's machine records the close and replay re-issues it against the
/// revived channel.
class CrashableChannel final : public Channel {
 public:
  using Factory = std::function<std::unique_ptr<Channel>()>;

  /// `factory` builds replacement inner channels for revive(); it must
  /// produce the same kind (and wrapping) as `inner`.
  CrashableChannel(std::unique_ptr<Channel> inner, Factory factory);

  void send(std::span<const std::uint8_t> frame) override;
  void close_send() override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  void close_recv() override;

  /// Receiver death. Idempotent while dead.
  void kill();
  /// Receiver restart; requires a preceding kill(). Also parks any
  /// subsequent close_send() until release_close(): the restarted
  /// receiver's replay request races the sender's normal completion, and
  /// the replayed frames must enter the fresh channel before its EOF.
  void revive();
  /// Ends the close hold revive() engaged, applying a close_send parked in
  /// the meantime. Called by the receiver's recovery once its replay
  /// request has been served (even a failed one — the hold must not
  /// outlive the replay attempt, or EOF never arrives).
  void release_close();

 private:
  /// Snapshots (inner, dead) under the lock.
  std::shared_ptr<Channel> snapshot(bool& dead);

  conc::Mutex mutex_;
  std::shared_ptr<Channel> inner_ DF_GUARDED_BY(mutex_);
  Factory factory_;
  bool dead_ DF_GUARDED_BY(mutex_) = false;
  /// revive() sets, release_close() clears: close_send() defers while set.
  bool hold_close_ DF_GUARDED_BY(mutex_) = false;
  /// A close_send() arrived during the hold and awaits release_close().
  bool deferred_close_ DF_GUARDED_BY(mutex_) = false;
};

}  // namespace df::distrib
