#include "distrib/channel.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "distrib/protocol.hpp"
#include "distrib/wire.hpp"
#include "support/check.hpp"

namespace df::distrib {

// --- InProcessChannel -------------------------------------------------------

InProcessChannel::InProcessChannel(std::size_t capacity_frames)
    : queue_(capacity_frames) {
  DF_CHECK(capacity_frames >= 1,
           "in-process channel capacity must be at least one frame");
}

void InProcessChannel::send(std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> buffer;
  {
    conc::MutexLock lock(spare_mutex_);
    if (!spare_.empty()) {
      buffer = std::move(spare_.back());
      spare_.pop_back();
    }
  }
  buffer.assign(frame.begin(), frame.end());
  // A closed queue drops the frame: the receiver is gone or the run is
  // tearing down.
  queue_.push(std::move(buffer));
}

void InProcessChannel::close_send() { queue_.close(); }

bool InProcessChannel::recv(std::vector<std::uint8_t>& frame) {
  auto item = queue_.pop();
  if (!item) {
    return false;
  }
  std::swap(frame, *item);
  if (item->capacity() != 0) {
    conc::MutexLock lock(spare_mutex_);
    spare_.push_back(std::move(*item));
  }
  return true;
}

void InProcessChannel::close_recv() { queue_.close(); }

// --- SocketChannel ----------------------------------------------------------

namespace {

/// Queued bytes above which send() waits for the writer (DESIGN.md, "Real
/// transport"). A bound, not a batch size: the writer takes whatever is
/// queued when it wakes.
constexpr std::size_t kSendQueueBytes = std::size_t{64} * 1024;

/// Initial receive buffer; it grows only for a larger (checked) frame.
constexpr std::size_t kReadBufferBytes = std::size_t{64} * 1024;

/// Owns a descriptor until release(); closes it on every early exit.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

}  // namespace

SocketChannel::SocketChannel(int write_fd, int read_fd)
    : write_fd_(write_fd), read_fd_(read_fd) {}

std::unique_ptr<SocketChannel> SocketChannel::make_loopback() {
  const FdGuard listener(::socket(AF_INET, SOCK_STREAM, 0));
  DF_CHECK(listener.get() >= 0, "socket() failed: ", std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  DF_CHECK(::bind(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) == 0,
           "bind(127.0.0.1) failed: ", std::strerror(errno));
  DF_CHECK(::listen(listener.get(), 1) == 0,
           "listen() failed: ", std::strerror(errno));
  socklen_t addr_len = sizeof addr;
  DF_CHECK(::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                         &addr_len) == 0,
           "getsockname() failed: ", std::strerror(errno));

  // Loopback connect to a listening socket completes in-kernel (backlog),
  // so the synchronous connect-then-accept sequence cannot deadlock.
  FdGuard client(::socket(AF_INET, SOCK_STREAM, 0));
  DF_CHECK(client.get() >= 0, "socket() failed: ", std::strerror(errno));
  DF_CHECK(::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0,
           "connect(127.0.0.1) failed: ", std::strerror(errno));
  FdGuard server(::accept(listener.get(), nullptr, nullptr));
  DF_CHECK(server.get() >= 0, "accept() failed: ", std::strerror(errno));

  const int nodelay = 1;
  for (const int fd : {client.get(), server.get()}) {
    DF_CHECK(::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                          sizeof nodelay) == 0,
             "setsockopt(TCP_NODELAY) failed: ", std::strerror(errno));
  }
  return adopt(client.release(), server.release());
}

std::unique_ptr<SocketChannel> SocketChannel::adopt(int write_fd,
                                                    int read_fd) {
  std::unique_ptr<SocketChannel> channel(new SocketChannel(write_fd, read_fd));
  channel->start_writer();
  return channel;
}

void SocketChannel::start_writer() {
  if (write_fd_ >= 0) {
    writer_ = std::thread([this] { writer_main(); });
  }
}

SocketChannel::~SocketChannel() {
  if (writer_.joinable()) {
    // Without a preceding close_send() the writer may still hold frames or
    // be parked in the kernel; nobody is left to read them, so abandon the
    // channel (a no-op after close_send() returned) and join.
    close_recv();
    writer_.join();
  }
  if (write_fd_ >= 0) {
    ::close(write_fd_);
  }
  if (read_fd_ >= 0) {
    ::close(read_fd_);
  }
}

void SocketChannel::send(std::span<const std::uint8_t> frame) {
  DF_CHECK(frame.size() <= wire::kMaxFrameBytes, "frame too large");
  DF_CHECK(write_fd_ >= 0, "send on a receive-only socket channel");
  const std::size_t bytes = 4 + frame.size();
  bool wake_writer = false;
  {
    conc::UniqueLock lock(send_mutex_);
    while (!broken_ && writer_error_ == nullptr && !queue_.empty() &&
           queue_.size() + bytes > kSendQueueBytes) {
      sender_cv_.wait(lock);
    }
    // Broken first: close_recv() marks the channel broken before a racing
    // close_send() (CrashableChannel::kill) can close it, so a send caught
    // between the two drops instead of failing.
    if (broken_) {
      return;  // receiver closed its end; the run is tearing down
    }
    if (writer_error_ != nullptr) {
      std::rethrow_exception(writer_error_);
    }
    DF_CHECK(!send_closed_, "send after close_send on a socket channel");
    const auto size = static_cast<std::uint32_t>(frame.size());
    std::uint8_t prefix[4];
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<std::uint8_t>(size >> (8 * i));
    }
    queue_.insert(queue_.end(), prefix, prefix + 4);
    queue_.insert(queue_.end(), frame.begin(), frame.end());
    wake_writer = std::exchange(writer_parked_, false);
  }
  if (wake_writer) {
    writer_cv_.notify_one();
  }
}

void SocketChannel::writer_main() {
  std::exception_ptr error;
  std::vector<std::uint8_t> batch;
  try {
    for (;;) {
      {
        conc::UniqueLock lock(send_mutex_);
        while (queue_.empty() && !send_closed_ && !broken_) {
          writer_parked_ = true;
          writer_cv_.wait(lock);
        }
        writer_parked_ = false;
        if (broken_ || queue_.empty()) {
          break;  // receiver gone, or closed with everything written
        }
        queue_.swap(batch);
      }
      sender_cv_.notify_all();  // the queue has room again
      if (!write_all(batch)) {
        conc::MutexLock lock(send_mutex_);
        broken_ = true;
        break;
      }
      batch.clear();
    }
  } catch (...) {
    // No exception may leave a thread's entry function: record it for the
    // next send() or close_send() to rethrow on the caller's thread.
    error = std::current_exception();
  }
  {
    conc::MutexLock lock(send_mutex_);
    writer_error_ = error;
    writer_done_ = true;
    queue_.clear();
  }
  sender_cv_.notify_all();
}

bool SocketChannel::write_all(std::span<const std::uint8_t> bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    send_syscalls_.fetch_add(1, std::memory_order_relaxed);
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
    const ssize_t result = ::send(write_fd_, bytes.data() + written,
                                  bytes.size() - written, MSG_NOSIGNAL);
    if (result < 0) {
      if (errno == EINTR) {
        continue;
      }
      DF_CHECK(errno == EPIPE || errno == ECONNRESET,
               "socket send failed: ", std::strerror(errno));
      return false;
    }
    written += static_cast<std::size_t>(result);
  }
  return true;
}

void SocketChannel::close_send() {
  if (write_fd_ < 0) {
    return;
  }
  std::exception_ptr error;
  {
    conc::UniqueLock lock(send_mutex_);
    send_closed_ = true;
    writer_cv_.notify_one();
    while (!writer_done_) {
      sender_cv_.wait(lock);
    }
    error = writer_error_;
  }
  // EOF after the last frame (a no-op once close_recv() shut it down).
  ::shutdown(write_fd_, SHUT_WR);
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

bool SocketChannel::recv(std::vector<std::uint8_t>& frame) {
  if (read_fd_ < 0) {
    return false;
  }
  for (;;) {
    const std::size_t buffered = in_end_ - in_begin_;
    std::size_t need = 4;
    if (buffered >= 4) {
      const std::uint8_t* head = in_.data() + in_begin_;
      std::uint32_t size = 0;
      for (int i = 0; i < 4; ++i) {
        size |= static_cast<std::uint32_t>(head[i]) << (8 * i);
      }
      DF_CHECK(size <= wire::kMaxFrameBytes,
               "frame length prefix exceeds sanity bound: ", size);
      need = 4 + std::size_t{size};
      if (buffered >= need) {
        frame.assign(head + 4, head + need);
        in_begin_ += need;
        return true;
      }
    }
    // No whole frame buffered: move the partial one (less than a frame)
    // to the front, grow for a frame the buffer cannot hold, and read.
    if (in_begin_ > 0) {
      std::memmove(in_.data(), in_.data() + in_begin_, buffered);
      in_begin_ = 0;
      in_end_ = buffered;
    }
    if (in_.size() < std::max(need, kReadBufferBytes)) {
      in_.resize(std::max(need, kReadBufferBytes));
    }
    read_syscalls_.fetch_add(1, std::memory_order_relaxed);
    const ssize_t result =
        ::read(read_fd_, in_.data() + in_end_, in_.size() - in_end_);
    if (result < 0) {
      if (errno == EINTR) {
        continue;
      }
      // Half-open teardown: a peer that died abruptly (RST instead of an
      // orderly FIN) surfaces as ECONNRESET here, after every complete
      // frame already buffered was returned. That is a *retryable*
      // peer-loss — the crash-restart supervisor replays past it — so it
      // gets its own exception type, distinct from the fatal truncated
      // stream below (an orderly close mid-frame can only be a sender
      // bug) and from genuinely unexpected read errors.
      if (errno == ECONNRESET) {
        throw protocol::peer_lost_error(
            std::string("peer connection lost: ") + std::strerror(errno));
      }
      DF_CHECK(false, "socket read failed: ", std::strerror(errno));
    }
    if (result == 0) {
      if (buffered == 0) {
        return false;  // EOF on a frame boundary
      }
      // Mid-frame EOF on an intact stream can only be a sender bug; the
      // same EOF after a local close_recv() is just where shutdown()
      // truncated the reader — retryable peer loss, like the ECONNRESET
      // the close()-and-RST teardown used to produce here.
      if (torn_down_.load(std::memory_order_relaxed)) {
        throw protocol::peer_lost_error(
            "channel torn down under a mid-frame read");
      }
      DF_CHECK(false, "peer closed mid-frame (truncated stream)");
    }
    in_end_ += static_cast<std::size_t>(result);
  }
}

void SocketChannel::close_recv() {
  // shutdown(), never close(): close()ing a descriptor while another
  // thread is blocked in read() on it is an fd-lifetime race (the number
  // can be reused under the reader; TSan flags it). shutdown() wakes the
  // blocked reader with EOF and leaves the descriptor alive until the
  // destructor, which runs only after every reader has let go of the
  // channel. shutdown() on the receive side does *not* wake the writer
  // blocked in a full-buffer send, though — that takes SHUT_WR on its own
  // descriptor, which makes the blocked send() return EPIPE (MSG_NOSIGNAL).
  // Both ends of this stream live here, so tear both down: abandon-the-
  // channel must unblock reader, writer and queued senders alike.
  torn_down_.store(true, std::memory_order_relaxed);
  if (write_fd_ >= 0) {
    {
      conc::MutexLock lock(send_mutex_);
      broken_ = true;
      writer_cv_.notify_one();
    }
    sender_cv_.notify_all();
  }
  if (read_fd_ >= 0) {
    ::shutdown(read_fd_, SHUT_RDWR);
  }
  if (write_fd_ >= 0) {
    ::shutdown(write_fd_, SHUT_WR);
  }
}

// --- FaultInjectingChannel --------------------------------------------------

FaultInjectingChannel::FaultInjectingChannel(std::unique_ptr<Channel> inner,
                                             FaultOptions options)
    : inner_(std::move(inner)), options_(options), rng_(options.seed) {
  DF_CHECK(options_.reorder_window >= 1, "reorder window must be >= 1");
}

void FaultInjectingChannel::release_down_to(std::size_t keep) {
  while (held_.size() > keep) {
    const std::size_t pick =
        static_cast<std::size_t>(rng_.next_below(held_.size()));
    inner_->send(held_[pick]);
    held_[pick] = std::move(held_.back());
    held_.pop_back();
  }
}

void FaultInjectingChannel::send(std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> copy(frame.begin(), frame.end());
  if (rng_.next_bernoulli(options_.duplicate_probability)) {
    ++duplicates_injected_;
    held_.push_back(copy);
  }
  if (rng_.next_bernoulli(options_.hold_probability)) {
    ++frames_held_;
    held_.push_back(std::move(copy));
  } else {
    inner_->send(copy);
  }
  // Release a random subset so held frames are delayed past — and reordered
  // with — later sends, but never past the window bound.
  std::size_t keep = held_.size();
  while (keep > 0 && rng_.next_bernoulli(0.5)) {
    --keep;
  }
  release_down_to(std::min(keep, options_.reorder_window));
}

void FaultInjectingChannel::close_send() {
  release_down_to(0);
  inner_->close_send();
}

bool FaultInjectingChannel::recv(std::vector<std::uint8_t>& frame) {
  return inner_->recv(frame);
}

void FaultInjectingChannel::close_recv() {
  inner_->close_recv();
}

// --- CrashableChannel -------------------------------------------------------

CrashableChannel::CrashableChannel(std::unique_ptr<Channel> inner,
                                   Factory factory)
    : inner_(std::move(inner)), factory_(std::move(factory)) {
  DF_CHECK(inner_ != nullptr, "crashable channel needs an inner channel");
  DF_CHECK(factory_ != nullptr, "crashable channel needs a revive factory");
}

std::shared_ptr<Channel> CrashableChannel::snapshot(bool& dead) {
  conc::MutexLock lock(mutex_);
  dead = dead_;
  return inner_;
}

void CrashableChannel::send(std::span<const std::uint8_t> frame) {
  bool dead = false;
  const std::shared_ptr<Channel> inner = snapshot(dead);
  if (dead) {
    return;  // frame lost in flight; retention upstream will replay it
  }
  // A kill() racing this call lands the frame in the severed inner, where
  // it is discarded with the rest of the dead receiver's backlog — the
  // same in-flight loss, decided a moment later.
  inner->send(frame);
}

void CrashableChannel::close_send() {
  std::shared_ptr<Channel> inner;
  {
    conc::MutexLock lock(mutex_);
    if (dead_) {
      // Absorbed: the sender machine is kClosed, and the retention replay
      // re-issues close_send against the revived channel so the restarted
      // receiver still observes frames-then-EOF.
      return;
    }
    if (hold_close_) {
      // Between revive() and release_close() the sender may finish its run
      // and close — but the pending replay's frames must precede the EOF,
      // so the close is parked until the replay releases it.
      deferred_close_ = true;
      return;
    }
    inner = inner_;
  }
  inner->close_send();
}

bool CrashableChannel::recv(std::vector<std::uint8_t>& frame) {
  bool dead = false;
  const std::shared_ptr<Channel> inner = snapshot(dead);
  if (dead) {
    return false;  // the old reader exits; frames in the severed inner drop
  }
  return inner->recv(frame);
}

void CrashableChannel::close_recv() {
  bool dead = false;
  const std::shared_ptr<Channel> inner = snapshot(dead);
  if (dead) {
    return;
  }
  inner->close_recv();
}

void CrashableChannel::kill() {
  std::shared_ptr<Channel> severed;
  {
    conc::MutexLock lock(mutex_);
    if (dead_) {
      return;
    }
    dead_ = true;
    hold_close_ = false;
    deferred_close_ = false;  // the channel it was parked for is dying
    severed = inner_;
  }
  // Outside the lock: both calls may contend with blocked peers. close_recv
  // unblocks both a sender stuck on a full channel (it drops and moves on)
  // and a reader parked mid-recv (EOF or retryable peer loss); close_send
  // marks the sender side closed so the old reader drains what already
  // arrived and exits through its closed marker.
  severed->close_recv();
  severed->close_send();
}

void CrashableChannel::revive() {
  std::unique_ptr<Channel> fresh = factory_();
  DF_CHECK(fresh != nullptr, "crashable channel factory returned null");
  conc::MutexLock lock(mutex_);
  DF_CHECK(dead_, "revive() without a preceding kill()");
  inner_ = std::move(fresh);
  dead_ = false;
  // Park sender closes until the pending replay has run (release_close):
  // without this, a sender that finishes during the recovery window could
  // close the fresh channel before the replayed frames enter it, and the
  // restarted receiver would observe EOF ahead of frames it still needs.
  hold_close_ = true;
}

void CrashableChannel::release_close() {
  std::shared_ptr<Channel> inner;
  bool apply = false;
  {
    conc::MutexLock lock(mutex_);
    hold_close_ = false;
    apply = deferred_close_ && !dead_;
    deferred_close_ = false;
    inner = inner_;
  }
  if (apply) {
    inner->close_send();
  }
}

}  // namespace df::distrib
