// The transport seam between the remote runtime and the bytes it moves.
//
// The networked voter (runtime/remote.h) used to be welded to POSIX TCP
// sockets, which made its failure behavior untestable: the connection
// state machines, frame decoder, and timer wheel only ever ran over
// healthy loopback links.  This header splits "what the runtime does"
// from "where the bytes go": Transport is a duplex byte stream, Listener
// accepts them, Clock tells the time.  Production implementations are
// TcpConnection/TcpListener (runtime/tcp.h) and SystemClock; the
// deterministic simulation harness (runtime/sim_net.h) provides in-memory
// implementations driven by a seeded virtual clock so the *same* runtime
// code can be exercised under scripted network faults, reproducibly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace avoc::runtime {

/// Outcome of one non-blocking read or write attempt.
struct IoOp {
  enum class Kind {
    kDone,        ///< `bytes` transferred (> 0)
    kWouldBlock,  ///< no progress possible now (EAGAIN/EWOULDBLOCK)
    kEof,         ///< orderly peer shutdown (reads only)
    kError,       ///< hard socket error, see `status`
  };
  Kind kind = Kind::kDone;
  size_t bytes = 0;
  Status status;
};

/// A connected duplex byte stream.  Two I/O styles coexist, matching the
/// two sides of the remote runtime: the event-loop server uses the
/// non-blocking ReadSome/WriteSome half; clients use the blocking
/// SendAll/ReceiveSome half.  A given stream is used in one style at a
/// time.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual bool valid() const = 0;

  /// Registration key for a Reactor (the fd for TCP, an endpoint id in
  /// simulation).  Stable for the stream's lifetime.
  virtual int handle() const = 0;

  // --- non-blocking I/O (server side; requires SetNonBlocking(true)) --------

  /// One receive attempt; never blocks.
  virtual IoOp ReadSome(char* buffer, size_t len) = 0;

  /// One send attempt; never blocks.
  virtual IoOp WriteSome(const char* data, size_t len) = 0;

  // --- blocking I/O (client side) -------------------------------------------

  /// Sends the whole buffer (handles partial writes).
  virtual Status SendAll(std::string_view data) = 0;

  /// Blocking read of up to `len` raw bytes (at least one).  NotFound at
  /// orderly EOF, IoError on timeout or stream errors.
  virtual Result<size_t> ReceiveSome(char* buffer, size_t len) = 0;

  /// Bounds every subsequent blocking receive; 0 disables.
  virtual Status SetReceiveTimeoutMs(int timeout_ms) = 0;

  // --- configuration --------------------------------------------------------

  /// Switches non-blocking mode (event-loop streams set it once).
  virtual Status SetNonBlocking(bool enabled) = 0;

  /// Shrinks/grows the outbound buffer (backpressure tests pin it small
  /// so write queues fill deterministically).  Advisory.
  virtual Status SetSendBufferBytes(int bytes) = 0;

  virtual void Close() = 0;
};

/// Accepts inbound Transport streams.
class Listener {
 public:
  virtual ~Listener() = default;

  virtual uint16_t port() const = 0;

  /// Registration key for a Reactor.
  virtual int handle() const = 0;

  /// Non-blocking accept: NotFound when no connection is pending,
  /// IoError on hard errors.
  virtual Result<std::unique_ptr<Transport>> TryAcceptTransport() = 0;

  /// Unblocks pending accepts and stops accepting.
  virtual void Close() = 0;
};

/// Time source for retry/backoff logic.  Production code uses
/// SystemClock; the simulation harness advances a virtual clock so
/// backoff schedules are deterministic and tests never really sleep.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic milliseconds.
  virtual uint64_t NowMs() = 0;

  /// Blocks the caller for `ms` (virtual clocks advance time instead).
  virtual void SleepMs(uint64_t ms) = 0;
};

/// Steady-clock Clock.  Stateless; the singleton suits almost every use.
class SystemClock : public Clock {
 public:
  uint64_t NowMs() override;
  void SleepMs(uint64_t ms) override;

  static SystemClock* Instance();
};

}  // namespace avoc::runtime
