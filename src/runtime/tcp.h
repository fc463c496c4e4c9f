// Minimal RAII wrappers over POSIX TCP sockets (loopback-oriented).
//
// The paper's deployment streams sensor readings over the network (sensors
// → VINT hub → WiFi → voting sink-node); runtime/remote.h implements that
// wire path, and these wrappers keep the socket handling exception-free
// and leak-free.  IPv4 only.  Two I/O styles coexist: blocking
// SendAll/ReceiveSome for clients, and non-blocking ReadSome/WriteSome
// for the epoll event loop (runtime/event_loop.h) behind SetNonBlocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "runtime/transport.h"
#include "util/status.h"

namespace avoc::runtime {

/// An owned socket file descriptor.  The descriptor is atomic because
/// Close() is the documented way to unblock another thread sitting in
/// accept/recv on the same socket (see TcpListener::Close) — the loser
/// of that race sees -1 or EBADF, never a torn read.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_.load() >= 0; }
  int fd() const { return fd_.load(); }

  /// Closes the descriptor now (idempotent, thread-safe).
  void Close();

 private:
  std::atomic<int> fd_{-1};
};

/// A connected TCP stream.  Implements the
/// Transport seam (runtime/transport.h) so the remote runtime can run
/// over real sockets or the simulated network interchangeably.
class TcpConnection : public Transport {
 public:
  explicit TcpConnection(Socket socket) : socket_(std::move(socket)) {}

  TcpConnection(TcpConnection&&) = default;
  TcpConnection& operator=(TcpConnection&&) = default;

  /// Connects to host:port (dotted-quad or "localhost").
  static Result<TcpConnection> Connect(const std::string& host,
                                       uint16_t port);

  bool valid() const override { return socket_.valid(); }
  int fd() const { return socket_.fd(); }
  int handle() const override { return socket_.fd(); }

  /// Sends the whole buffer (handles partial writes).
  Status SendAll(std::string_view data) override;

  /// Blocking read of up to `len` raw bytes (at least one).  NotFound at
  /// orderly EOF, IoError on timeout or socket errors.
  Result<size_t> ReceiveSome(char* buffer, size_t len) override;

  /// Sets a receive timeout (SO_RCVTIMEO); 0 disables.
  Status SetReceiveTimeoutMs(int timeout_ms) override;

  /// Switches O_NONBLOCK on or off (event-loop connections set it once).
  Status SetNonBlocking(bool enabled) override;

  /// Shrinks/grows the kernel send buffer (backpressure tests pin it
  /// small so write queues fill deterministically).
  Status SetSendBufferBytes(int bytes) override;

  // --- non-blocking I/O (requires SetNonBlocking(true)) ---------------------

  /// One recv attempt; never blocks.  EINTR is retried internally.
  IoOp ReadSome(char* buffer, size_t len) override;

  /// One send attempt; never blocks.  EINTR is retried internally.
  IoOp WriteSome(const char* data, size_t len) override;

  void Close() override { socket_.Close(); }

 private:
  Socket socket_;
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener : public Listener {
 public:
  /// Binds and listens; port 0 picks an ephemeral port (see port()).
  static Result<TcpListener> Listen(uint16_t port);

  uint16_t port() const override { return port_; }
  int fd() const { return socket_.fd(); }
  int handle() const override { return socket_.fd(); }

  /// Blocks until a client connects (or the listener is closed from
  /// another thread, which surfaces as an IoError).
  Result<TcpConnection> Accept();

  /// Non-blocking accept (requires SetNonBlocking(true)): NotFound when
  /// no connection is pending, IoError on socket errors.
  Result<TcpConnection> TryAccept();

  /// TryAccept through the Listener seam (heap-allocates the stream).
  Result<std::unique_ptr<Transport>> TryAcceptTransport() override;

  /// Switches O_NONBLOCK on or off.
  Status SetNonBlocking(bool enabled);

  /// Unblocks pending Accept calls.
  void Close() override { socket_.Close(); }

 private:
  TcpListener(Socket socket, uint16_t port)
      : socket_(std::move(socket)), port_(port) {}

  Socket socket_;
  uint16_t port_ = 0;
};

}  // namespace avoc::runtime
