#include "runtime/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/strings.h"

namespace avoc::runtime {
namespace {

Status Errno(const char* what) {
  return IoError(StrFormat("%s: %s", what, std::strerror(errno)));
}

Status SetFdNonBlocking(int fd, bool enabled) {
  if (fd < 0) return IoError("socket is closed");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_.exchange(-1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1));
  }
  return *this;
}

void Socket::Close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown unblocks any thread sitting in accept/recv on this fd.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Result<TcpConnection> TcpConnection::Connect(const std::string& host,
                                             uint16_t port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Errno("socket");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &address.sin_addr) != 1) {
    return InvalidArgumentError("not an IPv4 address: '" + host + "'");
  }
  int rc;
  do {
    rc = ::connect(socket.fd(), reinterpret_cast<sockaddr*>(&address),
                   sizeof(address));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Errno("connect");
  int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(std::move(socket));
}

Status TcpConnection::SendAll(std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(socket_.fd(), data.data() + sent,
                             data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<size_t> TcpConnection::ReceiveSome(char* buffer, size_t len) {
  for (;;) {
    const ssize_t n = ::recv(socket_.fd(), buffer, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoError("recv timed out");
      }
      return Errno("recv");
    }
    if (n == 0) return NotFoundError("connection closed");
    return static_cast<size_t>(n);
  }
}

Status TcpConnection::SetReceiveTimeoutMs(int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(socket_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
      0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::Ok();
}

Status TcpConnection::SetNonBlocking(bool enabled) {
  return SetFdNonBlocking(socket_.fd(), enabled);
}

Status TcpConnection::SetSendBufferBytes(int bytes) {
  if (::setsockopt(socket_.fd(), SOL_SOCKET, SO_SNDBUF, &bytes,
                   sizeof(bytes)) != 0) {
    return Errno("setsockopt(SO_SNDBUF)");
  }
  return Status::Ok();
}

IoOp TcpConnection::ReadSome(char* buffer, size_t len) {
  for (;;) {
    const ssize_t n = ::recv(socket_.fd(), buffer, len, 0);
    if (n > 0) return IoOp{IoOp::Kind::kDone, static_cast<size_t>(n), {}};
    if (n == 0) return IoOp{IoOp::Kind::kEof, 0, {}};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoOp{IoOp::Kind::kWouldBlock, 0, {}};
    }
    return IoOp{IoOp::Kind::kError, 0, Errno("recv")};
  }
}

IoOp TcpConnection::WriteSome(const char* data, size_t len) {
  for (;;) {
    const ssize_t n = ::send(socket_.fd(), data, len, MSG_NOSIGNAL);
    if (n >= 0) return IoOp{IoOp::Kind::kDone, static_cast<size_t>(n), {}};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoOp{IoOp::Kind::kWouldBlock, 0, {}};
    }
    return IoOp{IoOp::Kind::kError, 0, Errno("send")};
  }
}

Result<TcpListener> TcpListener::Listen(uint16_t port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Errno("socket");
  int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(socket.fd(), reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    return Errno("bind");
  }
  if (::listen(socket.fd(), 16) != 0) return Errno("listen");
  sockaddr_in bound{};
  socklen_t length = sizeof(bound);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&bound),
                    &length) != 0) {
    return Errno("getsockname");
  }
  return TcpListener(std::move(socket), ntohs(bound.sin_port));
}

Result<TcpConnection> TcpListener::Accept() {
  int fd;
  do {
    fd = ::accept(socket_.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Errno("accept");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(Socket(fd));
}

Result<TcpConnection> TcpListener::TryAccept() {
  int fd;
  do {
    fd = ::accept(socket_.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return NotFoundError("no pending connection");
    }
    return Errno("accept");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(Socket(fd));
}

Result<std::unique_ptr<Transport>> TcpListener::TryAcceptTransport() {
  AVOC_ASSIGN_OR_RETURN(TcpConnection accepted, TryAccept());
  return std::unique_ptr<Transport>(
      std::make_unique<TcpConnection>(std::move(accepted)));
}

Status TcpListener::SetNonBlocking(bool enabled) {
  return SetFdNonBlocking(socket_.fd(), enabled);
}

}  // namespace avoc::runtime
