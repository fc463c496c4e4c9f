#include "runtime/tcp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

namespace avoc::runtime {
namespace {

struct Pair {
  TcpConnection server;
  TcpConnection client;
};

/// Opens a loopback connection pair through an ephemeral listener.
Pair MakePair() {
  auto listener = TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  TcpConnection client_side = [&] {
    auto client = TcpConnection::Connect("127.0.0.1", listener->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }();
  auto server_side = listener->Accept();
  EXPECT_TRUE(server_side.ok()) << server_side.status().ToString();
  return Pair{std::move(*server_side), std::move(client_side)};
}

/// Blocking-reads exactly `size` bytes (or fails the test).
std::string ReceiveExactly(TcpConnection& conn, size_t size) {
  std::string received;
  char chunk[4096];
  while (received.size() < size) {
    auto n = conn.ReceiveSome(chunk, std::min(sizeof(chunk),
                                              size - received.size()));
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    if (!n.ok()) break;
    received.append(chunk, *n);
  }
  return received;
}

TEST(TcpTest, ListenOnEphemeralPortReportsIt) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener->port(), 0u);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Grab a port, close it, then connect: must fail cleanly.
  uint16_t port = 0;
  {
    auto listener = TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    port = listener->port();
  }
  auto client = TcpConnection::Connect("127.0.0.1", port);
  EXPECT_FALSE(client.ok());
}

TEST(TcpTest, ConnectRejectsGarbageHost) {
  EXPECT_FALSE(TcpConnection::Connect("not-an-address", 1).ok());
}

TEST(TcpTest, ReceiveTimeoutSurfacesAsIoError) {
  Pair pair = MakePair();
  ASSERT_TRUE(pair.server.SetReceiveTimeoutMs(50).ok());
  // Bytes that already arrived are returned; the next read, with nothing
  // in flight, times out instead of blocking forever.
  ASSERT_TRUE(pair.client.SendAll("abc").ok());
  EXPECT_EQ(ReceiveExactly(pair.server, 3), "abc");
  char buffer[16];
  auto n = pair.server.ReceiveSome(buffer, sizeof(buffer));
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), ErrorCode::kIoError);
  // The message must name the timeout (not strerror(EAGAIN)) so retry
  // layers can count it as a request timeout rather than breakage.
  EXPECT_NE(n.status().message().find("timed out"), std::string::npos);
}

TEST(TcpTest, ReceiveSomeTimeoutIsNamedToo) {
  Pair pair = MakePair();
  ASSERT_TRUE(pair.server.SetReceiveTimeoutMs(50).ok());
  char buffer[16];
  auto n = pair.server.ReceiveSome(buffer, sizeof(buffer));
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), ErrorCode::kIoError);
  EXPECT_NE(n.status().message().find("timed out"), std::string::npos);
}

TEST(TcpTest, SendAllPushesThroughTinySendBuffer) {
  // Forces the partial-send loop: a payload far larger than SO_SNDBUF
  // can only leave in many short writes while the peer drains slowly.
  Pair pair = MakePair();
  (void)pair.client.SetSendBufferBytes(4 * 1024);
  const std::string payload(512 * 1024, 'y');
  std::thread sender([&] { ASSERT_TRUE(pair.client.SendAll(payload).ok()); });
  std::string received;
  char chunk[3000];
  while (received.size() < payload.size()) {
    auto n = pair.server.ReceiveSome(chunk, sizeof(chunk));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    received.append(chunk, *n);
  }
  sender.join();
  EXPECT_EQ(received, payload);
}

TEST(TcpTest, BidirectionalTraffic) {
  Pair pair = MakePair();
  ASSERT_TRUE(pair.client.SendAll("ping").ok());
  ASSERT_EQ(ReceiveExactly(pair.server, 4), "ping");
  ASSERT_TRUE(pair.server.SendAll("pong").ok());
  EXPECT_EQ(ReceiveExactly(pair.client, 4), "pong");
}

TEST(TcpTest, CloseUnblocksAccept) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener->Close();
  });
  auto connection = listener->Accept();
  EXPECT_FALSE(connection.ok());
  closer.join();
}

TEST(TcpTest, LargePayloadRoundTrips) {
  Pair pair = MakePair();
  const std::string payload(64 * 1024, 'x');
  std::thread sender([&] { ASSERT_TRUE(pair.client.SendAll(payload).ok()); });
  const std::string received = ReceiveExactly(pair.server, payload.size());
  sender.join();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

TEST(TcpTest, EofAfterDataReportsNotFound) {
  Pair pair = MakePair();
  ASSERT_TRUE(pair.client.SendAll("tail").ok());
  pair.client.Close();
  EXPECT_EQ(ReceiveExactly(pair.server, 4), "tail");
  char byte;
  auto eof = pair.server.ReceiveSome(&byte, 1);
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace avoc::runtime
