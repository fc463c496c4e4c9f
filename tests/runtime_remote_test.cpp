#include "runtime/remote.h"

#include <gtest/gtest.h>

#include <thread>

#include "core/algorithms.h"
#include "runtime/framing.h"

namespace avoc::runtime {
namespace {

class RemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(manager_
                    .AddGroup("lights",
                              *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
                    .ok());
    auto server = RemoteVoterServer::Start(&manager_, 0);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override { server_->Stop(); }

  RemoteVoterClient MustConnect() {
    auto client =
        RemoteVoterClient::ConnectBinary("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  VoterGroupManager manager_;
  std::unique_ptr<RemoteVoterServer> server_;
};

TEST_F(RemoteTest, PingPong) {
  RemoteVoterClient client = MustConnect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RemoteTest, SubmitFullRoundAndQuery) {
  RemoteVoterClient client = MustConnect();
  ASSERT_TRUE(client.Submit("lights", 0, 0, 100.0).ok());
  ASSERT_TRUE(client.Submit("lights", 1, 0, 101.0).ok());
  ASSERT_TRUE(client.Submit("lights", 2, 0, 99.5).ok());
  auto value = client.Query("lights");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_NEAR(*value, 100.0, 1.5);
}

TEST_F(RemoteTest, CloseFlushesPartialRound) {
  RemoteVoterClient client = MustConnect();
  ASSERT_TRUE(client.Submit("lights", 0, 5, 42.0).ok());
  ASSERT_TRUE(client.Submit("lights", 1, 5, 44.0).ok());
  ASSERT_TRUE(client.CloseRound("lights", 5).ok());
  auto value = client.Query("lights");
  ASSERT_TRUE(value.ok());
  // AVOC's mean-nearest-neighbour selection returns a real candidate.
  EXPECT_TRUE(*value == 42.0 || *value == 44.0) << *value;
}

TEST_F(RemoteTest, QueryBeforeAnyRoundReturnsNone) {
  RemoteVoterClient client = MustConnect();
  auto value = client.Query("lights");
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), ErrorCode::kNotFound);
}

TEST_F(RemoteTest, ErrorsForUnknownGroupAndBadInput) {
  RemoteVoterClient client = MustConnect();
  EXPECT_FALSE(client.Submit("ghosts", 0, 0, 1.0).ok());
  EXPECT_FALSE(client.Query("ghosts").ok());
  EXPECT_FALSE(client.CloseRound("ghosts", 0).ok());
  // Out-of-range module.
  EXPECT_FALSE(client.Submit("lights", 99, 0, 1.0).ok());
}

TEST_F(RemoteTest, GroupsListsRegisteredGroups) {
  ASSERT_TRUE(manager_
                  .AddGroup("extra",
                            *core::MakeEngine(core::AlgorithmId::kAverage, 2))
                  .ok());
  RemoteVoterClient client = MustConnect();
  auto groups = client.Groups();
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(*groups, (std::vector<std::string>{"extra", "lights"}));
}

TEST_F(RemoteTest, MultipleConcurrentClients) {
  constexpr int kClients = 4;
  constexpr int kRounds = 20;
  std::vector<std::thread> feeders;
  // Each client plays one module; rounds complete when all three modules
  // of a round arrived (module 2 is fed by the main thread).
  for (int m = 0; m < 2; ++m) {
    feeders.emplace_back([this, m] {
      auto client =
          RemoteVoterClient::ConnectBinary("127.0.0.1", server_->port());
      ASSERT_TRUE(client.ok());
      for (int r = 0; r < kRounds; ++r) {
        ASSERT_TRUE(client
                        ->Submit("lights", static_cast<size_t>(m),
                                 static_cast<size_t>(r), 10.0 + m)
                        .ok());
      }
    });
  }
  RemoteVoterClient main_client = MustConnect();
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(main_client.Submit("lights", 2, static_cast<size_t>(r), 12.0)
                    .ok());
  }
  for (std::thread& feeder : feeders) feeder.join();
  // Give the last in-flight round a moment to fuse.
  auto sink = manager_.sink("lights");
  ASSERT_TRUE(sink.ok());
  for (int i = 0; i < 100 && (*sink)->output_count() < kRounds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ((*sink)->output_count(), static_cast<size_t>(kRounds));
  (void)kClients;
}

// The frame protocol is the only protocol: a connection that opens with
// a text request instead of the 0xAB 0x0C preamble gets one typed ERROR
// frame and a close, and the request never reaches the group.
TEST_F(RemoteTest, MalformedRequestsYieldErrors) {
  auto raw = TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(5000).ok());
  ASSERT_TRUE(raw->SendAll("SUBMIT lights 0 0 1.0\n").ok());
  FrameDecoder decoder;
  std::string received;
  char chunk[256];
  for (;;) {
    auto n = raw->ReceiveSome(chunk, sizeof(chunk));
    if (!n.ok()) {
      // The server hangs up after the error frame.
      EXPECT_EQ(n.status().code(), ErrorCode::kNotFound)
          << n.status().ToString();
      break;
    }
    received.append(chunk, *n);
  }
  decoder.Feed(received);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kError);
  std::string reason;
  ASSERT_TRUE(DecodeError(frame->payload, &reason).ok());
  EXPECT_NE(reason.find("preamble"), std::string::npos) << reason;
  EXPECT_EQ(decoder.Next().status().code(), ErrorCode::kNotFound);
  auto runner = manager_.runner("lights");
  ASSERT_TRUE(runner.ok());
  EXPECT_EQ((*runner)->hub().open_rounds(), 0u);
  EXPECT_EQ((*runner)->sink().output_count(), 0u);
  EXPECT_EQ(server_->requests_served(), 0u);
}

TEST_F(RemoteTest, ServerStopsCleanlyWithConnectedClients) {
  RemoteVoterClient client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();  // must not hang with the client still connected
  SUCCEED();
}

TEST_F(RemoteTest, RequestsServedCounts) {
  RemoteVoterClient client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_GE(server_->requests_served(), 2u);
}

}  // namespace
}  // namespace avoc::runtime
