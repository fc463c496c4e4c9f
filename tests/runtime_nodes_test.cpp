// The hub, voter and sink of one voter group, driven through the
// GroupRunner that owns and calls them.
#include "runtime/nodes.h"

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "runtime/group_runner.h"

namespace avoc::runtime {
namespace {

core::VotingEngine AverageEngine(size_t modules) {
  auto engine = core::MakeEngine(core::AlgorithmId::kAverage, modules);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

std::unique_ptr<GroupRunner> MakeRunner(core::VotingEngine engine,
                                        GroupRunner::Options options = {}) {
  auto runner = GroupRunner::Create(std::move(engine), std::move(options));
  EXPECT_TRUE(runner.ok());
  return std::move(*runner);
}

TEST(HubNodeTest, ClosesRoundWhenAllModulesReport) {
  auto runner = MakeRunner(AverageEngine(3));
  ASSERT_TRUE(runner->Submit(0, 0, 1.0).ok());
  ASSERT_TRUE(runner->Submit(1, 0, 2.0).ok());
  EXPECT_EQ(runner->sink().output_count(), 0u);
  EXPECT_EQ(runner->hub().open_rounds(), 1u);
  ASSERT_TRUE(runner->Submit(2, 0, 3.0).ok());
  const auto outputs = runner->sink().outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].round, 0u);
  EXPECT_EQ(outputs[0].result.present_count, 3u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 2.0);
  EXPECT_EQ(runner->hub().open_rounds(), 0u);
}

TEST(HubNodeTest, FlushPublishesPartialRound) {
  auto runner = MakeRunner(AverageEngine(3));
  ASSERT_TRUE(runner->Submit(0, 5, 1.0).ok());
  runner->FlushRound(5);
  const auto outputs = runner->sink().outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].round, 5u);
  EXPECT_EQ(outputs[0].result.present_count, 1u);
  EXPECT_EQ(runner->hub().open_rounds(), 0u);
}

TEST(HubNodeTest, LateReadingsAfterCloseAreDropped) {
  auto runner = MakeRunner(AverageEngine(2));
  ASSERT_TRUE(runner->Submit(0, 0, 1.0).ok());
  runner->FlushRound(0);
  ASSERT_TRUE(runner->Submit(1, 0, 2.0).ok());  // too late
  EXPECT_EQ(runner->sink().output_count(), 1u);
  EXPECT_EQ(runner->hub().open_rounds(), 0u);
  const ReadingMessage late{0, 0, 3.0};
  const BatchIngestStats stats = runner->SubmitBatch({&late, 1});
  EXPECT_EQ(stats.late, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(runner->sink().output_count(), 1u);
}

TEST(HubNodeTest, FlushOfUnknownRoundPublishesEmpty) {
  auto runner = MakeRunner(AverageEngine(2));
  runner->FlushRound(10);
  auto outputs = runner->sink().outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].round, 10u);
  EXPECT_EQ(outputs[0].result.present_count, 0u);
  runner->FlushRound(10);  // already closed: no second row
  EXPECT_EQ(runner->sink().output_count(), 1u);
}

TEST(HubNodeTest, UnknownModuleIgnored) {
  auto runner = MakeRunner(AverageEngine(2));
  const ReadingMessage stray{7, 0, 1.0};  // module out of range
  const BatchIngestStats stats = runner->SubmitBatch({&stray, 1});
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(runner->hub().open_rounds(), 0u);
  EXPECT_EQ(runner->sink().output_count(), 0u);
}

TEST(HubNodeTest, InterleavedRoundsAssembleIndependently) {
  auto runner = MakeRunner(AverageEngine(2));
  ASSERT_TRUE(runner->Submit(0, 0, 1.0).ok());
  ASSERT_TRUE(runner->Submit(0, 1, 10.0).ok());
  ASSERT_TRUE(runner->Submit(1, 1, 11.0).ok());  // round 1 completes first
  ASSERT_TRUE(runner->Submit(1, 0, 2.0).ok());   // then round 0
  const auto outputs = runner->sink().outputs();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0].round, 1u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 10.5);
  EXPECT_EQ(outputs[1].round, 0u);
  EXPECT_DOUBLE_EQ(*outputs[1].result.value, 1.5);
}

TEST(VoterNodeTest, VotesOnIncomingRounds) {
  auto runner = MakeRunner(AverageEngine(3));
  ASSERT_TRUE(runner->Submit(0, 0, 10.0).ok());
  ASSERT_TRUE(runner->Submit(1, 0, 20.0).ok());
  ASSERT_TRUE(runner->Submit(2, 0, 30.0).ok());
  const auto outputs = runner->sink().outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 20.0);
  EXPECT_TRUE(runner->voter().last_status().ok());
}

TEST(VoterNodeTest, PersistsHistoryToStore) {
  HistoryStore store;
  GroupRunner::Options options;
  options.group = "test-group";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  auto runner = MakeRunner(std::move(*engine), options);
  ASSERT_TRUE(runner->Submit(0, 0, 10.0).ok());
  ASSERT_TRUE(runner->Submit(1, 0, 10.1).ok());
  ASSERT_TRUE(runner->Submit(2, 0, 90.0).ok());
  auto snapshot = store.Get("test-group");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->rounds, 1u);
  ASSERT_EQ(snapshot->records.size(), 3u);
  EXPECT_LT(snapshot->records[2], 1.0);  // the outlier's record dropped
}

TEST(VoterNodeTest, RestoresHistoryFromStore) {
  HistoryStore store;
  HistorySnapshot seed;
  seed.records = {1.0, 1.0, 0.0};
  seed.rounds = 50;
  ASSERT_TRUE(store.Put("warm", seed).ok());

  GroupRunner::Options options;
  options.group = "warm";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  auto runner = MakeRunner(std::move(*engine), options);
  // Module 2's restored record is 0 -> eliminated on the very first round.
  ASSERT_TRUE(runner->Submit(0, 0, 10.0).ok());
  ASSERT_TRUE(runner->Submit(1, 0, 10.1).ok());
  ASSERT_TRUE(runner->Submit(2, 0, 10.05).ok());
  const auto outputs = runner->sink().outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].result.eliminated[2]);
}

TEST(SinkNodeTest, CollectsOutputs) {
  auto runner = MakeRunner(AverageEngine(2));
  ASSERT_TRUE(runner->Submit(0, 0, 1.0).ok());
  ASSERT_TRUE(runner->Submit(1, 0, 3.0).ok());
  ASSERT_TRUE(runner->Submit(0, 1, 5.0).ok());
  ASSERT_TRUE(runner->Submit(1, 1, 7.0).ok());
  const SinkNode& sink = runner->sink();
  EXPECT_EQ(sink.output_count(), 2u);
  ASSERT_TRUE(sink.last_value().has_value());
  EXPECT_DOUBLE_EQ(*sink.last_value(), 6.0);
  EXPECT_DOUBLE_EQ(*sink.outputs()[0].result.value, 2.0);
}

TEST(SinkNodeTest, LastValueSkipsSuppressedRounds) {
  auto config = core::MakeConfig(core::AlgorithmId::kAverage);
  config.quorum.fraction = 1.0;
  config.on_no_quorum = core::NoQuorumPolicy::kEmitNothing;
  auto engine = core::VotingEngine::Create(2, config);
  ASSERT_TRUE(engine.ok());
  auto runner = MakeRunner(std::move(*engine));
  ASSERT_TRUE(runner->Submit(0, 0, 4.0).ok());
  ASSERT_TRUE(runner->Submit(1, 0, 6.0).ok());
  ASSERT_TRUE(runner->Submit(1, 1, 6.0).ok());
  runner->FlushRound(1);  // starved: module 0 never reported
  const SinkNode& sink = runner->sink();
  EXPECT_EQ(sink.output_count(), 2u);
  ASSERT_TRUE(sink.last_value().has_value());
  EXPECT_DOUBLE_EQ(*sink.last_value(), 5.0);  // from round 0
}

TEST(SinkNodeTest, EmptySinkHasNoValue) {
  auto runner = MakeRunner(AverageEngine(2));
  EXPECT_FALSE(runner->sink().last_value().has_value());
  EXPECT_EQ(runner->sink().output_count(), 0u);
}

}  // namespace
}  // namespace avoc::runtime
