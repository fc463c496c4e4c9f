// Failure injection on the runtime's persistence and I/O paths: the
// voter must keep fusing when its datastore or filesystem misbehaves,
// and surface the failure through status instead of crashing or
// corrupting results.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/algorithms.h"
#include "data/csv.h"
#include "runtime/group_runner.h"
#include "vdx/registry.h"

namespace avoc {
namespace {

/// A temp directory unique to this test case and process: ctest runs
/// cases as parallel processes, and a shared name would let one case
/// delete another's files.
std::filesystem::path CaseTempDir(const std::string& prefix) {
  return std::filesystem::temp_directory_path() /
         (prefix + "_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

TEST(FailureInjectionTest, UnwritableStoreSurfacesButVotingContinues) {
  // A store rooted in a non-existent directory fails every flush.
  auto store = runtime::HistoryStore::Open(
      "/nonexistent-dir-for-avoc-test/history.json");
  ASSERT_TRUE(store.ok());  // opening a fresh (missing) file is fine

  runtime::GroupRunner::Options options;
  options.group = "doomed";
  options.store = &*store;
  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, 3);
  ASSERT_TRUE(engine.ok());
  auto runner = runtime::GroupRunner::Create(std::move(*engine), options);
  ASSERT_TRUE(runner.ok());

  ASSERT_TRUE((*runner)->Submit(0, 0, 10.0).ok());
  ASSERT_TRUE((*runner)->Submit(1, 0, 10.1).ok());
  ASSERT_TRUE((*runner)->Submit(2, 0, 9.9).ok());
  // The vote itself succeeded and reached the sink...
  const auto outputs = (*runner)->sink().outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_NEAR(*outputs[0].result.value, 10.0, 0.2);
  // ...and the persistence failure is visible, not swallowed.
  const runtime::VoterNode& voter = (*runner)->voter();
  EXPECT_FALSE(voter.last_status().ok());
  EXPECT_EQ(voter.last_status().code(), ErrorCode::kIoError);
}

TEST(FailureInjectionTest, CorruptHistoryFileRejectedAtOpen) {
  const auto dir = CaseTempDir("avoc_failure_test");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "history.json").string();
  {
    std::ofstream out(path);
    out << "{ \"group\": { \"records\": \"not-an-array\" } }";
  }
  EXPECT_FALSE(runtime::HistoryStore::Open(path).ok());
  std::filesystem::remove_all(dir);
}

TEST(FailureInjectionTest, MismatchedSnapshotArityIsIgnoredOnRestore) {
  // A snapshot recorded for a 5-module group must not poison a 3-module
  // voter that reuses the group name.
  runtime::HistoryStore store;
  runtime::HistorySnapshot snapshot;
  snapshot.records = {0.0, 0.0, 0.0, 0.0, 0.0};
  snapshot.rounds = 99;
  ASSERT_TRUE(store.Put("renamed", snapshot).ok());

  runtime::GroupRunner::Options options;
  options.group = "renamed";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  auto runner = runtime::GroupRunner::Create(std::move(*engine), options);
  ASSERT_TRUE(runner.ok());
  // Records must still be the fresh-set 1.0, not the stale zeros.
  for (size_t m = 0; m < 3; ++m) {
    ASSERT_TRUE((*runner)->Submit(m, 0, 5.0).ok());
  }
  const auto outputs = (*runner)->sink().outputs();
  ASSERT_EQ(outputs.size(), 1u);
  for (const double h : outputs[0].result.history) {
    EXPECT_DOUBLE_EQ(h, 1.0);
  }
}

TEST(FailureInjectionTest, WriteCsvToUnwritablePathFails) {
  data::CsvTable table;
  table.header = {"a"};
  table.rows = {{"1"}};
  EXPECT_FALSE(
      data::WriteCsvFile("/nonexistent-dir-for-avoc-test/out.csv", table)
          .ok());
}

TEST(FailureInjectionTest, RegistryDirectoryWithBrokenSpecFailsLoud) {
  const auto dir = CaseTempDir("avoc_failure_registry");
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "good.json");
    out << R"({"algorithm_name": "fine"})";
  }
  {
    std::ofstream out(dir / "broken.json");
    out << "{ definitely not json";
  }
  vdx::SpecRegistry registry;
  auto loaded = registry.LoadDirectory(dir.string());
  EXPECT_FALSE(loaded.ok());  // fail the whole load, not silently skip
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace avoc
