#include "runtime/multi_group.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

// One noisy table per group, each from its own deterministic stream so
// groups exercise genuinely different data.
std::vector<data::RoundTable> MakeTables(size_t groups, size_t modules,
                                         size_t rounds) {
  std::vector<data::RoundTable> tables;
  tables.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    std::vector<std::string> names;
    for (size_t m = 0; m < modules; ++m) {
      names.push_back(StrFormat("m%zu", m));
    }
    data::RoundTable table(names);
    avoc::Rng rng(1234 + g);
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<std::optional<double>> row;
      const double base = 20.0 + static_cast<double>(g);
      for (size_t m = 0; m < modules; ++m) {
        // Module 0 drifts badly in odd groups: distinct per-group history.
        const double bias = (m == 0 && g % 2 == 1) ? 4.0 : 0.0;
        row.emplace_back(base + bias + rng.Uniform(-0.3, 0.3));
      }
      EXPECT_TRUE(table.AppendRound(row).ok());
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

core::EngineConfig AvocConfig() {
  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, 3);
  EXPECT_TRUE(engine.ok());
  return engine->config();
}

TEST(MultiGroupEngineTest, CreateValidates) {
  EXPECT_FALSE(MultiGroupEngine::Create(0, 3, AvocConfig()).ok());
  EXPECT_FALSE(MultiGroupEngine::Create(4, 0, AvocConfig()).ok());
  auto engine = MultiGroupEngine::Create(4, 3, AvocConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->group_count(), 4u);
  EXPECT_EQ(engine->module_count(), 3u);
}

TEST(MultiGroupEngineTest, GroupsShareOneCompiledPipeline) {
  auto engine = MultiGroupEngine::Create(8, 3, AvocConfig());
  ASSERT_TRUE(engine.ok());
  for (size_t g = 1; g < engine->group_count(); ++g) {
    EXPECT_EQ(&engine->group(g).stage_pipeline(),
              &engine->group(0).stage_pipeline());
  }
}

TEST(MultiGroupEngineTest, RunBatchRejectsShapeMismatches) {
  auto engine = MultiGroupEngine::Create(4, 3, AvocConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->RunBatch(MakeTables(3, 3, 5)).ok());  // group count
  EXPECT_FALSE(engine->RunBatch(MakeTables(4, 2, 5)).ok());  // module count
}

TEST(MultiGroupEngineTest, ParallelMatchesSequentialBitForBit) {
  const auto tables = MakeTables(8, 3, 40);
  MultiGroupOptions options;
  options.threads = 4;
  auto parallel = MultiGroupEngine::Create(8, 3, AvocConfig(), options);
  auto sequential = MultiGroupEngine::Create(8, 3, AvocConfig());
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(sequential.ok());
  auto par = parallel->RunBatch(tables);
  auto seq = sequential->RunBatchSequential(tables);
  ASSERT_TRUE(par.ok());
  ASSERT_TRUE(seq.ok());
  ASSERT_EQ(par->group_count(), seq->group_count());
  for (size_t g = 0; g < par->group_count(); ++g) {
    const core::TraceView p = par->group(g);
    const core::TraceView s = seq->group(g);
    ASSERT_EQ(p.round_count(), s.round_count()) << "group " << g;
    for (size_t r = 0; r < p.round_count(); ++r) {
      EXPECT_EQ(p.output(r), s.output(r))
          << "group " << g << " round " << r;
      for (size_t m = 0; m < p.module_count(); ++m) {
        EXPECT_EQ(p.weights(r)[m], s.weights(r)[m])
            << "group " << g << " round " << r << " module " << m;
        EXPECT_EQ(p.history(r)[m], s.history(r)[m])
            << "group " << g << " round " << r << " module " << m;
      }
    }
  }
  // The contiguous history snapshots agree as well.
  ASSERT_EQ(parallel->history_block().size(),
            sequential->history_block().size());
  for (size_t i = 0; i < parallel->history_block().size(); ++i) {
    EXPECT_EQ(parallel->history_block()[i], sequential->history_block()[i]);
  }
}

TEST(MultiGroupEngineTest, GroupsEvolveIndependently) {
  const auto tables = MakeTables(4, 3, 60);
  auto engine = MultiGroupEngine::Create(4, 3, AvocConfig(),
                                         MultiGroupOptions{2});
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->RunBatch(tables).ok());
  // Odd groups carry a drifting module 0; its record must fall behind the
  // same module's record in the clean even groups.
  EXPECT_LT(engine->GroupHistory(1)[0], engine->GroupHistory(0)[0]);
  EXPECT_LT(engine->GroupHistory(3)[0], engine->GroupHistory(2)[0]);
}

TEST(MultiGroupEngineTest, HistoryBlockRoundTripsThroughRestore) {
  const auto tables = MakeTables(4, 3, 30);
  auto source = MultiGroupEngine::Create(4, 3, AvocConfig(),
                                         MultiGroupOptions{2});
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(source->RunBatch(tables).ok());
  const std::vector<double> snapshot(source->history_block().begin(),
                                     source->history_block().end());

  auto restored = MultiGroupEngine::Create(4, 3, AvocConfig());
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->RestoreAll(std::vector<double>(3, 1.0), 1).ok());
  ASSERT_TRUE(restored->RestoreAll(snapshot, 30).ok());
  for (size_t g = 0; g < 4; ++g) {
    for (size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(restored->GroupHistory(g)[m], source->GroupHistory(g)[m]);
      EXPECT_EQ(restored->group(g).history().record(m),
                source->group(g).history().record(m));
    }
  }

  restored->ResetAll();
  for (const double record : restored->history_block()) {
    EXPECT_EQ(record, 1.0);
  }
}

// Byte equality, so a -0.0 or a NaN payload that differs counts too.
template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void ExpectSameColumns(const core::TraceView& parallel,
                       const core::TraceView& sequential,
                       const std::string& where) {
  const core::TraceColumns& p = parallel.columns();
  const core::TraceColumns& s = sequential.columns();
  EXPECT_EQ(p.rounds, s.rounds) << where;
  EXPECT_EQ(p.modules, s.modules) << where;
  EXPECT_TRUE(SameBytes(p.values, s.values)) << where << " values";
  EXPECT_TRUE(SameBytes(p.engaged, s.engaged)) << where << " engaged";
  EXPECT_TRUE(SameBytes(p.outcomes, s.outcomes)) << where << " outcomes";
  EXPECT_TRUE(SameBytes(p.used_clustering, s.used_clustering))
      << where << " used_clustering";
  EXPECT_TRUE(SameBytes(p.had_majority, s.had_majority))
      << where << " had_majority";
  EXPECT_TRUE(SameBytes(p.present_counts, s.present_counts))
      << where << " present_counts";
  EXPECT_TRUE(SameBytes(p.weights, s.weights)) << where << " weights";
  EXPECT_TRUE(SameBytes(p.agreement, s.agreement)) << where << " agreement";
  EXPECT_TRUE(SameBytes(p.history, s.history)) << where << " history";
  EXPECT_TRUE(SameBytes(p.excluded, s.excluded)) << where << " excluded";
  EXPECT_TRUE(SameBytes(p.eliminated, s.eliminated)) << where << " eliminated";
  ASSERT_EQ(p.errors.size(), s.errors.size()) << where;
  for (size_t i = 0; i < p.errors.size(); ++i) {
    EXPECT_EQ(p.errors[i].round, s.errors[i].round) << where;
    EXPECT_EQ(p.errors[i].status, s.errors[i].status) << where;
  }
}

TEST(MultiGroupEngineTest, SuccessiveBatchesMatchSequentialBitForBit) {
  constexpr size_t kGroups = 12;
  constexpr size_t kCalls = 16;
  const auto full = MakeTables(kGroups, 3, 450);
  // Group g's rounds in call c: the lengths differ by group and by call,
  // so which thread claims which group changes from call to call, while
  // each group continues its own stream (and history) across the calls.
  std::vector<std::vector<data::RoundTable>> calls(kCalls);
  std::vector<size_t> cursor(kGroups, 0);
  for (size_t c = 0; c < kCalls; ++c) {
    for (size_t g = 0; g < kGroups; ++g) {
      const size_t rounds = 5 + (c * 7 + g * 11) % 23;
      auto slice = full[g].Slice(cursor[g], cursor[g] + rounds);
      ASSERT_TRUE(slice.ok()) << slice.status().ToString();
      calls[c].push_back(std::move(slice).value());
      cursor[g] += rounds;
    }
  }
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    obs::Registry parallel_registry;
    obs::Registry sequential_registry;
    MultiGroupOptions options;
    options.threads = threads;
    options.registry = &parallel_registry;
    auto parallel = MultiGroupEngine::Create(kGroups, 3, AvocConfig(), options);
    options.registry = &sequential_registry;
    auto sequential =
        MultiGroupEngine::Create(kGroups, 3, AvocConfig(), options);
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(parallel->thread_count(), threads);
    MultiGroupTrace par;
    MultiGroupTrace seq;
    for (size_t c = 0; c < kCalls; ++c) {
      ASSERT_TRUE(parallel->RunBatch(calls[c], par).ok());
      ASSERT_TRUE(sequential->RunBatchSequential(calls[c], seq).ok());
      ASSERT_EQ(par.group_count(), seq.group_count());
      for (size_t g = 0; g < kGroups; ++g) {
        ExpectSameColumns(
            par.group(g), seq.group(g),
            StrFormat("threads %zu call %zu group %zu", threads, c, g));
      }
      EXPECT_TRUE(
          SameBytes(parallel->history_block(), sequential->history_block()))
          << "threads " << threads << " call " << c;
    }
    const MultiGroupStats p = parallel->Stats();
    const MultiGroupStats s = sequential->Stats();
    EXPECT_EQ(p.rounds, s.rounds);
    EXPECT_EQ(p.rounds, static_cast<uint64_t>(
                            std::accumulate(cursor.begin(), cursor.end(),
                                            size_t{0})));
    EXPECT_EQ(p.voted, s.voted);
    EXPECT_EQ(p.reverted, s.reverted);
    EXPECT_EQ(p.no_output, s.no_output);
    EXPECT_EQ(p.errors, s.errors);
    EXPECT_EQ(p.excluded_modules, s.excluded_modules);
    EXPECT_EQ(p.eliminated_modules, s.eliminated_modules);
    EXPECT_EQ(p.clustered_rounds, s.clustered_rounds);
    EXPECT_EQ(p.history_collapse, s.history_collapse);
    EXPECT_EQ(p.quorum_failures, s.quorum_failures);
    EXPECT_EQ(p.majority_failures, s.majority_failures);
    EXPECT_EQ(p.round_latency.count, s.round_latency.count);
  }
}

}  // namespace
}  // namespace avoc::runtime
