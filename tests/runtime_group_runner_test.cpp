#include "runtime/group_runner.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/algorithms.h"
#include "core/batch.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

core::VotingEngine AverageEngine(size_t modules) {
  auto engine = core::MakeEngine(core::AlgorithmId::kAverage, modules);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

data::RoundTable SmallTable() {
  data::RoundTable table({"a", "b", "c"});
  EXPECT_TRUE(table.AppendRound({10.0, 10.2, 9.8}).ok());
  EXPECT_TRUE(table.AppendRound({10.1, 10.3, 9.9}).ok());
  EXPECT_TRUE(table.AppendRound({{10.0}, std::nullopt, {10.2}}).ok());
  return table;
}

TEST(GroupRunnerTest, FactoriesValidate) {
  EXPECT_FALSE(GroupRunner::WithGenerators({}, AverageEngine(1)).ok());
  std::vector<GroupRunner::Generator> two(2,
                                         [](size_t) {
                                           return std::optional<double>(1.0);
                                         });
  EXPECT_FALSE(GroupRunner::WithGenerators(two, AverageEngine(3)).ok());
  GroupRunner::Options unnamed;
  unnamed.group = "";
  EXPECT_FALSE(GroupRunner::Create(AverageEngine(2), unnamed).ok());
}

TEST(GroupRunnerTest, GeneratorValuesReachTheHub) {
  auto runner = GroupRunner::WithGenerators(
      {[](size_t) { return std::optional<double>(); },
       [](size_t round) { return std::optional<double>(10.0 + round); }},
      AverageEngine(2));
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  (*runner)->RunRound(1);
  const auto outputs = (*runner)->sink().outputs();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[1].round, 1u);
  EXPECT_EQ(outputs[1].result.present_count, 1u);
  EXPECT_DOUBLE_EQ(outputs[1].result.weights[0], 0.0);  // module 0 silent
  EXPECT_GT(outputs[1].result.weights[1], 0.0);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 10.0);
  EXPECT_DOUBLE_EQ(*outputs[1].result.value, 11.0);
}

TEST(GroupRunnerTest, SilentGeneratorBecomesMissingValue) {
  auto runner = GroupRunner::WithGenerators(
      {[](size_t) { return std::optional<double>(3.0); },
       [](size_t) { return std::optional<double>(); }},
      AverageEngine(2));
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  const auto outputs = (*runner)->sink().outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].result.present_count, 1u);
  EXPECT_EQ((*runner)->hub().open_rounds(), 0u);
}

TEST(GroupRunnerTest, SynchronousRoundsMatchBatchRunner) {
  const data::RoundTable table = SmallTable();
  auto runner = GroupRunner::FromTable(table, AverageEngine(3));
  ASSERT_TRUE(runner.ok());
  EXPECT_EQ((*runner)->module_count(), 3u);
  EXPECT_EQ((*runner)->sensor_count(), 3u);
  for (size_t r = 0; r < table.round_count(); ++r) {
    (*runner)->RunRound(r);
  }
  core::VotingEngine reference = AverageEngine(3);
  auto batch = core::RunOverTable(reference, table);
  ASSERT_TRUE(batch.ok());
  const auto outputs = (*runner)->sink().outputs();
  ASSERT_EQ(outputs.size(), batch->round_count());
  for (size_t r = 0; r < outputs.size(); ++r) {
    EXPECT_EQ(outputs[r].result.value, batch->output(r)) << "round " << r;
  }
}

TEST(GroupRunnerTest, ExternalSubmitClosesRoundWhenComplete) {
  auto runner = GroupRunner::Create(AverageEngine(2));
  ASSERT_TRUE(runner.ok());
  EXPECT_EQ((*runner)->sensor_count(), 0u);
  EXPECT_TRUE((*runner)->Submit(0, 0, 4.0).ok());
  EXPECT_EQ((*runner)->sink().output_count(), 0u);
  EXPECT_TRUE((*runner)->Submit(1, 0, 6.0).ok());
  ASSERT_EQ((*runner)->sink().output_count(), 1u);
  EXPECT_DOUBLE_EQ(*(*runner)->sink().last_value(), 5.0);
}

TEST(GroupRunnerTest, SubmitRejectsOutOfRangeModule) {
  GroupRunner::Options options;
  options.group = "shelf-1";
  auto runner = GroupRunner::Create(AverageEngine(2), options);
  ASSERT_TRUE(runner.ok());
  const Status status = (*runner)->Submit(7, 0, 1.0);
  EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);
  EXPECT_NE(status.message().find("shelf-1"), std::string::npos);
}

TEST(GroupRunnerTest, FlushTurnsSilenceIntoMissingValues) {
  auto runner = GroupRunner::Create(AverageEngine(3));
  ASSERT_TRUE(runner.ok());
  EXPECT_TRUE((*runner)->Submit(0, 0, 8.0).ok());
  EXPECT_TRUE((*runner)->Submit(2, 0, 10.0).ok());
  (*runner)->FlushRound(0);
  ASSERT_EQ((*runner)->sink().output_count(), 1u);
  const auto outputs = (*runner)->sink().outputs();
  EXPECT_EQ(outputs[0].result.present_count, 2u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 9.0);
}

TEST(GroupRunnerTest, EmitAsyncWithFlushDeliversTheRound) {
  auto runner = GroupRunner::WithGenerators(
      {[](size_t) { return std::optional<double>(3.0); },
       [](size_t) { return std::optional<double>(5.0); }},
      AverageEngine(2));
  ASSERT_TRUE(runner.ok());
  std::vector<std::thread> workers = (*runner)->EmitAsync(0);
  for (std::thread& worker : workers) worker.join();
  (*runner)->FlushRound(0);
  ASSERT_EQ((*runner)->sink().output_count(), 1u);
  EXPECT_DOUBLE_EQ(*(*runner)->sink().last_value(), 4.0);
}

TEST(GroupRunnerTest, PersistsHistoryThroughStore) {
  HistoryStore store;
  GroupRunner::Options options;
  options.group = "gr";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  auto runner = GroupRunner::FromTable(SmallTable(), std::move(*engine),
                                       options);
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  (*runner)->RunRound(1);
  auto snapshot = store.Get("gr");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->rounds, 2u);
  EXPECT_EQ(snapshot->records.size(), 3u);
}

// Every column the sink keeps, row by row, doubles in hex-float so the
// comparison is bit-exact.
std::string HexTrace(const SinkNode& sink) {
  std::string out;
  for (const OutputMessage& output : sink.outputs()) {
    const core::VoteResult& r = output.result;
    out += StrFormat("%zu %d %d %d %d %zu %a", output.round,
                     static_cast<int>(r.outcome), r.value.has_value() ? 1 : 0,
                     r.used_clustering ? 1 : 0, r.had_majority ? 1 : 0,
                     r.present_count, r.value.value_or(0.0));
    for (size_t m = 0; m < r.weights.size(); ++m) {
      out += StrFormat(" %a/%a/%a/%d/%d", r.weights[m], r.agreement[m],
                       r.history[m], r.excluded[m] ? 1 : 0,
                       r.eliminated[m] ? 1 : 0);
    }
    out += StrFormat(" %s\n", r.status.ToString().c_str());
  }
  return out;
}

std::vector<uint64_t> Counters(const obs::Registry& registry) {
  std::vector<uint64_t> values;
  for (const char* family :
       {"avoc_hub_readings_total", "avoc_hub_late_readings_total",
        "avoc_hub_rounds_closed_total", "avoc_sink_outputs_total"}) {
    values.push_back(registry.SumCounters(family));
  }
  return values;
}

// One reading or one force-close, in arrival order.
struct Event {
  bool flush = false;
  ReadingMessage reading;
};

// Seeded arrivals for a 5-module group: rounds interleave within a
// sliding window, some readings never arrive (those rounds close only
// through FlushRound), and some arrive after their round was flushed.
std::vector<Event> SeededEvents(uint64_t seed) {
  constexpr size_t kModules = 5;
  constexpr size_t kRounds = 300;
  Rng rng(seed);
  std::vector<Event> events;
  std::vector<ReadingMessage> pending;
  std::vector<size_t> flushed;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t m = 0; m < kModules; ++m) {
      if (rng.Bernoulli(0.08)) continue;  // this reading never arrives
      const double value = m == 3 && round % 7 == 0
                               ? rng.Gaussian(26.0, 0.5)  // faulty module
                               : rng.Gaussian(20.0, 0.2);
      pending.push_back(ReadingMessage{m, round, value});
    }
    // Deliver a random subset of what is in flight, in random order.
    while (!pending.empty() && rng.Bernoulli(0.7)) {
      const size_t pick = rng.UniformInt(pending.size());
      events.push_back(Event{false, pending[pick]});
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // The hub's timeout: the round three back is force-closed.
    if (round >= 3) {
      events.push_back(Event{true, ReadingMessage{0, round - 3, 0.0}});
      flushed.push_back(round - 3);
    }
    // A straggler for an already-flushed round.
    if (!flushed.empty() && rng.Bernoulli(0.1)) {
      const size_t late = flushed[rng.UniformInt(flushed.size())];
      events.push_back(Event{
          false, ReadingMessage{rng.UniformInt(kModules), late, 99.0}});
    }
  }
  for (const ReadingMessage& reading : pending) {
    events.push_back(Event{false, reading});
  }
  return events;
}

TEST(GroupRunnerTest, SubmitAndSubmitBatchProduceBitIdenticalSinks) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    const std::vector<Event> events = SeededEvents(seed);
    auto make = [](obs::Registry& registry) {
      GroupRunner::Options options;
      options.group = "parity";
      options.registry = &registry;
      auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, 5);
      EXPECT_TRUE(engine.ok());
      auto runner = GroupRunner::Create(std::move(*engine), options);
      EXPECT_TRUE(runner.ok());
      return std::move(*runner);
    };

    // One reading at a time.
    obs::Registry single_registry;
    auto single = make(single_registry);
    size_t late_readings = 0;
    for (const Event& event : events) {
      if (event.flush) {
        single->FlushRound(event.reading.round);
      } else {
        ASSERT_TRUE(single->Submit(event.reading.module, event.reading.round,
                                   event.reading.value)
                        .ok());
      }
    }

    // The same arrivals framed: runs of readings between force-closes,
    // cut into frames of random length.
    obs::Registry batch_registry;
    auto batched = make(batch_registry);
    Rng frames(seed ^ 0x9E3779B97F4A7C15ull);
    std::vector<ReadingMessage> frame;
    size_t frame_limit = 1 + frames.UniformInt(12);
    auto send = [&] {
      if (frame.empty()) return;
      late_readings += batched->SubmitBatch(frame).late;
      frame.clear();
      frame_limit = 1 + frames.UniformInt(12);
    };
    for (const Event& event : events) {
      if (event.flush) {
        send();
        batched->FlushRound(event.reading.round);
        continue;
      }
      frame.push_back(event.reading);
      if (frame.size() >= frame_limit) send();
    }
    send();

    EXPECT_GT(late_readings, 0u);
    EXPECT_GT(single->sink().output_count(), 0u);
    EXPECT_EQ(HexTrace(single->sink()), HexTrace(batched->sink()));
    EXPECT_EQ(single->sink().output_count(), batched->sink().output_count());
    EXPECT_EQ(single->hub().open_rounds(), batched->hub().open_rounds());
    EXPECT_EQ(Counters(single_registry), Counters(batch_registry));
    EXPECT_EQ(single_registry.SumCounters("avoc_hub_late_readings_total"),
              late_readings);
  }
}

}  // namespace
}  // namespace avoc::runtime
