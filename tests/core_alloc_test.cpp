// Steady-state allocation budget of the voting hot path.
//
// This binary replaces the global operator new/delete with a counting
// pair (so it must stay its own executable), warms an engine up on the
// first half of a table, and then asserts that VotingEngine::CastVoteBlock
// over the second half performs zero heap allocations into a pre-reserved
// BatchTrace — with and without an obs::MetricsObserver attached.  The
// cases cover the clustering stage on every path that reaches it: clean
// UC-1 data (every record stays at 1.0, so AVOC clusters every round),
// the §7 fault, UC-2 BLE rounds with holes, COV (clustering always on)
// and the weighting stage's zero-weight clustering fallback.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/algorithms.h"
#include "core/trace.h"
#include "data/round_table.h"
#include "obs/metrics.h"
#include "obs/stage_metrics.h"
#include "sim/ble.h"
#include "sim/light.h"
#include "util/rng.h"

namespace {

std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace avoc {
namespace {

using core::AlgorithmId;

enum class Case {
  kCleanUc1,
  kFaultyUc1,
  kBleHoles,
  kCov,
  kZeroWeightFallback,
};

std::string CaseName(Case c) {
  switch (c) {
    case Case::kCleanUc1:
      return "CleanUc1";
    case Case::kFaultyUc1:
      return "FaultyUc1";
    case Case::kBleHoles:
      return "BleHoles";
    case Case::kCov:
      return "Cov";
    case Case::kZeroWeightFallback:
      return "ZeroWeightFallback";
  }
  return "unknown";
}

sim::LightScenarioParams ShortLight() {
  sim::LightScenarioParams params;
  params.rounds = 2000;
  return params;
}

/// Five modules spread 20% apart: under a 5% binary agreement threshold
/// every module disagrees with every other, so the agreement weights are
/// all zero and the weighting stage falls back to clustering.
data::RoundTable SpreadTable(size_t rounds) {
  data::RoundTable table = data::RoundTable::WithModuleCount(5);
  Rng rng(7);
  std::vector<double> row(5);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t m = 0; m < row.size(); ++m) {
      row[m] = 100.0 * (1.0 + 0.2 * static_cast<double>(m)) +
               rng.Uniform(-0.5, 0.5);
    }
    EXPECT_TRUE(table.AppendRound(row).ok());
  }
  return table;
}

struct Fixture {
  data::RoundTable table;
  core::EngineConfig config;
};

Fixture MakeFixture(Case c) {
  switch (c) {
    case Case::kCleanUc1:
      return {sim::LightScenario(ShortLight()).MakeReferenceTable(),
              core::MakeConfig(AlgorithmId::kAvoc)};
    case Case::kFaultyUc1:
      return {sim::LightScenario(ShortLight()).MakeFaultyTable(),
              core::MakeConfig(AlgorithmId::kAvoc)};
    case Case::kBleHoles: {
      sim::BleScenarioParams ble;
      ble.rounds = 2000;
      core::PresetParams params;
      params.scale = core::ThresholdScale::kAbsolute;
      params.error = 6.0;
      params.quorum_fraction = 0.2;
      return {sim::BleScenario(ble).Generate().stack_a,
              core::MakeConfig(AlgorithmId::kAvoc, params)};
    }
    case Case::kCov:
      return {sim::LightScenario(ShortLight()).MakeReferenceTable(),
              core::MakeConfig(AlgorithmId::kClusteringOnly)};
    case Case::kZeroWeightFallback: {
      core::EngineConfig config = core::MakeConfig(AlgorithmId::kStandard);
      config.weighting = core::RoundWeighting::kAgreement;
      config.clustering = core::ClusteringMode::kBootstrap;
      return {SpreadTable(2000), config};
    }
  }
  return {};
}

core::RoundBlock Rows(const data::RoundTable& table, size_t begin,
                      size_t end) {
  const size_t m = table.module_count();
  return core::RoundBlock{
      table.value_block().subspan(begin * m, (end - begin) * m),
      table.present_block().subspan(begin * m, (end - begin) * m), m};
}

class CoreAllocTest
    : public ::testing::TestWithParam<std::tuple<Case, bool>> {};

TEST_P(CoreAllocTest, WarmCastVoteBlockMakesNoHeapAllocations) {
  const auto [c, observed] = GetParam();
  const Fixture fixture = MakeFixture(c);
  const data::RoundTable& table = fixture.table;
  ASSERT_GE(table.round_count(), 2u);
  const size_t half = table.round_count() / 2;

  auto engine = core::VotingEngine::Create(table.module_count(),
                                           fixture.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  obs::Registry registry;
  obs::MetricsObserverOptions options;
  options.scope = "alloc";
  options.sample_every = 4;
  options.log_events = false;
  obs::MetricsObserver observer(registry, options);
  if (observed) engine->set_observer(&observer);

  core::BatchTrace trace(table.module_count());
  trace.ReserveRounds(table.round_count());
  ASSERT_TRUE(engine->CastVoteBlock(Rows(table, 0, half), trace).ok());

  const size_t before = g_allocations.load(std::memory_order_relaxed);
  const Status status =
      engine->CastVoteBlock(Rows(table, half, table.round_count()), trace);
  const size_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(trace.round_count(), table.round_count());

  const size_t measured = table.round_count() - half;
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / static_cast<double>(measured)
      << " allocations per round over " << measured << " warm rounds";

  // The case really exercises what it is named for.
  size_t clustered = 0;
  size_t holes = 0;
  for (size_t r = half; r < table.round_count(); ++r) {
    clustered += trace.used_clustering(r) ? 1 : 0;
    holes += trace.present_count(r) < table.module_count() ? 1 : 0;
  }
  switch (c) {
    case Case::kCleanUc1:
    case Case::kCov:
    case Case::kZeroWeightFallback:
      EXPECT_EQ(clustered, measured);
      break;
    case Case::kFaultyUc1:
      break;
    case Case::kBleHoles:
      EXPECT_GT(holes, 0u);
      break;
  }
  if (c == Case::kZeroWeightFallback) {
    // Clustering came from the weighting fallback, not the bootstrap
    // gate: the records are neither all 1 nor all 0.
    EXPECT_FALSE(engine->history().AllRecordsAre(1.0));
    EXPECT_FALSE(engine->history().AllRecordsAre(0.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CoreAllocTest,
    ::testing::Combine(::testing::Values(Case::kCleanUc1, Case::kFaultyUc1,
                                         Case::kBleHoles, Case::kCov,
                                         Case::kZeroWeightFallback),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Case, bool>>& info) {
      return CaseName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Observed" : "_Bare");
    });

}  // namespace
}  // namespace avoc
