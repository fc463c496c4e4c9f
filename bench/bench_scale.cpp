// Redundancy scaling (§1: "the degree of redundancy rises significantly
// to dozens of proximity sensors").
//
// Sweeps the group size from the avionics-style 3 up to 48 modules and
// measures, per algorithm: fused-output error against ground truth under
// a 20% population of faulty sensors, and the per-round voting cost.
// Each configuration is run twice over the identical table: once bare
// for the throughput numbers, once with a stage-timing observer attached
// for the per-stage ns/round breakdown (one figure per stage of
// core::kStageNames) — the observed pass pays the hook overhead, so the
// totals come from the bare pass and the breakdown shows *where* rounds
// spend.
//
// The "standard-abs" rows run binary agreement over an absolute margin,
// the mode where the kernel layer dispatches the O(N log N) sorted-
// window agreement path; its per-stage agreement cost should grow
// near-linearly from 9 → 48 modules while the pairwise presets grow
// quadratically.  A bitwise sorted-vs-pairwise cross-check over every
// standard-abs round is reported in the JSON (must be 0 mismatches).
// Writes machine-readable BENCH_scale.json next to the stdout report.
// Flags: --rounds N --seed S --json PATH
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch.h"
#include "core/kernels/kernels.h"
#include "stats/running.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using avoc::core::AlgorithmId;
using avoc::core::PresetParams;

avoc::data::RoundTable MakeTable(size_t modules, size_t rounds,
                                 uint64_t seed, double truth) {
  avoc::Rng rng(seed);
  avoc::data::RoundTable table = avoc::data::RoundTable::WithModuleCount(modules);
  // 20% of modules (at least 1) are faulty: +25% bias.
  const size_t faulty = std::max<size_t>(1, modules / 5);
  std::vector<double> biases(modules);
  for (size_t m = 0; m < modules; ++m) {
    biases[m] = rng.Gaussian(0.0, truth * 0.01);
    if (m >= modules - faulty) biases[m] += truth * 0.25;
  }
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<double> row(modules);
    for (size_t m = 0; m < modules; ++m) {
      row[m] = truth + biases[m] + rng.Gaussian(0.0, truth * 0.005);
    }
    (void)table.AppendRound(row);
  }
  return table;
}

constexpr size_t kStages = avoc::core::kStageNames.size();

/// Position of `stage` in core::kStageNames.
size_t StageIndex(std::string_view stage) {
  for (size_t i = 0; i < kStages; ++i) {
    if (avoc::core::kStageNames[i] == stage) return i;
  }
  return kStages;
}

/// Accumulates per-stage wall time, one bucket per core::kStageNames
/// entry.
class StageTimer final : public avoc::core::StageObserver {
 public:
  void OnRoundBegin(size_t /*round*/,
                    const avoc::core::VoteContext& /*context*/) override {
    prev_ = Clock::now();
  }
  void OnStageDone(std::string_view stage,
                   const avoc::core::VoteContext& /*context*/) override {
    const auto now = Clock::now();
    const size_t index = StageIndex(stage);
    if (index < kStages) {
      stage_ns[index] +=
          std::chrono::duration<double, std::nano>(now - prev_).count();
    }
    prev_ = now;
  }
  bool wants_vote_result() const override { return false; }

  std::array<double, kStages> stage_ns{};

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point prev_{};
};

}  // namespace

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 500));
  const size_t repeat =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("repeat", 3)));
  const uint64_t seed = static_cast<uint64_t>(cli->GetInt("seed", 5));
  const std::string json_path = cli->GetString("json", "BENCH_scale.json");
  constexpr double kTruth = 1000.0;

  struct Config {
    const char* label;
    AlgorithmId id;
    PresetParams params;
  };
  // standard-abs: binary agreement over an absolute ±50 margin (5% of
  // the 1000.0 truth, matching the presets' relative ε=0.05) — the
  // configuration the sorted-window agreement kernel serves.
  PresetParams absolute;
  absolute.error = kTruth * 0.05;
  absolute.scale = avoc::core::ThresholdScale::kAbsolute;
  const std::vector<Config> configs = {
      {"average", AlgorithmId::kAverage, {}},
      {"me", AlgorithmId::kModuleElimination, {}},
      {"avoc", AlgorithmId::kAvoc, {}},
      {"standard-abs", AlgorithmId::kStandard, absolute},
  };

  struct Row {
    size_t modules;
    std::string algorithm;
    double mean_err;
    double max_err;
    double us_per_round;
    double rounds_per_sec;
    std::array<double, kStages> stage_ns;  ///< per round, kStageNames order

    double ns(std::string_view stage) const {
      return stage_ns[StageIndex(stage)];
    }
    /// The pre-split "other" bucket: every stage but exclusion,
    /// agreement and collation.
    double ns_other() const {
      return ns("quorum") + ns("clustering") + ns("elimination") +
             ns("weighting") + ns("majority") + ns("history");
    }
  };
  std::vector<Row> json_rows;
  size_t cross_rounds = 0;
  size_t cross_mismatches = 0;

  std::printf("=== redundancy scaling: %zu rounds, 20%% faulty modules "
              "(+25%% bias) ===\n",
              rounds);
  std::printf("%-8s, %-12s, %10s, %10s, %10s", "modules", "algorithm",
              "mean-err", "max-err", "us/round");
  for (const std::string_view stage : avoc::core::kStageNames) {
    std::printf(", %7.3s-ns", stage.data());
  }
  std::printf("\n");

  for (const size_t modules : {3, 5, 9, 16, 24, 48}) {
    const auto table = MakeTable(modules, rounds, seed, kTruth);
    for (const Config& config : configs) {
      // Bare timed passes: fastest of `repeat` (each over a fresh engine
      // and trace, so every pass is the identical from-bootstrap run —
      // the minimum is the steady-state cost, the spread is scheduler
      // noise).  This is the throughput number.
      double best_us = 0.0;
      avoc::Result<avoc::core::BatchTrace> batch =
          avoc::InternalError("bench: no pass ran");
      for (size_t pass = 0; pass < repeat; ++pass) {
        auto engine =
            avoc::core::MakeEngine(config.id, modules, config.params);
        if (!engine.ok()) break;
        const auto start = std::chrono::steady_clock::now();
        auto result = avoc::core::RunOverTable(*engine, table);
        const auto stop = std::chrono::steady_clock::now();
        if (!result.ok()) break;
        const double us =
            std::chrono::duration<double, std::micro>(stop - start).count();
        if (pass == 0 || us < best_us) best_us = us;
        batch = std::move(result);
      }
      if (!batch.ok()) continue;

      // Instrumented pass (fresh engine, same table): per-stage split.
      StageTimer timer;
      auto observed =
          avoc::core::MakeEngine(config.id, modules, config.params);
      if (!observed.ok()) continue;
      observed->set_observer(&timer);
      if (!avoc::core::RunOverTable(*observed, table).ok()) continue;

      avoc::stats::RunningStats err;
      for (size_t r = 0; r < batch->round_count(); ++r) {
        const auto value = batch->output(r);
        if (value.has_value()) err.Add(std::abs(*value - kTruth));
      }
      const double us_per_round = best_us / static_cast<double>(rounds);
      Row row{modules,
              config.label,
              err.mean(),
              err.max(),
              us_per_round,
              1e6 / us_per_round,
              {}};
      for (size_t i = 0; i < kStages; ++i) {
        row.stage_ns[i] = timer.stage_ns[i] / static_cast<double>(rounds);
      }
      std::printf("%8zu, %-12s, %10.2f, %10.2f, %10.2f", row.modules,
                  row.algorithm.c_str(), row.mean_err, row.max_err,
                  row.us_per_round);
      for (const double ns : row.stage_ns) std::printf(", %10.0f", ns);
      std::printf("\n");
      json_rows.push_back(row);
    }

    // Sorted-vs-pairwise cross-check: every standard-abs round's
    // agreement scores computed by the dispatching kernel (sorted path
    // at n >= 8) must be bit-identical to the pairwise fallback.
    const avoc::core::AgreementParams abs_params =
        avoc::core::MakeConfig(AlgorithmId::kStandard, configs.back().params)
            .agreement;
    avoc::core::kernels::AgreementScratch scratch;
    std::vector<double> dispatched(modules);
    std::vector<double> pairwise(modules);
    for (size_t r = 0; r < table.round_count(); ++r) {
      const auto view = table.View(r);
      avoc::core::kernels::AgreementScoresKernel(
          view.values.data(), modules, abs_params, dispatched.data(),
          scratch);
      avoc::core::kernels::AgreementPairwiseKernel(
          view.values.data(), modules, abs_params, pairwise.data(), scratch);
      ++cross_rounds;
      for (size_t m = 0; m < modules; ++m) {
        if (std::memcmp(&dispatched[m], &pairwise[m], sizeof(double)) != 0) {
          ++cross_mismatches;
        }
      }
    }
  }
  std::printf(
      "\nsorted-vs-pairwise cross-check: %zu rounds, %zu mismatches\n",
      cross_rounds, cross_mismatches);
  std::printf(
      "(average absorbs the faulty camp's bias at every size; history-\n"
      " aware voting shrinks the error as redundancy grows, at a per-round\n"
      " cost that stays comfortably inside the paper's 1 ms budget.  The\n"
      " ns columns come from the instrumented pass: agreement dominates\n"
      " growth for the pairwise presets, while standard-abs rides the\n"
      " sorted O(N log N) kernel.)\n");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"scale\",\n"
                 "  \"rounds\": %zu,\n"
                 "  \"repeat\": %zu,\n"
                 "  \"timing\": \"fastest-of-repeat\",\n"
                 "  \"threads\": 1,\n"
                 "  \"allocation\": \"columnar\",\n"
                 "  \"faulty_fraction\": 0.2,\n"
                 "  \"breakdown_source\": \"instrumented-pass\",\n"
                 "  \"sorted_cross_check\": {\"rounds\": %zu, "
                 "\"mismatches\": %zu},\n"
                 "  \"results\": [\n",
                 rounds, repeat, cross_rounds, cross_mismatches);
    for (size_t i = 0; i < json_rows.size(); ++i) {
      const Row& row = json_rows[i];
      std::fprintf(json,
                   "    {\"modules\": %zu, \"algorithm\": \"%s\", "
                   "\"mean_err\": %.4f, \"max_err\": %.4f, "
                   "\"us_per_round\": %.4f, \"rounds_per_sec\": %.1f, "
                   "\"ns_per_round\": {",
                   row.modules, row.algorithm.c_str(), row.mean_err,
                   row.max_err, row.us_per_round, row.rounds_per_sec);
      for (size_t k = 0; k < kStages; ++k) {
        std::fprintf(json, "\"%s\": %.1f, ",
                     std::string(avoc::core::kStageNames[k]).c_str(),
                     row.stage_ns[k]);
      }
      // "average" (= collation) and "other" are the pre-split buckets,
      // kept so older readers still parse.
      std::fprintf(json, "\"average\": %.1f, \"other\": %.1f}}%s\n",
                   row.ns("collation"), row.ns_other(),
                   i + 1 < json_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return cross_mismatches == 0 ? 0 : 1;
}
