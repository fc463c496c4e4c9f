// MLV vs weighted-majority on noisy finite-alphabet channels.
//
// §6 notes VDX cannot express MLV ("algorithms that use parameters for
// the candidate values"); this bench measures what that expressiveness
// costs: per-round accuracy of the VDX-definable weighted-majority
// categorical voter against the library-level MLV baseline, sweeping the
// per-module error rate of a minority of reliable and a majority of
// unreliable sensors.
// Flags: --rounds N --seed S
#include <cstdio>
#include <string>
#include <vector>

#include "core/categorical.h"
#include "core/mlv.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

constexpr size_t kAlphabet = 8;

std::string Symbol(size_t i) { return avoc::StrFormat("s%zu", i); }

/// Generates one module reading: the truth with probability 1-error, else
/// a uniformly random other symbol.
std::string Channel(const std::string& truth, double error, avoc::Rng& rng) {
  if (!rng.Bernoulli(error)) return truth;
  for (;;) {
    const std::string wrong = Symbol(rng.UniformInt(kAlphabet));
    if (wrong != truth) return wrong;
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 2000));
  const uint64_t seed = static_cast<uint64_t>(cli->GetInt("seed", 3));

  std::printf("=== MLV vs weighted majority (alphabet %zu, %zu rounds) ===\n",
              kAlphabet, rounds);
  std::printf("2 reliable modules (error e/4) + 3 unreliable (error e)\n\n");
  std::printf("%-8s, %10s, %10s, %12s\n", "error e", "majority", "mlv",
              "mlv-gain");

  for (const double error : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) {
    avoc::Rng rng(seed);
    avoc::core::CategoricalConfig majority_config;
    majority_config.history.rule = avoc::core::HistoryRule::kCumulativeRatio;
    auto majority = avoc::core::CategoricalEngine::Create(5, majority_config);
    avoc::core::MlvConfig mlv_config;
    mlv_config.output_space_size = kAlphabet;
    auto mlv = avoc::core::MlvEngine::Create(5, mlv_config);
    if (!majority.ok() || !mlv.ok()) return 1;

    size_t majority_correct = 0;
    size_t mlv_correct = 0;
    for (size_t r = 0; r < rounds; ++r) {
      const std::string truth = Symbol(rng.UniformInt(kAlphabet));
      std::vector<avoc::core::CategoricalEngine::Label> round;
      round.emplace_back(Channel(truth, error / 4.0, rng));
      round.emplace_back(Channel(truth, error / 4.0, rng));
      round.emplace_back(Channel(truth, error, rng));
      round.emplace_back(Channel(truth, error, rng));
      round.emplace_back(Channel(truth, error, rng));

      auto majority_result = majority->CastVote(round);
      auto mlv_result = mlv->CastVote(round);
      if (majority_result.ok() && majority_result->value == truth) {
        ++majority_correct;
      }
      if (mlv_result.ok() && mlv_result->value == truth) {
        ++mlv_correct;
      }
    }
    const double majority_acc =
        100.0 * static_cast<double>(majority_correct) /
        static_cast<double>(rounds);
    const double mlv_acc = 100.0 * static_cast<double>(mlv_correct) /
                           static_cast<double>(rounds);
    std::printf("%7.2f, %9.1f%%, %9.1f%%, %+11.1f%%\n", error, majority_acc,
                mlv_acc, mlv_acc - majority_acc);
  }
  std::printf(
      "\n(MLV exploits the output-space size and per-module reliability;\n"
      " the gap is the price of staying within VDX's expressiveness, §6.)\n");
  return 0;
}
