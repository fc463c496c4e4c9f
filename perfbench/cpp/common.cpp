#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/algorithms.h"
#include "core/batch.h"
#include "sim/ble.h"
#include "sim/light.h"
#include "util/rng.h"

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

namespace {

double NearestRank(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = std::min(
      values.size() - 1, static_cast<size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return static_cast<double>(values[index]);
}

}  // namespace

double Samples::Percentile(double q) const { return NearestRank(values_, q); }

double Samples::WindowedPercentile(double q, size_t window) const {
  std::vector<double> tails;
  for (size_t begin = 0; begin < values_.size(); begin += window) {
    size_t end = begin + window;
    if (end >= values_.size() || values_.size() - end < window) {
      end = values_.size();
    }
    tails.push_back(NearestRank(
        std::vector<uint64_t>(values_.begin() + begin, values_.begin() + end),
        q));
    if (end == values_.size()) break;
  }
  if (tails.empty()) return 0.0;
  std::sort(tails.begin(), tails.end());
  return tails[tails.size() / 2];
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_[name] = Entry{std::isfinite(value) ? value : 0.0, unit, samples};
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (const auto& [name, entry] : metrics_) {
    if (out.size() > 1) out += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.value);
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.unit + "\"}";
  }
  return out + "}";
}

std::string Report::SamplesJson() const {
  std::string out = "{";
  for (const auto& [name, entry] : metrics_) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + std::to_string(entry.samples);
  }
  return out + "}";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  avoc::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ull + stream);
  mix.Next();
  return mix.Next();
}

core::VotingEngine MakeGroupEngine(size_t modules) {
  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, modules);
  if (!engine.ok()) {
    std::fprintf(stderr, "perfbench: engine: %s\n",
                 engine.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(engine).value();
}

GroupInput MakeLightGroup(std::string name, uint64_t seed, size_t index,
                          size_t rounds, bool faulty) {
  avoc::sim::LightScenarioParams params;
  params.seed = DeriveSeed(seed, 2 * index);
  params.rounds = rounds;
  params.faulty_module = index % params.sensor_count;
  const avoc::sim::LightScenario scenario(params);
  GroupInput group;
  group.name = std::move(name);
  group.table = faulty ? scenario.MakeFaultyTable(rounds / 3)
                       : scenario.MakeReferenceTable();
  ComputeReference(group);
  return group;
}

GroupInput MakeBleGroup(std::string name, uint64_t seed, size_t index,
                        size_t rounds) {
  avoc::sim::BleScenarioParams params;
  params.seed = DeriveSeed(seed, 2 * index + 1);
  params.rounds = rounds;
  avoc::sim::BleDataset dataset = avoc::sim::BleScenario(params).Generate();
  GroupInput group;
  group.name = std::move(name);
  group.table = index % 2 == 0 ? std::move(dataset.stack_a)
                               : std::move(dataset.stack_b);
  ComputeReference(group);
  return group;
}

void ComputeReference(GroupInput& group) {
  core::VotingEngine engine = MakeGroupEngine(group.table.module_count());
  auto trace = core::RunOverTable(engine, group.table);
  if (!trace.ok()) {
    std::fprintf(stderr, "perfbench: reference run of %s: %s\n",
                 group.name.c_str(), trace.status().ToString().c_str());
    std::exit(2);
  }
  const core::TraceView view = trace->view();
  const core::TraceColumns& c = view.columns();
  ReferenceTrace& ref = group.reference;
  ref.modules = c.modules;
  ref.values.assign(c.values.begin(), c.values.end());
  ref.engaged.assign(c.engaged.begin(), c.engaged.end());
  ref.outcomes.assign(c.outcomes.begin(), c.outcomes.end());
  ref.present.assign(c.present_counts.begin(), c.present_counts.end());
  ref.history.assign(c.history.begin(), c.history.end());
}

void PerturbReference(GroupInput& group) {
  ReferenceTrace& ref = group.reference;
  for (size_t r = 0; r < ref.rounds(); ++r) {
    if (ref.engaged[r] == 0) continue;
    uint64_t bits = 0;
    std::memcpy(&bits, &ref.values[r], sizeof(bits));
    bits ^= 1;
    std::memcpy(&ref.values[r], &bits, sizeof(bits));
    return;
  }
}

void AppendRoundReadings(const data::RoundTable& table, size_t r,
                         std::vector<runtime::BatchReading>& out) {
  const data::RoundView view = table.View(r);
  for (size_t m = 0; m < view.module_count(); ++m) {
    if (view.present[m] != 0) {
      out.push_back(runtime::BatchReading{m, r, view.values[m]});
    }
  }
}

bool RoundHasHoles(const data::RoundTable& table, size_t r) {
  const data::RoundView view = table.View(r);
  return std::find(view.present.begin(), view.present.end(), uint8_t{0}) !=
         view.present.end();
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::string CompareTrace(const GroupInput& group, const core::TraceView& got,
                         std::span<const size_t> rounds, size_t rows,
                         size_t first_reference_row) {
  const ReferenceTrace& ref = group.reference;
  char buffer[256];
  if (got.round_count() != rows ||
      first_reference_row + rows > ref.rounds()) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s: %zu fused rows, expected %zu from reference row %zu",
                  group.name.c_str(), got.round_count(), rows,
                  first_reference_row);
    return buffer;
  }
  const core::TraceColumns& c = got.columns();
  if (c.modules != ref.modules) {
    return group.name + ": module count differs from the reference";
  }
  for (size_t i = 0; i < rows; ++i) {
    const size_t r = first_reference_row + i;
    const char* what = nullptr;
    if (!rounds.empty() && rounds[i] != r) {
      what = "round number";
    } else if (c.outcomes[i] != ref.outcomes[r]) {
      what = "outcome";
    } else if (c.engaged[i] != ref.engaged[r]) {
      what = "engaged";
    } else if (c.engaged[i] != 0 && !SameBits(c.values[i], ref.values[r])) {
      what = "fused value";
    } else if (c.present_counts[i] != ref.present[r]) {
      what = "present count";
    } else {
      for (size_t m = 0; m < ref.modules; ++m) {
        if (!SameBits(c.history[i * ref.modules + m],
                      ref.history[r * ref.modules + m])) {
          what = "history record";
          break;
        }
      }
    }
    if (what != nullptr) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s round %zu: %s differs (got %a, reference %a)",
                    group.name.c_str(), r, what,
                    c.engaged[i] != 0 ? c.values[i] : 0.0,
                    ref.engaged[r] != 0 ? ref.values[r] : 0.0);
      return buffer;
    }
  }
  return {};
}

std::string CheckRange(const GroupInput& group,
                       std::span<const runtime::RangePoint> points,
                       uint64_t lo, uint64_t hi) {
  const ReferenceTrace& ref = group.reference;
  if (hi < lo || hi >= ref.rounds() || points.size() != hi - lo + 1) {
    return group.name + ": QUERY_RANGE [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "] returned " +
           std::to_string(points.size()) + " points";
  }
  for (size_t i = 0; i < points.size(); ++i) {
    const runtime::RangePoint& p = points[i];
    const size_t r = static_cast<size_t>(lo) + i;
    const bool engaged = ref.engaged[r] != 0;
    if (p.round != r || (p.engaged != 0) != engaged ||
        (engaged && !SameBits(p.value, ref.values[r]))) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "%s: QUERY_RANGE round %zu differs (got %a, reference %a)",
                    group.name.c_str(), r, p.value,
                    engaged ? ref.values[r] : 0.0);
      return buffer;
    }
  }
  return {};
}

std::string CheckHistory(const GroupInput& group,
                         std::span<const double> records,
                         size_t fused_rounds) {
  const ReferenceTrace& ref = group.reference;
  if (fused_rounds == 0 || fused_rounds > ref.rounds() ||
      records.size() != ref.modules) {
    return group.name + ": HISTORY_GET returned " +
           std::to_string(records.size()) + " records";
  }
  const double* want = &ref.history[(fused_rounds - 1) * ref.modules];
  for (size_t m = 0; m < ref.modules; ++m) {
    if (!SameBits(records[m], want[m])) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "%s: HISTORY_GET module %zu after round %zu differs "
                    "(got %a, reference %a)",
                    group.name.c_str(), m, fused_rounds - 1, records[m],
                    want[m]);
      return buffer;
    }
  }
  return {};
}

}  // namespace perfbench
