// Shared pieces of the end-to-end benchmark: timing samples, the metric
// report, seeded group inputs, and the correctness gate that compares a
// fused trace with an in-process reference run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/trace.h"
#include "core/types.h"
#include "data/round_table.h"
#include "obs/trace.h"
#include "runtime/framing.h"
#include "storage/backend.h"

namespace perfbench {

namespace core = avoc::core;
namespace data = avoc::data;
namespace obs = avoc::obs;
namespace runtime = avoc::runtime;
namespace storage = avoc::storage;

using Clock = std::chrono::steady_clock;

inline uint64_t ElapsedNs(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Durations (or any non-negative quantity) of one measured operation,
/// in the order they were recorded.
class Samples {
 public:
  void Add(uint64_t value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Nearest-rank percentile for q in (0, 1]; 0 when empty.
  double Percentile(double q) const;
  /// The median, over consecutive windows of `window` samples (the last
  /// partial window joins the one before it), of each window's
  /// percentile q.  A tail percentile of a few thousand samples swings
  /// with the host's scheduling noise; the median of per-window tails
  /// keeps one noisy second from moving the whole run.
  double WindowedPercentile(double q, size_t window) const;

 private:
  std::vector<uint64_t> values_;
};

/// Named metrics with units and the sample count each one rests on.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples);

  /// `{"name": {"value": v, "unit": u}, ...}` in name order.
  std::string MetricsJson() const;
  /// `{"name": samples, ...}` in name order.
  std::string SamplesJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
  };
  std::map<std::string, Entry> metrics_;
};

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMiB();

/// The fused columns of one group's reference run, row r = round r.
struct ReferenceTrace {
  size_t modules = 0;
  std::vector<double> values;
  std::vector<uint8_t> engaged;
  std::vector<core::RoundOutcome> outcomes;
  std::vector<uint32_t> present;
  std::vector<double> history;  ///< rounds x modules

  size_t rounds() const { return outcomes.size(); }
};

/// One voter group's generated rounds and their in-process reference.
struct GroupInput {
  std::string name;
  data::RoundTable table;
  ReferenceTrace reference;
};

/// Generates a UC-1 group (5 light sensors): LightScenario, with the §7
/// +6000 lux fault on one sensor from a third of the way in when `faulty`.
GroupInput MakeLightGroup(std::string name, uint64_t seed, size_t index,
                          size_t rounds, bool faulty);

/// Generates a UC-2 group: one BleScenario stack of 9 beacons, holes
/// included.
GroupInput MakeBleGroup(std::string name, uint64_t seed, size_t index,
                        size_t rounds);

/// The AVOC engine every group runs (5 or 9 modules).
core::VotingEngine MakeGroupEngine(size_t modules);

/// Fills `group.reference` by running the table through a fresh engine
/// with core::RunOverTable.  Aborts the process on failure (the inputs
/// are generated, so a failure is a benchmark bug).
void ComputeReference(GroupInput& group);

/// Flips the last bit of the first fused value of the reference, so the
/// gate must trip (the benchmark's negative self-test).
void PerturbReference(GroupInput& group);

/// The readings of round `r` as wire readings (missing modules omitted).
void AppendRoundReadings(const data::RoundTable& table, size_t r,
                         std::vector<runtime::BatchReading>& out);

/// True when round `r` of `table` misses at least one module.
bool RoundHasHoles(const data::RoundTable& table, size_t r);

/// Compares `got`, which must hold exactly `rows` rows (round numbers in
/// `rounds`, unchecked when empty), with the reference rows starting at
/// `first_reference_row`.  Returns an empty string when bit-identical,
/// else a description of the first difference (values in hex floats).
std::string CompareTrace(const GroupInput& group, const core::TraceView& got,
                         std::span<const size_t> rounds, size_t rows,
                         size_t first_reference_row);

/// Checks a QUERY_RANGE answer for rounds [lo, hi] against the reference:
/// every round once, in order, with the reference's bits.
std::string CheckRange(const GroupInput& group,
                       std::span<const runtime::RangePoint> points,
                       uint64_t lo, uint64_t hi);

/// Checks a HISTORY_GET answer taken after `fused_rounds` rounds against
/// the reference's history records of the last of them.
std::string CheckHistory(const GroupInput& group,
                         std::span<const double> records,
                         size_t fused_rounds);

/// Derives an independent 64-bit seed for (workload seed, stream index).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench
