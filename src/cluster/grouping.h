// Threshold grouping: AVOC's self-calibrating clustering step (§5).
//
// "we check for values within a given scaling threshold of each other
//  (which is selected to mirror the parameters of the given algorithm),
//  and group the values in agreement.  Then, we select as output value the
//  average (or its closest real value) of the largest group."
//
// This is single-linkage agglomeration over 1-D values: after sorting,
// consecutive values whose gap is within the (possibly value-scaled)
// threshold join the same group.  Like DBSCAN with minPts=1, but
// self-calibrating: in relative mode the margin scales with the local
// reference value, so no dataset-specific eps tuning is needed — exactly
// the property §5 claims over DBSCAN.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/status.h"

namespace avoc::cluster {

enum class ThresholdMode {
  kAbsolute,  ///< gap <= threshold
  kRelative,  ///< gap <= threshold * max(|a|, |b|, floor)
};

struct GroupingOptions {
  double threshold = 0.05;
  ThresholdMode mode = ThresholdMode::kRelative;
  /// In relative mode, the scale used for near-zero values so that the
  /// margin never collapses to zero.
  double relative_floor = 1e-9;
};

/// One cluster: member indices into the input span, plus its mean.
struct Group {
  std::vector<size_t> members;  // indices into the input values
  double mean = 0.0;

  size_t size() const { return members.size(); }
};

struct GroupingResult {
  /// Groups sorted by descending size; ties broken by ascending mean so
  /// results are deterministic.
  std::vector<Group> groups;

  /// The largest group (errors on empty input are prevented upstream).
  const Group& largest() const { return groups.front(); }
};

// --- Linkage kernel ---------------------------------------------------------
//
// The one threshold-linkage implementation.  GroupByThreshold and
// SelectWinningGroup below are built on it, and the voting engine's
// clustering stage calls it directly with a scratch it owns, so a warm
// engine clusters without touching the heap.

/// One group of the linkage, as positions [begin, end) of the sorted
/// index order.
struct LinkageRun {
  size_t begin = 0;
  size_t end = 0;
  double mean = 0.0;  ///< run sum, accumulated in sorted order, / size()

  size_t size() const { return end - begin; }
};

/// Reusable state of LinkByThreshold.  Keeping one alive across calls
/// keeps the kernel allocation-free once the capacity covers the largest
/// input seen.
struct LinkageScratch {
  /// Input indices sorted by value.
  std::vector<size_t> order;
  /// The runs, ranked like GroupingResult::groups (descending size, ties
  /// by ascending mean).
  std::vector<LinkageRun> runs;
};

/// Sorts the indices of `values` into scratch.order (`std::sort` by
/// `values[a] < values[b]`), cuts the sorted order wherever the gap to
/// the next value exceeds the threshold, and ranks the runs into
/// scratch.runs.  Empty input yields no runs.
void LinkByThreshold(std::span<const double> values,
                     const GroupingOptions& options, LinkageScratch& scratch);

/// Index into scratch.runs of the winning run of the last LinkByThreshold
/// over `values`; same rule as SelectWinningGroup.  The median reference
/// is read off scratch.order.  Requires at least one run.
size_t WinningRun(std::span<const double> values,
                  const LinkageScratch& scratch,
                  const double* previous_output = nullptr);

// --- Materializing API ------------------------------------------------------

/// Groups `values` by threshold linkage.  Empty input yields zero groups.
GroupingResult GroupByThreshold(std::span<const double> values,
                                const GroupingOptions& options = {});

/// The winning group per AVOC: the largest; ties broken by proximity of
/// the group mean to `previous_output` when provided (the paper's
/// tie-breaking "proximity to the previous output"), else by the group
/// whose mean is nearest the overall median.
Result<Group> SelectWinningGroup(const GroupingResult& grouping,
                                 std::span<const double> values,
                                 const double* previous_output = nullptr);

}  // namespace avoc::cluster
