#include "cluster/grouping.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace avoc::cluster {
namespace {

double GapLimit(double a, double b, const GroupingOptions& options) {
  if (options.mode == ThresholdMode::kAbsolute) return options.threshold;
  const double scale =
      std::max({std::abs(a), std::abs(b), options.relative_floor});
  return options.threshold * scale;
}

// Sorts the indices of `values` by value: the order the linkage cuts
// into runs and the median is read from.
void SortOrder(std::span<const double> values, std::vector<size_t>& order) {
  order.resize(values.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
}

// Median of `values` read off their sorted index order.  std::sort makes
// the same comparisons and moves on the indices as it would on a copy of
// the values, so this is the value-sort median bit for bit (signed zeros
// and NaN included).
double SortedMedian(std::span<const double> values,
                    std::span<const size_t> order) {
  const size_t n = order.size();
  return (n % 2 == 1)
             ? values[order[n / 2]]
             : 0.5 * (values[order[n / 2 - 1]] + values[order[n / 2]]);
}

// The AVOC tie-break over ranked groups (GroupingResult::groups or
// LinkageScratch::runs): the front group's size is the top size; a
// unique top-size group wins outright, otherwise the first tied group
// with strictly the smallest |mean - reference()| wins.  The reference
// is only computed when there is a tie.
template <typename Ranked, typename Reference>
size_t PickWinner(std::span<const Ranked> ranked, Reference reference) {
  const size_t top_size = ranked.front().size();
  size_t tied = 0;
  for (const Ranked& group : ranked) tied += group.size() == top_size ? 1 : 0;
  if (tied == 1) return 0;
  const double target = reference();
  size_t best = 0;
  double best_distance = std::abs(ranked[0].mean - target);
  for (size_t i = 1; i < ranked.size(); ++i) {
    if (ranked[i].size() != top_size) continue;
    const double distance = std::abs(ranked[i].mean - target);
    if (distance < best_distance) {
      best = i;
      best_distance = distance;
    }
  }
  return best;
}

}  // namespace

void LinkByThreshold(std::span<const double> values,
                     const GroupingOptions& options, LinkageScratch& scratch) {
  std::vector<size_t>& order = scratch.order;
  std::vector<LinkageRun>& runs = scratch.runs;
  SortOrder(values, order);
  runs.clear();
  if (values.empty()) return;
  // Runs never outnumber values: once the capacity covers this size, no
  // later split pattern reallocates.
  runs.reserve(values.size());

  // Single-linkage over sorted order is exact for 1-D data: one pass cuts
  // the runs and sums each in sorted order.
  size_t begin = 0;
  double sum = values[order[0]];
  for (size_t i = 1; i < order.size(); ++i) {
    const double prev = values[order[i - 1]];
    const double next = values[order[i]];
    if (next - prev <= GapLimit(prev, next, options)) {
      sum += next;
    } else {
      runs.push_back({begin, i, sum / static_cast<double>(i - begin)});
      begin = i;
      sum = next;
    }
  }
  runs.push_back(
      {begin, order.size(), sum / static_cast<double>(order.size() - begin)});

  std::sort(runs.begin(), runs.end(),
            [](const LinkageRun& a, const LinkageRun& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.mean < b.mean;
            });
}

size_t WinningRun(std::span<const double> values,
                  const LinkageScratch& scratch,
                  const double* previous_output) {
  return PickWinner(std::span<const LinkageRun>(scratch.runs), [&] {
    return previous_output != nullptr ? *previous_output
                                      : SortedMedian(values, scratch.order);
  });
}

GroupingResult GroupByThreshold(std::span<const double> values,
                                const GroupingOptions& options) {
  LinkageScratch scratch;
  LinkByThreshold(values, options, scratch);
  GroupingResult result;
  result.groups.reserve(scratch.runs.size());
  for (const LinkageRun& run : scratch.runs) {
    Group& group = result.groups.emplace_back();
    group.members.assign(scratch.order.begin() + run.begin,
                         scratch.order.begin() + run.end);
    group.mean = run.mean;
  }
  return result;
}

Result<Group> SelectWinningGroup(const GroupingResult& grouping,
                                 std::span<const double> values,
                                 const double* previous_output) {
  if (grouping.groups.empty()) {
    return InvalidArgumentError("no groups to select from");
  }
  const std::span<const Group> groups(grouping.groups);
  return groups[PickWinner(groups, [&] {
    if (previous_output != nullptr) return *previous_output;
    // Median of all candidate values as a neutral reference.
    std::vector<size_t> order;
    SortOrder(values, order);
    return SortedMedian(values, order);
  })];
}

}  // namespace avoc::cluster
