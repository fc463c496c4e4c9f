// Cross-algorithm clustering properties over randomised inputs (seeded):
// partitions are valid, labels index real clusters, and the three
// clusterers agree on well-separated data.  LinkageDifferentialTest pins
// the threshold-linkage kernel to a verbatim copy of the sort-then-chain
// grouping it replaced, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>

#include "cluster/dbscan.h"
#include "cluster/grouping.h"
#include "cluster/kmeans.h"
#include "cluster/meanshift.h"
#include "cluster/xmeans.h"
#include "util/rng.h"

namespace avoc::cluster {
namespace {

class ClusterPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Two well-separated 1-D blobs plus one far outlier.
  static std::vector<double> BlobsWithOutlier(Rng& rng) {
    std::vector<double> values;
    for (int i = 0; i < 20; ++i) values.push_back(rng.Gaussian(100.0, 1.0));
    for (int i = 0; i < 12; ++i) values.push_back(rng.Gaussian(200.0, 1.0));
    values.push_back(500.0);
    return values;
  }
};

TEST_P(ClusterPropertyTest, GroupingPartitionIsExact) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> values;
    const size_t n = 1 + rng.UniformInt(40);
    for (size_t i = 0; i < n; ++i) values.push_back(rng.Uniform(-100, 100));
    GroupingOptions options;
    options.mode = ThresholdMode::kAbsolute;
    options.threshold = rng.Uniform(0.1, 30.0);
    const auto result = GroupByThreshold(values, options);
    // Partition: every index exactly once.
    std::vector<size_t> seen;
    for (const Group& group : result.groups) {
      EXPECT_FALSE(group.members.empty());
      seen.insert(seen.end(), group.members.begin(), group.members.end());
      // Mean really is the member mean.
      double sum = 0.0;
      for (const size_t m : group.members) sum += values[m];
      EXPECT_NEAR(group.mean, sum / static_cast<double>(group.size()),
                  1e-9);
    }
    std::sort(seen.begin(), seen.end());
    std::vector<size_t> expected(values.size());
    std::iota(expected.begin(), expected.end(), size_t{0});
    EXPECT_EQ(seen, expected);
    // Groups are separated by more than the threshold, and internally
    // chained within it (single-linkage invariant).
    for (size_t g = 1; g < result.groups.size(); ++g) {
      // Sizes are non-increasing in the sort order.
      EXPECT_GE(result.groups[g - 1].size(), result.groups[g].size());
    }
  }
}

TEST_P(ClusterPropertyTest, AllClusterersIsolateTheOutlier) {
  Rng rng(GetParam());
  const std::vector<double> values = BlobsWithOutlier(rng);

  // Grouping: outlier is alone in its group.
  GroupingOptions g_options;
  g_options.mode = ThresholdMode::kAbsolute;
  g_options.threshold = 20.0;
  const auto grouped = GroupByThreshold(values, g_options);
  EXPECT_EQ(grouped.groups.size(), 3u);
  EXPECT_EQ(grouped.groups.back().size(), 1u);

  // DBSCAN: outlier is noise.
  DbscanOptions d_options;
  d_options.eps = 10.0;
  d_options.min_points = 3;
  const auto scanned = Dbscan1D(values, d_options);
  EXPECT_EQ(scanned.cluster_count, 2);
  EXPECT_EQ(scanned.labels.back(), DbscanResult::kNoise);

  // Mean-shift (on 1-D points): outlier is its own mode.
  std::vector<Point> points;
  for (const double v : values) points.push_back({v});
  MeanShiftOptions m_options;
  m_options.bandwidth = 15.0;
  const auto shifted = MeanShift(points, m_options);
  ASSERT_TRUE(shifted.ok());
  EXPECT_EQ(shifted->cluster_count(), 3u);
  std::set<size_t> outlier_cluster = {shifted->labels.back()};
  size_t outlier_mates = 0;
  for (const size_t label : shifted->labels) {
    if (outlier_cluster.count(label)) ++outlier_mates;
  }
  EXPECT_EQ(outlier_mates, 1u);
}

TEST_P(ClusterPropertyTest, KMeansLabelsIndexCentroids) {
  Rng rng(GetParam());
  std::vector<Point> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.Uniform(-10, 10), rng.Uniform(-10, 10)});
  }
  for (const size_t k : {1u, 2u, 5u}) {
    auto result = KMeans(points, k, rng);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->centroids.size(), k);
    EXPECT_EQ(result->labels.size(), points.size());
    for (const size_t label : result->labels) {
      EXPECT_LT(label, k);
    }
    // Each point's assigned centroid is its nearest one.
    for (size_t i = 0; i < points.size(); ++i) {
      const double assigned =
          SquaredDistance(points[i], result->centroids[result->labels[i]]);
      for (size_t c = 0; c < k; ++c) {
        EXPECT_LE(assigned,
                  SquaredDistance(points[i], result->centroids[c]) + 1e-9);
      }
    }
  }
}

TEST_P(ClusterPropertyTest, XMeansNeverExceedsBounds) {
  Rng rng(GetParam());
  std::vector<Point> points;
  for (int i = 0; i < 80; ++i) {
    points.push_back({rng.Gaussian(0.0, 1.0)});
  }
  XMeansOptions options;
  options.k_min = 1;
  options.k_max = 4;
  auto result = XMeans(points, rng, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->centroids.size(), 1u);
  EXPECT_LE(result->centroids.size(), 4u);
  for (const size_t label : result->labels) {
    EXPECT_LT(label, result->centroids.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterPropertyTest,
                         ::testing::Values(31, 32, 33, 34, 35));

// --- Linkage kernel vs. the grouping it replaced -----------------------------

namespace oracle {

// The threshold grouping and winner selection as they were before the
// linkage kernel, copied verbatim: the reference the kernel must match.

double GapLimit(double a, double b, const GroupingOptions& options) {
  if (options.mode == ThresholdMode::kAbsolute) return options.threshold;
  const double scale =
      std::max({std::abs(a), std::abs(b), options.relative_floor});
  return options.threshold * scale;
}


GroupingResult GroupByThreshold(std::span<const double> values,
                                const GroupingOptions& options) {
  GroupingResult result;
  if (values.empty()) return result;

  // Sort indices by value; single-linkage over sorted order is exact for
  // 1-D data.
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });

  Group current;
  current.members.push_back(order[0]);
  double sum = values[order[0]];
  for (size_t i = 1; i < order.size(); ++i) {
    const double prev = values[order[i - 1]];
    const double next = values[order[i]];
    if (next - prev <= GapLimit(prev, next, options)) {
      current.members.push_back(order[i]);
      sum += next;
    } else {
      current.mean = sum / static_cast<double>(current.members.size());
      result.groups.push_back(std::move(current));
      current = Group{};
      current.members.push_back(order[i]);
      sum = next;
    }
  }
  current.mean = sum / static_cast<double>(current.members.size());
  result.groups.push_back(std::move(current));

  std::sort(result.groups.begin(), result.groups.end(),
            [](const Group& a, const Group& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.mean < b.mean;
            });
  return result;
}

Result<Group> SelectWinningGroup(const GroupingResult& grouping,
                                 std::span<const double> values,
                                 const double* previous_output) {
  if (grouping.groups.empty()) {
    return InvalidArgumentError("no groups to select from");
  }
  const size_t top_size = grouping.groups.front().size();
  // Collect all groups tied for the largest size.
  std::vector<const Group*> tied;
  for (const Group& g : grouping.groups) {
    if (g.size() == top_size) tied.push_back(&g);
  }
  if (tied.size() == 1) return *tied.front();

  double reference;
  if (previous_output != nullptr) {
    reference = *previous_output;
  } else {
    // Median of all candidate values as a neutral reference.
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    reference = (n % 2 == 1) ? sorted[n / 2]
                             : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
  const Group* best = tied.front();
  double best_distance = std::abs(best->mean - reference);
  for (const Group* g : tied) {
    const double distance = std::abs(g->mean - reference);
    if (distance < best_distance) {
      best = g;
      best_distance = distance;
    }
  }
  return *best;
}

}  // namespace oracle

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// One randomized input: 1..64 values drawn from a mix of generators that
// hit the parity edges — duplicates, signed zeros, gaps exactly at the
// threshold, equal-size groups (size ties), NaN and infinities.
struct LinkageCase {
  std::vector<double> values;
  GroupingOptions options;
  bool has_previous = false;
  double previous = 0.0;
};

LinkageCase DrawLinkageCase(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  LinkageCase c;
  const size_t n = 1 + rng.UniformInt(64);
  c.options.mode = rng.Bernoulli(0.5) ? ThresholdMode::kAbsolute
                                      : ThresholdMode::kRelative;
  // Binary-exact thresholds so grid gaps land exactly on the limit.
  const double thresholds[] = {0.0, 0.03125, 0.25, 0.5, 1.0, 2.0};
  c.options.threshold = rng.Bernoulli(0.7)
                            ? thresholds[rng.UniformInt(6)]
                            : rng.Uniform(0.0, 3.0);
  if (rng.Bernoulli(0.2)) c.options.relative_floor = 1.0;

  switch (rng.UniformInt(5)) {
    case 0:  // continuous values, both signs
      for (size_t i = 0; i < n; ++i) c.values.push_back(rng.Uniform(-50, 50));
      break;
    case 1: {  // a coarse grid: duplicates and gaps exactly at threshold
      const double step = c.options.threshold > 0.0 ? c.options.threshold
                                                    : 0.5;
      for (size_t i = 0; i < n; ++i) {
        c.values.push_back(step * (static_cast<double>(rng.UniformInt(9)) -
                                   4.0));
      }
      break;
    }
    case 2:  // powers of two: exact relative gaps (b - a == t * |b|)
      for (size_t i = 0; i < n; ++i) {
        const double magnitude = std::ldexp(1.0, static_cast<int>(
                                                     rng.UniformInt(6)));
        c.values.push_back(rng.Bernoulli(0.3) ? -magnitude : magnitude);
      }
      break;
    case 3: {  // equal-size, well-separated blocks: size ties
      const size_t blocks = 1 + rng.UniformInt(4);
      for (size_t i = 0; i < n; ++i) {
        const double center = 100.0 * static_cast<double>(i % blocks) - 150.0;
        c.values.push_back(center + 0.001 * static_cast<double>(
                                                rng.UniformInt(3)));
      }
      break;
    }
    default:  // small integers around zero with signed zeros
      for (size_t i = 0; i < n; ++i) {
        const double v = static_cast<double>(rng.UniformInt(7)) - 3.0;
        c.values.push_back(v == 0.0 && rng.Bernoulli(0.5) ? -0.0 : v);
      }
      break;
  }
  // Sprinkle specials into a share of the cases.
  if (rng.Bernoulli(0.3)) {
    const double specials[] = {kNaN, kInf, -kInf, -0.0, 0.0};
    const size_t count = 1 + rng.UniformInt(3);
    for (size_t k = 0; k < count; ++k) {
      c.values[rng.UniformInt(c.values.size())] = specials[rng.UniformInt(5)];
    }
  }
  if (rng.Bernoulli(0.5)) {
    c.has_previous = true;
    c.previous = rng.Bernoulli(0.1) ? c.values[rng.UniformInt(n)]
                                    : rng.Uniform(-200, 200);
  }
  return c;
}

TEST(LinkageDifferentialTest, MatchesTheSortThenChainGroupingBitForBit) {
  Rng rng(20221107);
  LinkageScratch scratch;  // reused across cases, like a VoteContext's
  size_t ties = 0;
  size_t nonfinite = 0;
  constexpr int kCases = 12000;
  for (int i = 0; i < kCases; ++i) {
    const LinkageCase c = DrawLinkageCase(rng);
    const std::span<const double> values(c.values);
    const double* prev = c.has_previous ? &c.previous : nullptr;
    SCOPED_TRACE(::testing::Message() << "case " << i << ", n=" << values.size());

    const GroupingResult want = oracle::GroupByThreshold(values, c.options);
    const GroupingResult got = GroupByThreshold(values, c.options);
    ASSERT_EQ(got.groups.size(), want.groups.size());
    for (size_t g = 0; g < want.groups.size(); ++g) {
      ASSERT_EQ(got.groups[g].members, want.groups[g].members) << "group " << g;
      ASSERT_TRUE(SameBits(got.groups[g].mean, want.groups[g].mean))
          << "group " << g << ": " << got.groups[g].mean << " vs "
          << want.groups[g].mean;
    }
    ties += want.groups.size() > 1 &&
            want.groups[1].size() == want.groups[0].size();
    nonfinite += std::any_of(c.values.begin(), c.values.end(),
                             [](double v) { return !std::isfinite(v); });

    const Result<Group> want_winner =
        oracle::SelectWinningGroup(want, values, prev);
    const Result<Group> got_winner = SelectWinningGroup(got, values, prev);
    ASSERT_TRUE(want_winner.ok());
    ASSERT_TRUE(got_winner.ok());
    ASSERT_EQ(got_winner->members, want_winner->members);
    ASSERT_TRUE(SameBits(got_winner->mean, want_winner->mean));

    // The kernel path the engine's clustering stage takes.
    LinkByThreshold(values, c.options, scratch);
    ASSERT_EQ(scratch.runs.size(), want.groups.size());
    const LinkageRun& run = scratch.runs[WinningRun(values, scratch, prev)];
    const std::vector<size_t> members(scratch.order.begin() + run.begin,
                                      scratch.order.begin() + run.end);
    ASSERT_EQ(members, want_winner->members);
    ASSERT_TRUE(SameBits(run.mean, want_winner->mean));
  }
  // The generators really reach the edges the comparison is about.
  EXPECT_GT(ties, kCases / 10);
  EXPECT_GT(nonfinite, kCases / 10);
}

TEST(LinkageDifferentialTest, EmptyInputYieldsNoRuns) {
  LinkageScratch scratch;
  scratch.runs.push_back({0, 1, 1.0});
  LinkByThreshold({}, GroupingOptions{}, scratch);
  EXPECT_TRUE(scratch.order.empty());
  EXPECT_TRUE(scratch.runs.empty());
}

}  // namespace
}  // namespace avoc::cluster
