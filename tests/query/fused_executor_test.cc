/// \file fused_executor_test.cc
/// \brief Fused multi-query determinism: ExecuteFused over a compatible
/// group must be bitwise identical, member for member, to running each
/// query alone (its group of one) — across group sizes 1..4, worker
/// counts, shard counts, single- and multi-tile canvases, and both raster
/// variants, §5 result ranges included.
///
/// Weights are integer-valued floats, the exactly-representable regime the
/// determinism guarantee covers (see merge_partials.h); COUNT/MIN/MAX are
/// exact unconditionally.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "gpu/device_pool.h"
#include "join/raster_join_bounded.h"
#include "query/executor.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

constexpr std::size_t kBudget = 32u << 20;
constexpr std::int32_t kFboDim = 1024;

struct JoinSetup {
  PolygonSet polys;
  PointTable points;
};

JoinSetup MakeSetup(std::size_t num_polys, std::size_t num_points,
                    std::uint64_t seed) {
  JoinSetup s;
  const BBox world(0, 0, 1000, 1000);
  auto polys = TinyRegions(num_polys, world, seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  Rng rng(seed * 131 + 5);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::DeviceOptions DevOptions(std::size_t num_workers) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = kFboDim;
  options.memory_budget_bytes = kBudget;
  options.num_workers = num_workers;
  return options;
}

void ExpectIdenticalResults(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const bool both_nan = std::isnan(a.values[i]) && std::isnan(b.values[i]);
    if (!both_nan) {
      EXPECT_EQ(a.values[i], b.values[i]) << "value slot " << i;
    }
    EXPECT_EQ(a.arrays.count[i], b.arrays.count[i]) << "count slot " << i;
    EXPECT_EQ(a.arrays.sum[i], b.arrays.sum[i]) << "sum slot " << i;
    EXPECT_EQ(a.arrays.min[i], b.arrays.min[i]) << "min slot " << i;
    EXPECT_EQ(a.arrays.max[i], b.arrays.max[i]) << "max slot " << i;
  }
  ASSERT_EQ(a.ranges.loose.size(), b.ranges.loose.size());
  for (std::size_t i = 0; i < a.ranges.loose.size(); ++i) {
    EXPECT_EQ(a.ranges.loose[i].lower, b.ranges.loose[i].lower);
    EXPECT_EQ(a.ranges.loose[i].upper, b.ranges.loose[i].upper);
    EXPECT_EQ(a.ranges.expected[i].lower, b.ranges.expected[i].lower);
    EXPECT_EQ(a.ranges.expected[i].upper, b.ranges.expected[i].upper);
  }
}

AttributeFilter F(std::size_t column, FilterOp op, float value) {
  AttributeFilter f;
  f.column = column;
  f.op = op;
  f.value = value;
  return f;
}

/// A 4-member bounded group sharing ε=8: members diverge only in the
/// per-query axes fusion supports — aggregate, filter, and §5 ranges.
/// ε=8 → canvas 125×125, single tile, so the ranges member exercises the
/// §5 path inside a fused scan.
std::vector<SpatialAggQuery> BoundedGroup() {
  std::vector<SpatialAggQuery> group;

  SpatialAggQuery count;
  count.variant = JoinVariant::kBoundedRaster;
  count.epsilon = 8.0;
  group.push_back(count);

  SpatialAggQuery sum;
  sum.variant = JoinVariant::kBoundedRaster;
  sum.epsilon = 8.0;
  sum.aggregate = AggregateKind::kSum;
  sum.aggregate_column = 0;
  group.push_back(sum);

  SpatialAggQuery filtered_avg;
  filtered_avg.variant = JoinVariant::kBoundedRaster;
  filtered_avg.epsilon = 8.0;
  filtered_avg.aggregate = AggregateKind::kAverage;
  filtered_avg.aggregate_column = 0;
  EXPECT_TRUE(
      filtered_avg.filters.Add(F(0, FilterOp::kGreater, 30.0f)).ok());
  group.push_back(filtered_avg);

  SpatialAggQuery count_ranges;
  count_ranges.variant = JoinVariant::kBoundedRaster;
  count_ranges.epsilon = 8.0;
  count_ranges.with_result_ranges = true;
  group.push_back(count_ranges);

  return group;
}

/// A 4-member accurate group sharing canvas_dim=512.
std::vector<SpatialAggQuery> AccurateGroup() {
  std::vector<SpatialAggQuery> group;

  SpatialAggQuery count;
  count.variant = JoinVariant::kAccurateRaster;
  count.accurate_canvas_dim = 512;
  group.push_back(count);

  SpatialAggQuery sum;
  sum.variant = JoinVariant::kAccurateRaster;
  sum.accurate_canvas_dim = 512;
  sum.aggregate = AggregateKind::kSum;
  sum.aggregate_column = 0;
  group.push_back(sum);

  SpatialAggQuery filtered_min;
  filtered_min.variant = JoinVariant::kAccurateRaster;
  filtered_min.accurate_canvas_dim = 512;
  filtered_min.aggregate = AggregateKind::kMin;
  filtered_min.aggregate_column = 0;
  EXPECT_TRUE(filtered_min.filters.Add(F(0, FilterOp::kLess, 70.0f)).ok());
  group.push_back(filtered_min);

  SpatialAggQuery max;
  max.variant = JoinVariant::kAccurateRaster;
  max.accurate_canvas_dim = 512;
  max.aggregate = AggregateKind::kMax;
  max.aggregate_column = 0;
  group.push_back(max);

  return group;
}

/// Ground truth: every member run alone (its group of one) on a 1-worker
/// device, the configuration every other sweep must reproduce bitwise.
std::vector<QueryResult> Baseline(const JoinSetup& s,
                                  const std::vector<SpatialAggQuery>& group) {
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);
  std::vector<QueryResult> results;
  for (const SpatialAggQuery& q : group) {
    auto r = executor.ExecuteUncached(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).MoveValueUnsafe());
  }
  return results;
}

void ExpectFusedMatchesBaseline(Executor& executor,
                                const std::vector<SpatialAggQuery>& group,
                                const std::vector<QueryResult>& expected) {
  // Every prefix 1..group.size() is its own fusion group: size 1 pins the
  // degenerate path, larger sizes grow the member set one axis at a time.
  for (std::size_t n = 1; n <= group.size(); ++n) {
    const std::vector<SpatialAggQuery> prefix(group.begin(),
                                              group.begin() + n);
    auto fused = executor.ExecuteFused(prefix);
    ASSERT_TRUE(fused.ok()) << "group size " << n << ": "
                            << fused.status().ToString();
    ASSERT_EQ(fused.value().size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("group size " + std::to_string(n) + " member " +
                   std::to_string(i));
      ExpectIdenticalResults(expected[i], fused.value()[i]);
    }
  }
}

class FusedDeterminismTest
    : public ::testing::TestWithParam<std::size_t> {};  // num_workers

TEST_P(FusedDeterminismTest, BoundedGroupMatchesUnfusedBaseline) {
  const JoinSetup s = MakeSetup(8, 12000, 31);
  const std::vector<SpatialAggQuery> group = BoundedGroup();
  const std::vector<QueryResult> expected = Baseline(s, group);

  gpu::Device device(DevOptions(GetParam()));
  Executor executor(&device, &s.points, &s.polys);
  ExpectFusedMatchesBaseline(executor, group, expected);
}

TEST_P(FusedDeterminismTest, AccurateGroupMatchesUnfusedBaseline) {
  const JoinSetup s = MakeSetup(8, 12000, 32);
  const std::vector<SpatialAggQuery> group = AccurateGroup();
  const std::vector<QueryResult> expected = Baseline(s, group);

  gpu::Device device(DevOptions(GetParam()));
  Executor executor(&device, &s.points, &s.polys);
  ExpectFusedMatchesBaseline(executor, group, expected);
}

TEST_P(FusedDeterminismTest, ShardedFusionMatchesUnfusedBaseline) {
  const JoinSetup s = MakeSetup(6, 9000, 33);
  const std::vector<SpatialAggQuery> bounded = BoundedGroup();
  const std::vector<SpatialAggQuery> accurate = AccurateGroup();
  const std::vector<QueryResult> expected_bounded = Baseline(s, bounded);
  const std::vector<QueryResult> expected_accurate = Baseline(s, accurate);

  for (const std::size_t shards : {1, 2}) {
    data::ShardingOptions sharding;
    sharding.num_shards = shards;
    auto table = data::ShardedTable::Partition(s.points, sharding);
    ASSERT_TRUE(table.ok());

    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = shards;
    pool_options.device = DevOptions(GetParam());
    gpu::DevicePool pool(pool_options);
    Executor executor(&pool, &table.value(), &s.polys);

    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectFusedMatchesBaseline(executor, bounded, expected_bounded);
    ExpectFusedMatchesBaseline(executor, accurate, expected_accurate);
  }
}

TEST_P(FusedDeterminismTest, MultiTileGroupMatchesGroupsOfOneAndTableForm) {
  // max_fbo_dim 128 at ε=4 tiles the canvas 3×3, so the group re-streams
  // its points once per tile (per-tile member leases plus
  // BatchPipeline::Rewind). The §5 ranges member needs a single tile and
  // stays out.
  const JoinSetup s = MakeSetup(8, 12000, 41);
  std::vector<SpatialAggQuery> group = BoundedGroup();
  group.pop_back();  // count_ranges
  for (SpatialAggQuery& q : group) q.epsilon = 4.0;

  gpu::DeviceOptions options = DevOptions(GetParam());
  options.max_fbo_dim = 128;
  gpu::Device device(options);
  Executor executor(&device, &s.points, &s.polys);
  auto soup = TriangulatePolygonSet(s.polys);
  ASSERT_TRUE(soup.ok());

  auto fused = executor.ExecuteFused(group);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused.value().size(), group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    auto solo = executor.ExecuteFused({group[i]});
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    ExpectIdenticalResults(solo.value()[0], fused.value()[i]);

    BoundedRasterJoinOptions table;
    table.epsilon = group[i].epsilon;
    table.weight_column = group[i].EffectiveAggregateColumn();
    table.filters = group[i].filters;
    BoundedRasterJoinStats stats;
    auto joined = BoundedRasterJoin(&device, s.points, s.polys, soup.value(),
                                    executor.world(), table, &stats);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(stats.num_tiles, 9u);
    const raster::ResultArrays& a = joined.value().arrays;
    const raster::ResultArrays& b = fused.value()[i].arrays;
    ASSERT_EQ(a.count.size(), b.count.size());
    for (std::size_t p = 0; p < a.count.size(); ++p) {
      EXPECT_EQ(a.count[p], b.count[p]) << "count slot " << p;
      EXPECT_EQ(a.sum[p], b.sum[p]) << "sum slot " << p;
      EXPECT_EQ(a.min[p], b.min[p]) << "min slot " << p;
      EXPECT_EQ(a.max[p], b.max[p]) << "max slot " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, FusedDeterminismTest,
                         ::testing::Values(1, 4, 8),
                         [](const auto& info) {
                           return "Workers" + std::to_string(info.param);
                         });

/// Several aggregates over one scan, two weight columns wide: COUNT, SUM,
/// AVG, MIN and MAX of one attribute, AVG of a second, and a filter shared
/// by two members. Fractional weights (fares, distances): fused and solo
/// runs on the same executor accumulate in the same order, so each member
/// must still match its solo run bitwise.
TEST(FusedExecutorTest, MultiAggregateGroupOverTwoColumnsMatchesSoloRuns) {
  auto polys = TinyRegions(8, BBox(0, 0, 500, 500), 141);
  ASSERT_TRUE(polys.ok());
  PointTable points;
  points.AddAttribute("fare");
  points.AddAttribute("distance");
  Rng rng(142);
  for (int i = 0; i < 8000; ++i) {
    points.Append(rng.Uniform(0, 500), rng.Uniform(0, 500),
                  {static_cast<float>(rng.Uniform(1, 50)),
                   static_cast<float>(rng.Uniform(0.1, 20))});
  }

  for (const JoinVariant variant :
       {JoinVariant::kAccurateRaster, JoinVariant::kBoundedRaster}) {
    std::vector<SpatialAggQuery> group;
    const auto add = [&](AggregateKind kind, std::size_t column) {
      SpatialAggQuery q;
      q.variant = variant;
      q.epsilon = 4.0;
      q.aggregate = kind;
      q.aggregate_column = column;
      group.push_back(q);
    };
    add(AggregateKind::kCount, PointTable::npos);
    add(AggregateKind::kSum, 0);
    add(AggregateKind::kAverage, 0);
    add(AggregateKind::kMin, 0);
    add(AggregateKind::kMax, 0);
    add(AggregateKind::kAverage, 1);
    add(AggregateKind::kCount, PointTable::npos);
    add(AggregateKind::kSum, 0);
    for (std::size_t i = group.size() - 2; i < group.size(); ++i) {
      ASSERT_TRUE(
          group[i].filters.Add(F(0, FilterOp::kGreater, 25.0f)).ok());
    }

    for (const std::size_t workers : {1, 8}) {
      SCOPED_TRACE(JoinVariantName(variant) + " workers=" +
                   std::to_string(workers));
      gpu::Device device(DevOptions(workers));
      Executor executor(&device, &points, &polys.value());
      auto fused = executor.ExecuteFused(group);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      ASSERT_EQ(fused.value().size(), group.size());
      for (std::size_t i = 0; i < group.size(); ++i) {
        SCOPED_TRACE("member " + std::to_string(i));
        auto solo = executor.ExecuteUncached(group[i]);
        ASSERT_TRUE(solo.ok()) << solo.status().ToString();
        ExpectIdenticalResults(solo.value(), fused.value()[i]);
      }
    }
  }
}

TEST(FusedExecutorTest, GrantCappedFusionStaysIdentical) {
  // A tiny shared grant forces multi-batch out-of-core fused scans;
  // per-member accumulation must be insensitive to batch boundaries.
  const JoinSetup s = MakeSetup(5, 9000, 34);
  std::vector<SpatialAggQuery> group = BoundedGroup();
  const std::vector<QueryResult> expected = Baseline(s, group);

  gpu::Device device(DevOptions(2));
  Executor executor(&device, &s.points, &s.polys);
  for (SpatialAggQuery& q : group) {
    q.device_memory_cap_bytes = 64 << 10;  // ~5k points per batch pair
  }
  ExpectFusedMatchesBaseline(executor, group, expected);
}

TEST(FusedExecutorTest, EmptyGroupIsRejected) {
  const JoinSetup s = MakeSetup(3, 200, 35);
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);
  EXPECT_FALSE(executor.ExecuteFused({}).ok());
}

TEST(FusedExecutorTest, MemberWithoutAggregateColumnIsRejected) {
  // SUM needs a column; one invalid member fails the whole group.
  const JoinSetup s = MakeSetup(3, 200, 40);
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);

  std::vector<SpatialAggQuery> group = BoundedGroup();
  group[1].aggregate_column = PointTable::npos;
  auto r = executor.ExecuteFused(group);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FusedExecutorTest, MixedEpsilonGroupIsRejected) {
  // Different ε ⇒ different canvases ⇒ no shared scan. The group must be
  // rejected outright, never silently executed on one member's canvas.
  const JoinSetup s = MakeSetup(3, 200, 36);
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);

  std::vector<SpatialAggQuery> group = BoundedGroup();
  group[1].epsilon = 12.0;
  auto r = executor.ExecuteFused(group);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FusedExecutorTest, MixedVariantGroupIsRejected) {
  const JoinSetup s = MakeSetup(3, 200, 37);
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);

  std::vector<SpatialAggQuery> group = BoundedGroup();
  group.push_back(AccurateGroup()[0]);
  EXPECT_FALSE(executor.ExecuteFused(group).ok());
}

TEST(FusedExecutorTest, IndexVariantGroupIsRejected) {
  // Fusion shares a raster scan; the index baselines have no raster to
  // share and must fall back to solo execution at the service layer.
  const JoinSetup s = MakeSetup(3, 200, 38);
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);

  SpatialAggQuery a;
  a.variant = JoinVariant::kIndexDevice;
  SpatialAggQuery b = a;
  b.aggregate = AggregateKind::kSum;
  b.aggregate_column = 0;
  EXPECT_FALSE(executor.ExecuteFused({a, b}).ok());
}

TEST(FusedExecutorTest, FusedAdmissionCoversTheUnionOfColumns) {
  // The fused upload carries the union of member weight columns, so the
  // fused plan's stride must be ≥ any member's solo stride.
  const JoinSetup s = MakeSetup(4, 3000, 39);
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);

  const std::vector<SpatialAggQuery> group = BoundedGroup();
  auto fused_plan = executor.PlanFusedAdmission(group);
  ASSERT_TRUE(fused_plan.ok()) << fused_plan.status().ToString();
  for (const SpatialAggQuery& q : group) {
    auto solo = executor.PlanAdmission(q);
    ASSERT_TRUE(solo.ok());
    EXPECT_GE(fused_plan.value().bytes_per_point,
              solo.value().bytes_per_point);
    EXPECT_GE(fused_plan.value().full_bytes, solo.value().min_bytes);
  }
}

}  // namespace
}  // namespace rj
