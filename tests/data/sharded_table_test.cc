/// \file sharded_table_test.cc
/// \brief data::ShardedTable partitioning: balance, row preservation,
/// determinism, and Hilbert-curve locality.
#include "data/sharded_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace rj::data {
namespace {

PointTable MakeTable(std::size_t n, std::uint64_t seed) {
  PointTable t;
  t.AddAttribute("w");
  t.AddAttribute("v");
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t.Append(rng.Uniform(0, 100), rng.Uniform(0, 50),
             {static_cast<float>(i), static_cast<float>(rng.UniformInt(10))});
  }
  return t;
}

/// Multiset of rows, attribute values included, for union comparisons.
std::multiset<std::tuple<double, double, float, float>> Rows(
    const PointTable& t) {
  std::multiset<std::tuple<double, double, float, float>> rows;
  for (std::size_t i = 0; i < t.size(); ++i) {
    rows.insert({t.xs()[i], t.ys()[i], t.attribute(0)[i], t.attribute(1)[i]});
  }
  return rows;
}

TEST(ShardedTableTest, ZeroShardsIsError) {
  ShardingOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(ShardedTable::Partition(MakeTable(10, 1), options).ok());
}

TEST(ShardedTableTest, RoundRobinBalancesAndPreservesRows) {
  const PointTable base = MakeTable(103, 2);
  ShardingOptions options;
  options.num_shards = 4;
  options.policy = ShardPolicy::kRoundRobin;
  auto sharded = ShardedTable::Partition(base, options);
  ASSERT_TRUE(sharded.ok());
  const ShardedTable& t = sharded.value();

  ASSERT_EQ(t.num_shards(), 4u);
  EXPECT_EQ(t.total_points(), 103u);

  std::multiset<std::tuple<double, double, float, float>> all;
  std::size_t total = 0;
  for (std::size_t s = 0; s < t.num_shards(); ++s) {
    // Balanced: shard sizes differ by at most one.
    EXPECT_GE(t.shard(s).size(), 103u / 4);
    EXPECT_LE(t.shard(s).size(), 103u / 4 + 1);
    EXPECT_EQ(t.shard(s).num_attributes(), 2u);
    EXPECT_EQ(t.shard(s).attribute_name(0), "w");
    total += t.shard(s).size();
    const auto rows = Rows(t.shard(s));
    all.insert(rows.begin(), rows.end());
  }
  EXPECT_EQ(total, base.size());
  EXPECT_EQ(t.max_shard_points(), 26u);
  EXPECT_EQ(all, Rows(base));  // no row lost, duplicated, or mutated
}

TEST(ShardedTableTest, RoundRobinAssignsByIndexModulo) {
  const PointTable base = MakeTable(9, 3);
  ShardingOptions options;
  options.num_shards = 3;
  auto sharded = ShardedTable::Partition(base, options);
  ASSERT_TRUE(sharded.ok());
  // Shard s holds rows s, s+3, s+6 in original order (the attribute(0)
  // column stores the original index).
  for (std::size_t s = 0; s < 3; ++s) {
    const PointTable& shard = sharded.value().shard(s);
    ASSERT_EQ(shard.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(shard.attribute(0)[k], static_cast<float>(s + 3 * k));
    }
  }
}

TEST(ShardedTableTest, HilbertBalancesAndPreservesRows) {
  const PointTable base = MakeTable(250, 4);
  ShardingOptions options;
  options.num_shards = 3;
  options.policy = ShardPolicy::kHilbert;
  auto sharded = ShardedTable::Partition(base, options);
  ASSERT_TRUE(sharded.ok());
  const ShardedTable& t = sharded.value();

  std::multiset<std::tuple<double, double, float, float>> all;
  for (std::size_t s = 0; s < t.num_shards(); ++s) {
    // Quantile cuts land within a few rows of perfect balance on uniform
    // data (exact up to duplicate Hilbert keys at the cut ranks).
    EXPECT_GE(t.shard(s).size() + 5, 250u / 3);
    EXPECT_LE(t.shard(s).size(), 250u / 3 + 5);
    const auto rows = Rows(t.shard(s));
    all.insert(rows.begin(), rows.end());
  }
  EXPECT_EQ(all, Rows(base));
}

/// A Zipf-clustered dataset: cluster k holds ~(k+1)^-2 of the mass, so one
/// tight cluster carries ~65% of all rows. The shape that breaks spatially
/// uniform cuts.
PointTable MakeZipfClustered(std::size_t n, std::uint64_t seed) {
  PointTable t;
  t.AddAttribute("w");
  t.AddAttribute("v");
  Rng rng(seed);
  constexpr std::size_t kClusters = 8;
  double weights[kClusters];
  double total = 0;
  for (std::size_t k = 0; k < kClusters; ++k) {
    weights[k] = 1.0 / ((k + 1.0) * (k + 1.0));
    total += weights[k];
  }
  // Deterministic, well-separated centers over a 100×50 extent.
  const double cx[kClusters] = {12, 88, 35, 62, 8, 95, 50, 25};
  const double cy[kClusters] = {40, 8, 22, 45, 10, 35, 5, 48};
  for (std::size_t k = 0; k < kClusters; ++k) {
    const auto rows = static_cast<std::size_t>(n * weights[k] / total);
    for (std::size_t i = 0; i < rows; ++i) {
      t.Append(rng.Uniform(cx[k] - 1.0, cx[k] + 1.0),
               rng.Uniform(cy[k] - 1.0, cy[k] + 1.0),
               {static_cast<float>(i), static_cast<float>(k)});
    }
  }
  return t;
}

TEST(ShardedTableTest, QuantileCutsBalanceZipfClusteredData) {
  const PointTable base = MakeZipfClustered(4000, 11);
  ShardingOptions options;
  options.num_shards = 4;
  options.policy = ShardPolicy::kHilbert;
  options.cut_mode = HilbertCutMode::kQuantile;
  auto sharded = ShardedTable::Partition(base, options);
  ASSERT_TRUE(sharded.ok());
  const double balanced =
      static_cast<double>(base.size()) / options.num_shards;
  for (std::size_t s = 0; s < 4; ++s) {
    const auto size = static_cast<double>(sharded.value().shard(s).size());
    EXPECT_GE(size, 0.9 * balanced) << "shard " << s;
    EXPECT_LE(size, 1.1 * balanced) << "shard " << s;
  }
}

TEST(ShardedTableTest, EqualRangeCutsAreUnbalancedOnZipfClusteredData) {
  // The legacy baseline: equal key-space ranges put the dominant cluster
  // (~65% of rows, one compact key run) into a single shard.
  const PointTable base = MakeZipfClustered(4000, 11);
  ShardingOptions options;
  options.num_shards = 4;
  options.policy = ShardPolicy::kHilbert;
  options.cut_mode = HilbertCutMode::kEqualRange;
  auto sharded = ShardedTable::Partition(base, options);
  ASSERT_TRUE(sharded.ok());
  const double balanced =
      static_cast<double>(base.size()) / options.num_shards;
  std::size_t largest = 0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    largest = std::max(largest, sharded.value().shard(s).size());
    total += sharded.value().shard(s).size();
  }
  EXPECT_EQ(total, base.size());  // still a partition
  EXPECT_GT(static_cast<double>(largest), 1.5 * balanced);
}

TEST(ShardedTableTest, ShardZonesCoverExactlyTheirRows) {
  const PointTable base = MakeTable(300, 12);
  for (const ShardPolicy policy :
       {ShardPolicy::kRoundRobin, ShardPolicy::kHilbert}) {
    ShardingOptions options;
    options.num_shards = 3;
    options.policy = policy;
    auto sharded = ShardedTable::Partition(base, options);
    ASSERT_TRUE(sharded.ok());
    for (std::size_t s = 0; s < 3; ++s) {
      const PointTable& shard = sharded.value().shard(s);
      const BlockZoneMap& zone = sharded.value().shard_zone(s);
      const BBox shard_extent = shard.Extent();
      EXPECT_EQ(zone.bbox.min_x, shard_extent.min_x);
      EXPECT_EQ(zone.bbox.max_x, shard_extent.max_x);
      EXPECT_EQ(zone.bbox.min_y, shard_extent.min_y);
      EXPECT_EQ(zone.bbox.max_y, shard_extent.max_y);
      ASSERT_EQ(zone.col_min.size(), 2u);
      float lo = std::numeric_limits<float>::infinity();
      float hi = -std::numeric_limits<float>::infinity();
      for (const float v : shard.attribute(1)) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      EXPECT_EQ(zone.col_min[1], lo);
      EXPECT_EQ(zone.col_max[1], hi);
    }
  }
}

/// Every shard's extent is cached at partition time (a per-query block
/// source over the shard then reads it in O(1)) and equals both its zone
/// map's bbox and a fresh scan of its rows — empty shards included.
TEST(ShardedTableTest, ShardExtentsAreCachedAndEqualTheirZones) {
  for (const std::size_t n : {std::size_t{300}, std::size_t{2}}) {
    const PointTable base = MakeTable(n, 14);
    for (const ShardPolicy policy :
         {ShardPolicy::kRoundRobin, ShardPolicy::kHilbert}) {
      ShardingOptions options;
      options.num_shards = 4;
      options.policy = policy;
      auto sharded = ShardedTable::Partition(base, options);
      ASSERT_TRUE(sharded.ok());
      for (std::size_t s = 0; s < 4; ++s) {
        const PointTable& shard = sharded.value().shard(s);
        BBox scanned;
        for (std::size_t i = 0; i < shard.size(); ++i) {
          scanned.Expand(shard.At(i));
        }
        EXPECT_TRUE(shard.extent_cached()) << "shard " << s;
        EXPECT_TRUE(shard.Extent() == scanned) << "shard " << s;
        EXPECT_TRUE(shard.Extent() == sharded.value().shard_zone(s).bbox)
            << "shard " << s;
        const TableBlockSource source(&shard, std::max<std::size_t>(n, 1));
        EXPECT_TRUE(source.extent() == scanned) << "shard " << s;
      }
    }
  }
}

TEST(ShardedTableTest, EmptyShardsCarryEmptyZones) {
  const PointTable base = MakeTable(2, 13);
  ShardingOptions options;
  options.num_shards = 5;
  options.policy = ShardPolicy::kHilbert;
  auto sharded = ShardedTable::Partition(base, options);
  ASSERT_TRUE(sharded.ok());
  for (std::size_t s = 0; s < 5; ++s) {
    if (sharded.value().shard(s).size() != 0) continue;
    const BlockZoneMap& zone = sharded.value().shard_zone(s);
    EXPECT_GT(zone.bbox.min_x, zone.bbox.max_x);  // canonical empty BBox
  }
}

TEST(ShardedTableTest, HilbertShardsAreSpatiallyCompact) {
  // Range partitioning along the curve should give each shard a smaller
  // footprint than the whole extent; round-robin spreads every shard over
  // everything. Compare total shard-extent area across policies.
  const PointTable base = MakeTable(2000, 5);
  auto area_sum = [&](ShardPolicy policy) {
    ShardingOptions options;
    options.num_shards = 4;
    options.policy = policy;
    auto sharded = ShardedTable::Partition(base, options);
    EXPECT_TRUE(sharded.ok());
    double sum = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      sum += sharded.value().shard(s).Extent().Area();
    }
    return sum;
  };
  // Hilbert shards cover well under half the area round-robin shards do
  // on uniform data (each of 4 curve quarters is a compact region).
  EXPECT_LT(area_sum(ShardPolicy::kHilbert),
            0.5 * area_sum(ShardPolicy::kRoundRobin));
}

TEST(ShardedTableTest, ExtentIsTheWholeDatasetExtent) {
  const PointTable base = MakeTable(100, 6);
  ShardingOptions options;
  options.num_shards = 4;
  options.policy = ShardPolicy::kHilbert;
  auto sharded = ShardedTable::Partition(base, options);
  ASSERT_TRUE(sharded.ok());
  const BBox base_extent = base.Extent();
  const BBox& shard_extent = sharded.value().extent();
  EXPECT_EQ(shard_extent.min_x, base_extent.min_x);
  EXPECT_EQ(shard_extent.max_x, base_extent.max_x);
  EXPECT_EQ(shard_extent.min_y, base_extent.min_y);
  EXPECT_EQ(shard_extent.max_y, base_extent.max_y);
}

TEST(ShardedTableTest, MoreShardsThanPointsLeavesEmptyShards) {
  const PointTable base = MakeTable(2, 7);
  for (const ShardPolicy policy :
       {ShardPolicy::kRoundRobin, ShardPolicy::kHilbert}) {
    ShardingOptions options;
    options.num_shards = 5;
    options.policy = policy;
    auto sharded = ShardedTable::Partition(base, options);
    ASSERT_TRUE(sharded.ok());
    std::size_t total = 0;
    for (std::size_t s = 0; s < 5; ++s) {
      total += sharded.value().shard(s).size();
    }
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(sharded.value().num_shards(), 5u);
  }
}

TEST(ShardedTableTest, EmptyTablePartitions) {
  PointTable base;
  ShardingOptions options;
  options.num_shards = 3;
  auto sharded = ShardedTable::Partition(base, options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.value().total_points(), 0u);
  EXPECT_EQ(sharded.value().max_shard_points(), 0u);
}

TEST(ShardedTableTest, PartitionIsDeterministic) {
  const PointTable base = MakeTable(500, 8);
  for (const ShardPolicy policy :
       {ShardPolicy::kRoundRobin, ShardPolicy::kHilbert}) {
    for (const HilbertCutMode mode :
         {HilbertCutMode::kQuantile, HilbertCutMode::kEqualRange}) {
      ShardingOptions options;
      options.num_shards = 3;
      options.policy = policy;
      options.cut_mode = mode;
      auto a = ShardedTable::Partition(base, options);
      auto b = ShardedTable::Partition(base, options);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      for (std::size_t s = 0; s < 3; ++s) {
        ASSERT_EQ(a.value().shard(s).size(), b.value().shard(s).size());
        EXPECT_EQ(a.value().shard(s).xs(), b.value().shard(s).xs());
        EXPECT_EQ(a.value().shard(s).ys(), b.value().shard(s).ys());
      }
    }
  }
}

TEST(HilbertIndexTest, IsABijectionOnTheGrid) {
  // Order 3: 8×8 grid; the 64 indices must be exactly 0..63.
  std::set<std::uint64_t> seen;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      seen.insert(HilbertIndex(3, x, y));
    }
  }
  ASSERT_EQ(seen.size(), 64u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 63u);
}

TEST(HilbertIndexTest, ConsecutiveIndicesAreGridNeighbors) {
  // The defining locality property of the curve: cells d and d+1 are
  // always 4-adjacent (Manhattan distance 1).
  const std::uint32_t order = 4;  // 16×16
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cell_of(256);
  for (std::uint32_t x = 0; x < 16; ++x) {
    for (std::uint32_t y = 0; y < 16; ++y) {
      cell_of[HilbertIndex(order, x, y)] = {x, y};
    }
  }
  for (std::size_t d = 0; d + 1 < cell_of.size(); ++d) {
    const auto [x0, y0] = cell_of[d];
    const auto [x1, y1] = cell_of[d + 1];
    const std::uint32_t dist = (x0 > x1 ? x0 - x1 : x1 - x0) +
                               (y0 > y1 ? y0 - y1 : y1 - y0);
    EXPECT_EQ(dist, 1u) << "indices " << d << " and " << d + 1;
  }
}

}  // namespace
}  // namespace rj::data
