/// \file scissor_oracle_test.cc
/// \brief The raster joins scissor each polygon pass to the pixels their
/// point scan can touch (ScanBounds → Viewport::PixelCover). These tests
/// hold executor results against an oracle assembled from the raster
/// primitives with no scissor: per shard, DrawPoints over the shard's rows
/// and an unscissored DrawPolygons per canvas tile, merged in shard order.
/// Weights are fractional taxi fares, so any change in which pixels are
/// read, or in the order they are added, shows up in the SUM bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agg/merge_partials.h"
#include "common/rng.h"
#include "data/block_file.h"
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "gpu/device_pool.h"
#include "index/grid_index.h"
#include "join/raster_join_accurate.h"
#include "query/executor.h"
#include "raster/pipeline.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

constexpr std::size_t kBudget = 32u << 20;
/// Small enough that the bounded canvas at kEpsilon tiles 3×3.
constexpr std::int32_t kFboDim = 256;
constexpr double kEpsilon = 2.5;
constexpr std::int32_t kAccurateDim = 256;

struct Dataset {
  PolygonSet polys;
  PointTable points;
  TriangleSoup soup;
};

/// `num_polys` regions over `region`, and uniform rides with fractional
/// fares over the 1000 × 1000 world.
Dataset MakeDataset(const BBox& region, std::size_t num_polys,
                    std::size_t num_points, std::uint64_t seed) {
  Dataset d;
  auto polys = TinyRegions(num_polys, region, seed);
  EXPECT_TRUE(polys.ok());
  d.polys = polys.value();
  auto soup = TriangulatePolygonSet(d.polys);
  EXPECT_TRUE(soup.ok());
  d.soup = soup.value();
  Rng rng(seed * 977 + 3);
  d.points.AddAttribute("fare");
  for (std::size_t i = 0; i < num_points; ++i) {
    d.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.Uniform(2.5, 80.0))});
  }
  return d;
}

gpu::DeviceOptions DevOptions(std::size_t num_workers) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = kFboDim;
  options.memory_budget_bytes = kBudget;
  options.num_workers = num_workers;
  return options;
}

/// COUNT, SUM(fare), MIN(fare) over fares > 30 and MAX(fare) of `variant`.
std::vector<SpatialAggQuery> Members(JoinVariant variant) {
  SpatialAggQuery base;
  base.variant = variant;
  base.epsilon = kEpsilon;
  base.accurate_canvas_dim = kAccurateDim;
  std::vector<SpatialAggQuery> members(4, base);
  members[1].aggregate = AggregateKind::kSum;
  members[1].aggregate_column = 0;
  members[2].aggregate = AggregateKind::kMin;
  members[2].aggregate_column = 0;
  EXPECT_TRUE(members[2].filters.Add({0, FilterOp::kGreater, 30.0f}).ok());
  members[3].aggregate = AggregateKind::kMax;
  members[3].aggregate_column = 0;
  return members;
}

/// One shard's partial for `query`, from the primitives: the point pass
/// and an unscissored polygon pass per tile on `device`'s pool (the same
/// worker count, hence the same triangle chunking, as the executor's
/// device). The accurate variant's boundary points are resolved by the
/// group core over an empty triangle soup — a pass that shades nothing —
/// so only the polygon pass under test comes from the primitives; the
/// point FBO may hold the boundary pixels' points too, because the
/// polygon pass skips boundary pixels.
raster::ResultArrays ShardOracle(gpu::Device* device, const PointTable& rows,
                                 const Dataset& d, const BBox& world,
                                 const SpatialAggQuery& query,
                                 gpu::Counters* polygon_pass) {
  const std::size_t weight = query.EffectiveAggregateColumn();
  raster::ResultArrays arrays(d.polys.size());
  ThreadPool* pool = &device->pool();
  if (query.variant == JoinVariant::kBoundedRaster) {
    auto tiles = raster::PlanCanvas(world, query.epsilon, kFboDim);
    EXPECT_TRUE(tiles.ok());
    for (const raster::CanvasTile& tile : tiles.value()) {
      const raster::Viewport vp(tile.world, tile.width, tile.height);
      raster::Fbo fbo(tile.width, tile.height);
      raster::DrawPoints(vp, rows, query.filters, weight, &fbo, nullptr,
                         pool);
      raster::ResultArrays tile_result(d.polys.size());
      raster::DrawPolygons(vp, d.soup, fbo, nullptr, &tile_result,
                           polygon_pass, pool);
      arrays.AddFrom(tile_result);
    }
    return arrays;
  }
  const std::int32_t dim = query.accurate_canvas_dim;
  const raster::Fbo mask = BuildBoundaryMask(d.polys, world, dim, nullptr);
  auto index = GridIndex::Build(d.polys, world, 1024, GridAssignMode::kMbr);
  EXPECT_TRUE(index.ok());
  FusedMemberSpec member;
  member.filters = query.filters;
  member.weight_column = weight;
  FusedJoinOptions options;
  options.canvas_dim = dim;
  const data::TableBlockSource source(&rows, std::max<std::size_t>(
                                                 rows.size(), 1));
  auto boundary = FusedAccurateRasterJoin(
      device, source, AllBlocks(source), d.polys, TriangleSoup{}, world, mask,
      index.value(), options, {member});
  EXPECT_TRUE(boundary.ok()) << boundary.status().ToString();
  arrays = boundary.value().arrays[0];

  const raster::Viewport vp(world, dim, dim);
  raster::Fbo fbo(dim, dim);
  raster::DrawPoints(vp, rows, query.filters, weight, &fbo, nullptr, pool);
  raster::ResultArrays poly_pass(d.polys.size());
  raster::DrawPolygons(vp, d.soup, fbo, &mask, &poly_pass, polygon_pass,
                       pool);
  arrays.AddFrom(poly_pass);
  return arrays;
}

/// The oracle over `shards`, merged in shard order like the executor's
/// gather.
QueryResult Oracle(const std::vector<const PointTable*>& shards,
                   const Dataset& d, const BBox& world, std::size_t workers,
                   const SpatialAggQuery& query,
                   gpu::Counters* polygon_pass = nullptr) {
  std::vector<agg::ShardPartial> partials(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    gpu::Device device(DevOptions(workers));
    partials[s].arrays =
        ShardOracle(&device, *shards[s], d, world, query, polygon_pass);
  }
  auto merged = agg::MergePartials(partials);
  EXPECT_TRUE(merged.ok());
  QueryResult out;
  out.arrays = merged.value().arrays;
  out.values = FinalizeAggregate(query.aggregate, out.arrays);
  return out;
}

void ExpectBitwiseEqual(const QueryResult& actual,
                        const QueryResult& expected) {
  ASSERT_EQ(actual.values.size(), expected.values.size());
  for (std::size_t i = 0; i < actual.values.size(); ++i) {
    if (!(std::isnan(actual.values[i]) && std::isnan(expected.values[i]))) {
      EXPECT_EQ(actual.values[i], expected.values[i]) << "value slot " << i;
    }
    EXPECT_EQ(actual.arrays.count[i], expected.arrays.count[i]) << i;
    EXPECT_EQ(actual.arrays.sum[i], expected.arrays.sum[i]) << i;
    EXPECT_EQ(actual.arrays.min[i], expected.arrays.min[i]) << i;
    EXPECT_EQ(actual.arrays.max[i], expected.arrays.max[i]) << i;
  }
}

std::string VariantName(JoinVariant variant) {
  return variant == JoinVariant::kBoundedRaster ? "bounded" : "accurate";
}

/// 4 Hilbert shards on 2 devices × 1 / 4 workers × bounded (3×3 tiles) /
/// accurate: each member, solo and in one fused group, is bitwise equal to
/// the unscissored oracle — and the bounded polygon passes shade fewer
/// fragments than the oracle's, so the scissor is in effect.
TEST(ScissorOracleTest, ShardedMembersEqualTheUnscissoredOracle) {
  const Dataset d = MakeDataset(BBox(0, 0, 1000, 1000), 8, 6000, 51);
  data::ShardingOptions sharding;
  sharding.num_shards = 4;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto sharded = data::ShardedTable::Partition(d.points, sharding);
  ASSERT_TRUE(sharded.ok());
  std::vector<const PointTable*> shards;
  shards.reserve(sharded.value().num_shards());
  for (std::size_t s = 0; s < sharded.value().num_shards(); ++s) {
    shards.push_back(&sharded.value().shard(s));
  }

  for (const std::size_t workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = 2;
    pool_options.device = DevOptions(workers);
    gpu::DevicePool pool(pool_options);
    Executor executor(&pool, &sharded.value(), &d.polys);
    for (const JoinVariant variant :
         {JoinVariant::kBoundedRaster, JoinVariant::kAccurateRaster}) {
      SCOPED_TRACE(VariantName(variant));
      const std::vector<SpatialAggQuery> members = Members(variant);
      auto fused = executor.ExecuteFused(members);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      for (std::size_t i = 0; i < members.size(); ++i) {
        SCOPED_TRACE("member=" + std::to_string(i));
        gpu::Counters oracle_polygon_pass;
        const QueryResult oracle = Oracle(shards, d, executor.world(),
                                          workers, members[i],
                                          &oracle_polygon_pass);
        auto solo = executor.ExecuteUncached(members[i]);
        ASSERT_TRUE(solo.ok()) << solo.status().ToString();
        ExpectBitwiseEqual(solo.value(), oracle);
        ExpectBitwiseEqual(fused.value()[i], oracle);
        if (variant == JoinVariant::kBoundedRaster) {
          // The solo query's fragments are its point pass (one per drawn
          // point, at most the rows) plus its scissored polygon passes.
          EXPECT_LT(solo.value().counters.fragments,
                    oracle_polygon_pass.fragments());
        }
      }
    }
  }
}

/// One Hilbert-clustered block file whose polygons cover a corner of the
/// world, so zone-map pruning skips most blocks and the scissor is the
/// union of the scanned blocks' boxes: bounded and accurate, solo and
/// fused, at 1 and 4 workers, equal to the oracle over every row.
TEST(ScissorOracleTest, PrunedBlockFileScanEqualsTheUnscissoredOracle) {
  const Dataset d = MakeDataset(BBox(0, 0, 300, 300), 6, 8000, 52);
  const std::string path =
      ::testing::TempDir() + "/scissor_oracle_test.rjb";
  data::BlockFileOptions file_options;
  file_options.block_capacity = 256;
  ASSERT_TRUE(data::BlockFileWriter(file_options).Write(path, d.points).ok());
  auto source = data::OpenPointBlockSource(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto rows = data::MaterializeBlocks(*source.value());
  ASSERT_TRUE(rows.ok());

  for (const std::size_t workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    gpu::Device device(DevOptions(workers));
    Executor executor(&device, source.value().get(), &d.polys);
    for (const JoinVariant variant :
         {JoinVariant::kBoundedRaster, JoinVariant::kAccurateRaster}) {
      SCOPED_TRACE(VariantName(variant));
      const std::vector<SpatialAggQuery> members = Members(variant);
      auto fused = executor.ExecuteFused(members);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      for (std::size_t i = 0; i < members.size(); ++i) {
        SCOPED_TRACE("member=" + std::to_string(i));
        const QueryResult oracle =
            Oracle({&rows.value()}, d, executor.world(), workers, members[i]);
        auto solo = executor.ExecuteUncached(members[i]);
        ASSERT_TRUE(solo.ok()) << solo.status().ToString();
        EXPECT_GT(solo.value().counters.blocks_pruned, 0u);
        ExpectBitwiseEqual(solo.value(), oracle);
        ExpectBitwiseEqual(fused.value()[i], oracle);
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rj
