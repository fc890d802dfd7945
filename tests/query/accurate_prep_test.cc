/// \file accurate_prep_test.cc
/// \brief The accurate join's polygon preprocessing (boundary mask per
/// canvas dim, MBR grid index) is built once per dataset and reused by
/// every query, shard and fusion member. Cached prep must be invisible:
/// results equal the table form, which builds both per call (so the
/// oracle shares no prep with the executor), and counters do not depend
/// on whether a query ran cold or warm.
///
/// Weights are fractional (fare-like), not integer: the comparison is
/// against the same execution shape, so it is bitwise even where a
/// different layout would round differently.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agg/merge_partials.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "gpu/device_pool.h"
#include "join/raster_join_accurate.h"
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
  s.points.AddAttribute("fare");
  for (std::size_t i = 0; i < num_points; ++i) {
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.Uniform(2.5, 80.0))});
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

/// The group the matrix runs solo and fused: COUNT, SUM(fare), and
/// MIN(fare) over the rides with fare > 30.
std::vector<SpatialAggQuery> Members(std::int32_t dim) {
  SpatialAggQuery base;
  base.variant = JoinVariant::kAccurateRaster;
  base.accurate_canvas_dim = dim;
  std::vector<SpatialAggQuery> members(3, base);
  members[1].aggregate = AggregateKind::kSum;
  members[1].aggregate_column = 0;
  members[2].aggregate = AggregateKind::kMin;
  members[2].aggregate_column = 0;
  EXPECT_TRUE(members[2].filters.Add({0, FilterOp::kGreater, 30.0f}).ok());
  return members;
}

/// The table-form oracle for `query` over `shards` (one table = unsharded):
/// AccurateRasterJoin per shard on a fresh device with `workers`, merged
/// in shard order like the executor's gather.
QueryResult TableFormOracle(const std::vector<const PointTable*>& shards,
                            const PolygonSet& polys, const BBox& world,
                            std::size_t workers, const SpatialAggQuery& query) {
  auto soup = TriangulatePolygonSet(polys);
  EXPECT_TRUE(soup.ok());
  AccurateRasterJoinOptions options;
  options.canvas_dim = query.accurate_canvas_dim;
  options.weight_column = query.EffectiveAggregateColumn();
  options.filters = query.filters;
  std::vector<agg::ShardPartial> partials(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    gpu::Device device(DevOptions(workers));
    auto r = AccurateRasterJoin(&device, *shards[s], polys, soup.value(),
                                world, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    partials[s].arrays = r.value().arrays;
  }
  auto merged = agg::MergePartials(partials);
  EXPECT_TRUE(merged.ok());
  QueryResult out;
  out.arrays = merged.value().arrays;
  out.values = FinalizeAggregate(query.aggregate, out.arrays);
  return out;
}

/// An executor over `s` on `pool`: one RAM shard on the primary device, or
/// one per partition of `sharded`.
std::unique_ptr<Executor> MakeExecutor(gpu::DevicePool* pool,
                                       const JoinSetup& s,
                                       const data::ShardedTable* sharded) {
  if (sharded != nullptr) {
    return std::make_unique<Executor>(pool, sharded, &s.polys);
  }
  return std::make_unique<Executor>(pool->primary(), &s.points, &s.polys);
}

void ExpectBitwiseEqual(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (!(std::isnan(a.values[i]) && std::isnan(b.values[i]))) {
      EXPECT_EQ(a.values[i], b.values[i]) << "value slot " << i;
    }
    EXPECT_EQ(a.arrays.count[i], b.arrays.count[i]) << "count slot " << i;
    EXPECT_EQ(a.arrays.sum[i], b.arrays.sum[i]) << "sum slot " << i;
    EXPECT_EQ(a.arrays.min[i], b.arrays.min[i]) << "min slot " << i;
    EXPECT_EQ(a.arrays.max[i], b.arrays.max[i]) << "max slot " << i;
  }
}

void ExpectEqualCounters(const gpu::CountersSnapshot& a,
                         const gpu::CountersSnapshot& b) {
  EXPECT_EQ(a.fragments, b.fragments);
  EXPECT_EQ(a.pip_tests, b.pip_tests);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.render_passes, b.render_passes);
}

/// One executor per (layout, workers); canvases 512 and 1024 interleaved
/// (512 is served again after 1024 was built); per dim the fused group
/// runs first, so it builds the mask and the solo members read it warm;
/// each result bitwise equal to the table form.
TEST(AccuratePrepTest, CachedPrepMatchesPerCallBuildAcrossTheMatrix) {
  const JoinSetup s = MakeSetup(8, 6000, 41);
  data::ShardingOptions sharding;
  sharding.num_shards = 4;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto sharded = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(sharded.ok());

  for (const bool shard : {false, true}) {
    for (const std::size_t workers : {1, 4}) {
      SCOPED_TRACE(shard ? "4 shards / 2 devices" : "unsharded");
      SCOPED_TRACE("workers=" + std::to_string(workers));
      gpu::DevicePoolOptions pool_options;
      pool_options.num_devices = shard ? 2 : 1;
      pool_options.device = DevOptions(workers);
      gpu::DevicePool pool(pool_options);
      const std::unique_ptr<Executor> executor =
          MakeExecutor(&pool, s, shard ? &sharded.value() : nullptr);
      std::vector<const PointTable*> tables;
      if (shard) {
        for (std::size_t i = 0; i < sharded.value().num_shards(); ++i) {
          tables.push_back(&sharded.value().shard(i));
        }
      } else {
        tables.push_back(&s.points);
      }

      const BBox& world = executor->world();
      std::map<std::int32_t, std::vector<QueryResult>> oracles;
      for (const std::int32_t dim : {512, 1024, 512}) {
        SCOPED_TRACE("dim=" + std::to_string(dim));
        const std::vector<SpatialAggQuery> members = Members(dim);
        std::vector<QueryResult>& oracle = oracles[dim];
        for (std::size_t i = oracle.size(); i < members.size(); ++i) {
          oracle.push_back(
              TableFormOracle(tables, s.polys, world, workers, members[i]));
        }
        auto fused = executor->ExecuteFused(members);
        ASSERT_TRUE(fused.ok()) << fused.status().ToString();
        for (std::size_t i = 0; i < members.size(); ++i) {
          SCOPED_TRACE("member=" + std::to_string(i));
          auto solo = executor->ExecuteUncached(members[i]);
          ASSERT_TRUE(solo.ok()) << solo.status().ToString();
          ExpectBitwiseEqual(solo.value(), oracle[i]);
          ExpectBitwiseEqual(fused.value()[i], oracle[i]);
        }
      }
    }
  }
}

/// The one-time outline pass is preprocessing, never a query's work: on a
/// fresh executor the first (cold) and second (warm) run of one query
/// report equal counters, and each equals the pool-wide delta around it.
TEST(AccuratePrepTest, CountersDoNotDependOnCacheWarmth) {
  const JoinSetup s = MakeSetup(6, 5000, 42);
  SpatialAggQuery query;
  query.variant = JoinVariant::kAccurateRaster;
  query.accurate_canvas_dim = 512;
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = 0;

  data::ShardingOptions sharding;
  sharding.num_shards = 4;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto sharded = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(sharded.ok());

  for (const bool shard : {false, true}) {
    SCOPED_TRACE(shard ? "4 shards / 2 devices" : "unsharded");
    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = shard ? 2 : 1;
    pool_options.device = DevOptions(2);
    gpu::DevicePool pool(pool_options);
    const std::unique_ptr<Executor> executor =
        MakeExecutor(&pool, s, shard ? &sharded.value() : nullptr);

    std::vector<QueryResult> runs;
    for (int run = 0; run < 2; ++run) {
      const gpu::CountersSnapshot before = pool.TotalCounters();
      auto r = executor->ExecuteUncached(query);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectEqualCounters(r.value().counters,
                          pool.TotalCounters().DeltaSince(before));
      runs.push_back(std::move(r).MoveValueUnsafe());
    }
    EXPECT_GT(runs[0].counters.fragments, 0u);
    EXPECT_GT(runs[0].counters.pip_tests, 0u);
    ExpectEqualCounters(runs[0].counters, runs[1].counters);
    ExpectBitwiseEqual(runs[0], runs[1]);
  }
}

/// Four threads make their first accurate query at one dim at once: the
/// cache builds one mask, which every query reads, and all results equal
/// the table form's.
TEST(AccuratePrepTest, ConcurrentFirstQueriesShareOneMask) {
  const JoinSetup s = MakeSetup(6, 5000, 43);
  gpu::Device device(DevOptions(2));
  Executor executor(&device, &s.points, &s.polys);
  SpatialAggQuery query = Members(512)[1];

  constexpr int kThreads = 4;
  std::atomic<int> arrived{0};
  std::vector<Status> statuses(kThreads);
  std::vector<QueryResult> results(kThreads);
  std::vector<std::shared_ptr<const raster::Fbo>> masks(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      auto r = executor.ExecuteUncached(query);
      statuses[t] = r.status();
      if (r.ok()) results[t] = std::move(r).MoveValueUnsafe();
      auto mask = executor.GetBoundaryMask(512);
      if (mask.ok()) masks[t] = mask.value();
    });
  }
  for (std::thread& t : threads) t.join();

  const QueryResult oracle =
      TableFormOracle({&s.points}, s.polys, executor.world(), 2, query);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    ExpectBitwiseEqual(results[t], oracle);
    EXPECT_EQ(masks[t], masks[0]);
  }
  ASSERT_NE(masks[0], nullptr);
  EXPECT_EQ(masks[0]->data(),
            BuildBoundaryMask(s.polys, executor.world(), 512, nullptr).data());
}

/// An accurate canvas wider than the device's max_fbo_dim is rejected with
/// InvalidArgument before anything is allocated — by the executor (solo and
/// fused) and by the table form — and no mask is cached for it.
TEST(AccuratePrepTest, CanvasAboveMaxFboDimIsRejected) {
  const JoinSetup s = MakeSetup(6, 2000, 44);
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);

  const std::vector<SpatialAggQuery> too_big = Members(kFboDim * 2);
  auto solo = executor.ExecuteUncached(too_big[1]);
  ASSERT_FALSE(solo.ok());
  EXPECT_EQ(solo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solo.status().message().find("max_fbo_dim"), std::string::npos)
      << solo.status().ToString();
  auto fused = executor.ExecuteFused(too_big);
  ASSERT_FALSE(fused.ok());
  EXPECT_EQ(fused.status().code(), StatusCode::kInvalidArgument);
  auto mask = executor.GetBoundaryMask(kFboDim + 1);
  ASSERT_FALSE(mask.ok());
  EXPECT_EQ(mask.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(executor.boundary_mask_cache_bytes(), 0u);

  auto soup = TriangulatePolygonSet(s.polys);
  ASSERT_TRUE(soup.ok());
  AccurateRasterJoinOptions options;
  options.canvas_dim = kFboDim + 1;
  auto table_form = AccurateRasterJoin(&device, s.points, s.polys,
                                       soup.value(), executor.world(),
                                       options);
  ASSERT_FALSE(table_form.ok());
  EXPECT_EQ(table_form.status().code(), StatusCode::kInvalidArgument);

  // The largest legal canvas still runs.
  EXPECT_TRUE(executor.ExecuteUncached(Members(kFboDim)[0]).ok());
}

/// A client cycling through canvas dims cannot grow the mask cache past
/// its byte budget: least recently used masks are evicted, the newest is
/// always kept, a recently used mask survives, a reference held across an
/// eviction stays valid, and queries after evictions still equal the
/// table form.
TEST(AccuratePrepTest, MaskCacheStaysBoundedWhileDimsCycle) {
  const JoinSetup s = MakeSetup(6, 3000, 45);
  gpu::Device device(DevOptions(2));
  Executor executor(&device, &s.points, &s.polys);
  const auto mask_bytes = [](std::int32_t dim) {
    return static_cast<std::size_t>(dim) * static_cast<std::size_t>(dim) *
           raster::kChannels * sizeof(float);
  };

  auto held = executor.GetBoundaryMask(512);
  ASSERT_TRUE(held.ok());
  const std::shared_ptr<const raster::Fbo>& first = held.value();

  std::size_t built = mask_bytes(512);
  for (int round = 0; round < 2; ++round) {
    for (std::int32_t dim = 640; dim <= 1024; dim += 32) {
      SCOPED_TRACE("dim=" + std::to_string(dim));
      auto mask = executor.GetBoundaryMask(dim);
      ASSERT_TRUE(mask.ok()) << mask.status().ToString();
      ASSERT_EQ(mask.value()->width(), dim);
      built += mask_bytes(dim);
      EXPECT_LE(executor.boundary_mask_cache_bytes(),
                Executor::kBoundaryMaskCacheBytes);
      EXPECT_GE(executor.boundary_mask_cache_bytes(), mask_bytes(dim));
      // The most recent mask is a hit.
      auto again = executor.GetBoundaryMask(dim);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.value(), mask.value());
    }
  }
  // The cycle built far more than the budget, so 512 was evicted; the
  // caller's reference is still the mask it was.
  ASSERT_GT(built, 2 * Executor::kBoundaryMaskCacheBytes);
  EXPECT_EQ(first->data(),
            BuildBoundaryMask(s.polys, executor.world(), 512, nullptr).data());
  auto rebuilt = executor.GetBoundaryMask(512);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt.value(), first);
  EXPECT_EQ(rebuilt.value()->data(), first->data());

  for (const SpatialAggQuery& query : {Members(512)[1], Members(1024)[2]}) {
    auto r = executor.ExecuteUncached(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBitwiseEqual(r.value(), TableFormOracle({&s.points}, s.polys,
                                                  executor.world(), 2, query));
  }
  EXPECT_LE(executor.boundary_mask_cache_bytes(),
            Executor::kBoundaryMaskCacheBytes);
}

}  // namespace
}  // namespace rj
