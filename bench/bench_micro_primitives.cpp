/// \file bench_micro_primitives.cpp
/// \brief google-benchmark micro-benchmarks for the hot primitives the
/// join operators are built from: PIP tests, triangle rasterization,
/// point and polygon drawing, canvas reuse, grid builds and probes, and
/// triangulation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/math_utils.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "data/taxi_generator.h"
#include "geometry/pip.h"
#include "index/grid_index.h"
#include "raster/fbo_pool.h"
#include "raster/pipeline.h"
#include "raster/rasterizer.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

/// PIP test cost grows linearly with the vertex count (the cost the
/// bounded raster join eliminates entirely).
void BM_PointInPolygon(benchmark::State& state) {
  const int vertices = static_cast<int>(state.range(0));
  Ring ring;
  for (int i = 0; i < vertices; ++i) {
    const double a = 2.0 * kPi * i / vertices;
    ring.push_back({std::cos(a) * 100.0 + std::sin(3 * a) * 20.0,
                    std::sin(a) * 100.0 + std::cos(5 * a) * 20.0});
  }
  Rng rng(1);
  for (auto _ : state) {
    const Point p{rng.Uniform(-130, 130), rng.Uniform(-130, 130)};
    benchmark::DoNotOptimize(TestPointInRing(ring, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointInPolygon)->Arg(8)->Arg(64)->Arg(512);

void BM_TriangleRasterization(benchmark::State& state) {
  const double size = static_cast<double>(state.range(0));
  std::uint64_t fragments = 0;
  for (auto _ : state) {
    fragments += raster::CountTriangleFragments(
        {1.0, 1.0}, {size, 2.0}, {size / 2, size}, 4096, 4096);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fragments));
}
BENCHMARK(BM_TriangleRasterization)->Arg(64)->Arg(512)->Arg(2048);

/// 400k rides in Hilbert order (one Hilbert shard), the row order of the
/// served block files, as one table and as its 16384-row blocks.
struct PointPassInputs {
  PointTable table;
  std::vector<PointTable> blocks;
};

const PointPassInputs* GetPointPassInputs() {
  static const PointPassInputs* inputs = []() -> PointPassInputs* {
    data::ShardingOptions sharding;
    sharding.num_shards = 1;
    sharding.policy = data::ShardPolicy::kHilbert;
    auto shards =
        data::ShardedTable::Partition(GenerateTaxiPoints(400'000), sharding);
    if (!shards.ok()) return nullptr;
    auto* in = new PointPassInputs{shards.value().shard(0), {}};
    constexpr std::size_t kBlockRows = 16384;
    for (std::size_t b = 0; b < in->table.size(); b += kBlockRows) {
      in->blocks.push_back(in->table.Slice(
          b, std::min(in->table.size(), b + kBlockRows)));
    }
    return in;
  }();
  return inputs;
}

/// The point pass (Step I) in the served shape: Hilbert-ordered rides over
/// the NYC extent. Args: block (1 = one call per 16384-row block, as a
/// block-file scan draws; 0 = one call over the whole 400k-row table);
/// width (636×566 or 1432×1273, served canvas sizes); query (0 = COUNT,
/// 1 = SUM of fare with fare > 10, 2 = COUNT under 3 conjuncts: fare > 5,
/// tip >= 1, distance < 8); workers.
void BM_DrawPoints(benchmark::State& state) {
  const PointPassInputs* in = GetPointPassInputs();
  if (in == nullptr) {
    state.SkipWithError("input generation failed");
    return;
  }
  const std::int32_t width = static_cast<std::int32_t>(state.range(1));
  const std::int32_t height = width == 636 ? 566 : 1273;
  FilterSet filters;
  std::size_t weight_column = PointTable::npos;
  Status added = Status::OK();
  switch (state.range(2)) {
    case 1:
      added = filters.Add({0, FilterOp::kGreater, 10.0f});
      weight_column = 0;  // fare
      break;
    case 2:
      added = filters.Add({0, FilterOp::kGreater, 5.0f});
      if (added.ok()) added = filters.Add({1, FilterOp::kGreaterEqual, 1.0f});
      if (added.ok()) added = filters.Add({2, FilterOp::kLess, 8.0f});
      break;
    default:
      break;
  }
  if (!added.ok()) {
    state.SkipWithError("filter rejected");
    return;
  }
  ThreadPool pool(static_cast<std::size_t>(state.range(3)));
  const raster::Viewport vp(NycExtentMeters(), width, height);
  raster::Fbo fbo(width, height);
  for (auto _ : state) {
    state.PauseTiming();  // the clear is not part of the point pass
    fbo.Clear();
    state.ResumeTiming();
    if (state.range(0) != 0) {
      for (const PointTable& block : in->blocks) {
        benchmark::DoNotOptimize(raster::DrawPoints(
            vp, block, filters, weight_column, &fbo, nullptr, &pool));
      }
    } else {
      benchmark::DoNotOptimize(raster::DrawPoints(
          vp, in->table, filters, weight_column, &fbo, nullptr, &pool));
    }
    benchmark::DoNotOptimize(fbo.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["sec_per_point"] = benchmark::Counter(
      static_cast<double>(state.iterations() * in->table.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in->table.size()));
}
BENCHMARK(BM_DrawPoints)
    ->ArgNames({"block", "width", "query", "workers"})
    ->ArgsProduct({{1, 0}, {636, 1432}, {0, 1, 2}, {1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Inputs of BM_DrawPolygons, built once: the NYC neighborhoods'
/// triangle soup and 200k rides cut into 4 Hilbert shards (the served
/// sharded layout); each case draws shard 0's points.
struct PolygonPassInputs {
  TriangleSoup soup;
  PolygonSet polys;
  data::ShardedTable shards;
};

const PolygonPassInputs* GetPolygonPassInputs() {
  static const PolygonPassInputs* inputs = []() -> PolygonPassInputs* {
    auto polys = NycNeighborhoods();
    if (!polys.ok()) return nullptr;
    auto soup = TriangulatePolygonSet(polys.value());
    if (!soup.ok()) return nullptr;
    data::ShardingOptions sharding;
    sharding.num_shards = 4;
    sharding.policy = data::ShardPolicy::kHilbert;
    auto shards =
        data::ShardedTable::Partition(GenerateTaxiPoints(200'000), sharding);
    if (!shards.ok()) return nullptr;
    return new PolygonPassInputs{std::move(soup).MoveValueUnsafe(),
                                 std::move(polys).MoveValueUnsafe(),
                                 std::move(shards).MoveValueUnsafe()};
  }();
  return inputs;
}

/// The polygon pass (Step II) over the NYC soup on one shard's point
/// canvas. Args: accurate (1 = the 1024² accurate canvas, skipping
/// boundary-mask pixels; 0 = the bounded ε = 100 canvas); scissor (1 = the
/// shard's pixel rectangle, as the joins pass it; 0 = the whole canvas);
/// workers.
void BM_DrawPolygons(benchmark::State& state) {
  const PolygonPassInputs* in = GetPolygonPassInputs();
  if (in == nullptr) {
    state.SkipWithError("input generation failed");
    return;
  }
  const bool accurate = state.range(0) != 0;
  const BBox world = NycExtentMeters();
  raster::CanvasTile tile = raster::SingleCanvas(world, 1024, 1024);
  if (!accurate) {
    auto tiles = raster::PlanCanvas(world, 100.0, 4096);
    if (!tiles.ok() || tiles.value().size() != 1) {
      state.SkipWithError("bounded canvas is not one tile");
      return;
    }
    tile = tiles.value()[0];
  }
  const raster::Viewport vp(tile.world, tile.width, tile.height);
  ThreadPool pool(static_cast<std::size_t>(state.range(2)));
  const PointTable& shard = in->shards.shard(0);
  raster::Fbo point_fbo(tile.width, tile.height);
  raster::DrawPoints(vp, shard, FilterSet(), 0, &point_fbo, nullptr, &pool);
  std::optional<raster::Fbo> mask;
  if (accurate) {
    mask.emplace(tile.width, tile.height);
    raster::DrawBoundaries(vp, in->polys, /*conservative=*/true, &*mask,
                           nullptr, &pool);
  }
  const raster::PixelRect scissor = state.range(1) != 0
                                        ? vp.PixelCover(shard.Extent())
                                        : raster::PixelRect();
  gpu::Counters counters;
  for (auto _ : state) {
    raster::ResultArrays arrays(in->polys.size());
    raster::DrawPolygons(vp, in->soup, point_fbo,
                         mask.has_value() ? &*mask : nullptr, &arrays,
                         &counters, &pool, scissor);
    benchmark::DoNotOptimize(arrays.sum.data());
  }
  state.counters["fragments"] = benchmark::Counter(
      static_cast<double>(counters.fragments()) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1)));
  state.SetItemsProcessed(static_cast<std::int64_t>(counters.fragments()));
}
BENCHMARK(BM_DrawPolygons)
    ->ArgNames({"accurate", "scissor", "workers"})
    ->ArgsProduct({{0, 1}, {0, 1}, {1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Reacquiring a pooled canvas after one shard's point pass (shard 0 of
/// BM_DrawPolygons' inputs, unfiltered SUM), the clear FboPool::Acquire
/// does. Args: accurate (1 = the 1024² accurate canvas; 0 = the bounded
/// ε = 100 canvas); strips (1 = only the strips the pass dirtied are
/// cleared; 0 = the whole canvas is, as when every strip is dirty). Only
/// the Acquire is timed.
void BM_CanvasReacquire(benchmark::State& state) {
  const PolygonPassInputs* in = GetPolygonPassInputs();
  if (in == nullptr) {
    state.SkipWithError("input generation failed");
    return;
  }
  const BBox world = NycExtentMeters();
  raster::CanvasTile tile = raster::SingleCanvas(world, 1024, 1024);
  if (state.range(0) == 0) {
    auto tiles = raster::PlanCanvas(world, 100.0, 4096);
    if (!tiles.ok() || tiles.value().size() != 1) {
      state.SkipWithError("bounded canvas is not one tile");
      return;
    }
    tile = tiles.value()[0];
  }
  const bool strips = state.range(1) != 0;
  const raster::Viewport vp(tile.world, tile.width, tile.height);
  const PointTable& shard = in->shards.shard(0);
  raster::FboPool pool;
  raster::FboLease lease = pool.Acquire(tile.width, tile.height);
  std::size_t dirty = 0;
  for (auto _ : state) {
    state.PauseTiming();
    raster::DrawPoints(vp, shard, FilterSet(), 0, lease.get(), nullptr);
    if (!strips) lease->mutable_data();  // marks every strip dirty
    dirty = 0;
    for (std::size_t s = 0; s < lease->num_strips(); ++s) {
      dirty += lease->StripDirty(s) ? 1 : 0;
    }
    lease = raster::FboLease();  // parks the canvas
    state.ResumeTiming();
    lease = pool.Acquire(tile.width, tile.height);
    benchmark::DoNotOptimize(lease->data().data());
    benchmark::ClobberMemory();
  }
  state.counters["dirty_share"] =
      static_cast<double>(dirty) / static_cast<double>(lease->num_strips());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(lease->size_bytes()));
}
BENCHMARK(BM_CanvasReacquire)
    ->ArgNames({"accurate", "strips"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GridProbe(benchmark::State& state) {
  auto polys = TinyRegions(260, NycExtentMeters(), 5);
  if (!polys.ok()) {
    state.SkipWithError("region generation failed");
    return;
  }
  auto index = GridIndex::Build(polys.value(), NycExtentMeters(), 1024,
                                GridAssignMode::kMbr);
  if (!index.ok()) {
    state.SkipWithError("index build failed");
    return;
  }
  Rng rng(2);
  const BBox extent = NycExtentMeters();
  for (auto _ : state) {
    const Point p{rng.Uniform(extent.min_x, extent.max_x),
                  rng.Uniform(extent.min_y, extent.max_y)};
    benchmark::DoNotOptimize(index.value().Candidates(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridProbe);

/// Grid-index construction over the 260 NYC neighborhoods at 1024². Arg:
/// assignment (0 = MBR, the device index; 1 = exact geometry, the CPU
/// index of §7.1).
void BM_GridBuild(benchmark::State& state) {
  auto polys = NycNeighborhoods();
  if (!polys.ok()) {
    state.SkipWithError("region generation failed");
    return;
  }
  const GridAssignMode mode = state.range(0) == 0
                                  ? GridAssignMode::kMbr
                                  : GridAssignMode::kExactGeometry;
  for (auto _ : state) {
    auto index = GridIndex::Build(polys.value(), NycExtentMeters(), 1024, mode);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(polys.value().size()));
}
BENCHMARK(BM_GridBuild)->ArgName("exact")->Arg(0)->Arg(1)->UseRealTime();

void BM_Triangulation(benchmark::State& state) {
  auto polys = TinyRegions(static_cast<std::size_t>(state.range(0)),
                           NycExtentMeters(), 6);
  if (!polys.ok()) {
    state.SkipWithError("region generation failed");
    return;
  }
  for (auto _ : state) {
    auto soup = TriangulatePolygonSet(polys.value());
    benchmark::DoNotOptimize(soup);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Triangulation)->Arg(64)->Arg(260);

}  // namespace
}  // namespace rj
