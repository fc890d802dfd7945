/// \file block_source_determinism_test.cc
/// \brief The tentpole guarantee of the block-based scan stack: every join
/// variant run over a PointBlockSource — mmap-backed v2 file or in-memory
/// adapter — is bitwise identical to the table form on the materialized
/// rows, for any block size, worker count, or pruning
/// setting; and zone-map pruning skips most blocks of Hilbert-clustered
/// data under a selective canvas without changing a bit of the result.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/block_file.h"
#include "data/datasets.h"
#include "join/index_join.h"
#include "join/join_common.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "query/executor.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

struct JoinSetup {
  PolygonSet polys;
  TriangleSoup soup;
  PointTable points;
  BBox world;
};

JoinSetup MakeSetup(std::size_t num_polys, std::size_t num_points,
                    std::uint64_t seed, BBox world = BBox(0, 0, 1000, 1000)) {
  JoinSetup s;
  s.world = world;
  auto polys = TinyRegions(num_polys, world, seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  auto soup = TriangulatePolygonSet(s.polys);
  EXPECT_TRUE(soup.ok());
  s.soup = soup.value();

  Rng rng(seed * 31 + 7);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    // Integer-valued weights: double-exact sums for any batching.
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::Device MakeDevice(std::size_t num_workers = 1,
                       std::size_t budget = 64 << 20) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = 512;
  options.memory_budget_bytes = budget;
  options.num_workers = num_workers;
  return gpu::Device(options);
}

void ExpectIdenticalArrays(const raster::ResultArrays& a,
                           const raster::ResultArrays& b) {
  ASSERT_EQ(a.count.size(), b.count.size());
  for (std::size_t i = 0; i < a.count.size(); ++i) {
    EXPECT_EQ(a.count[i], b.count[i]) << "count slot " << i;
    EXPECT_EQ(a.sum[i], b.sum[i]) << "sum slot " << i;
    EXPECT_EQ(a.min[i], b.min[i]) << "min slot " << i;
    EXPECT_EQ(a.max[i], b.max[i]) << "max slot " << i;
  }
}

void ExpectIdenticalRanges(const ResultRanges& a, const ResultRanges& b) {
  ASSERT_EQ(a.loose.size(), b.loose.size());
  ASSERT_EQ(a.expected.size(), b.expected.size());
  for (std::size_t i = 0; i < a.loose.size(); ++i) {
    EXPECT_EQ(a.loose[i].lower, b.loose[i].lower) << i;
    EXPECT_EQ(a.loose[i].upper, b.loose[i].upper) << i;
    EXPECT_EQ(a.expected[i].lower, b.expected[i].lower) << i;
    EXPECT_EQ(a.expected[i].upper, b.expected[i].upper) << i;
  }
}

/// The bounded variant over blocks `scan` of `source`: its group core
/// with `options` as the one member (what the table form reduces to).
Result<FusedJoinOutput> BoundedOverBlocks(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const JoinSetup& s,
    const BoundedRasterJoinOptions& options, bool with_ranges = false) {
  FusedJoinOptions group;
  group.epsilon = options.epsilon;
  FusedMemberSpec member;
  member.weight_column = options.weight_column;
  member.filters = options.filters;
  member.compute_result_ranges = with_ranges;
  return FusedBoundedRasterJoin(device, source, std::move(scan), s.polys,
                                s.soup, s.world, group, {member});
}

/// The accurate variant over blocks `scan` of `source` (see
/// BoundedOverBlocks), with its polygon preprocessing built as the table
/// form builds it (options.canvas_dim must be set).
Result<FusedJoinOutput> AccurateOverBlocks(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const JoinSetup& s,
    const AccurateRasterJoinOptions& options) {
  FusedJoinOptions group;
  group.canvas_dim = options.canvas_dim;
  RJ_ASSIGN_OR_RETURN(GridIndex index,
                      GridIndex::Build(s.polys, s.world,
                                       options.index_resolution,
                                       GridAssignMode::kMbr));
  const raster::Fbo mask =
      BuildBoundaryMask(s.polys, s.world, options.canvas_dim, nullptr);
  FusedMemberSpec member;
  member.weight_column = options.weight_column;
  member.filters = options.filters;
  return FusedAccurateRasterJoin(device, source, std::move(scan), s.polys,
                                 s.soup, s.world, mask, index, group,
                                 {member});
}

/// Writes `points` as a v2 block file at the given capacity and opens it.
/// Caller owns the path cleanup.
std::unique_ptr<data::PointBlockSource> WriteAndOpen(
    const PointTable& points, const std::string& path,
    std::size_t block_capacity) {
  data::BlockFileOptions options;
  options.block_capacity = block_capacity;
  options.hilbert_order = 8;
  EXPECT_TRUE(data::BlockFileWriter(options).Write(path, points).ok());
  auto source = data::OpenPointBlockSource(path);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return std::move(source.value());
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Bounded raster join: the full matrix. -------------------------------

TEST(BlockSourceDeterminism, BoundedMatchesInMemoryAcrossTheMatrix) {
  JoinSetup s = MakeSetup(8, 12000, 41);
  const std::string path = TempPath("det_bounded.rjb");

  BoundedRasterJoinOptions options;
  options.epsilon = 12.0;
  options.weight_column = 0;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kLess, 80.0f}).ok());

  for (const std::size_t capacity : {1000u, 4096u}) {
    auto source = WriteAndOpen(s.points, path, capacity);
    ASSERT_NE(source, nullptr);
    // The baseline: the table form on the rows in on-disk order.
    auto rows = data::MaterializeBlocks(*source);
    ASSERT_TRUE(rows.ok());
    gpu::Device ref_device = MakeDevice(1);
    ResultRanges ref_ranges;
    auto ref = BoundedRasterJoin(&ref_device, rows.value(), s.polys, s.soup,
                                 s.world, options, nullptr, &ref_ranges);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    for (const std::size_t workers : {1u, 8u}) {
      for (const bool prune : {false, true}) {
        const BlockSelection sel =
            SelectBlocks(*source, {options.filters}, &s.world, prune);
        // The selection accounts for every block, pruned or scanned.
        EXPECT_EQ(sel.scanned + sel.pruned, source->num_blocks());
        if (!prune) {
          EXPECT_EQ(sel.pruned, 0u);
        }
        gpu::Device device = MakeDevice(workers);
        auto result = BoundedOverBlocks(&device, *source, sel.blocks, s,
                                        options, /*with_ranges=*/true);
        ASSERT_TRUE(result.ok())
            << result.status().ToString() << " capacity=" << capacity
            << " workers=" << workers << " prune=" << prune;
        ExpectIdenticalArrays(ref.value().arrays, result.value().arrays[0]);
        ExpectIdenticalRanges(ref_ranges, result.value().ranges[0]);
      }
    }
  }
  std::remove(path.c_str());
}

// --- Accurate raster + device index join. --------------------------------

TEST(BlockSourceDeterminism, AccurateMatchesInMemory) {
  JoinSetup s = MakeSetup(6, 9000, 42);
  const std::string path = TempPath("det_accurate.rjb");
  auto source = WriteAndOpen(s.points, path, 777);
  ASSERT_NE(source, nullptr);
  auto rows = data::MaterializeBlocks(*source);
  ASSERT_TRUE(rows.ok());

  AccurateRasterJoinOptions options;
  options.weight_column = 0;
  options.canvas_dim = 256;
  gpu::Device ref_device = MakeDevice(2);
  auto ref = AccurateRasterJoin(&ref_device, rows.value(), s.polys, s.soup,
                                s.world, options);
  ASSERT_TRUE(ref.ok());

  for (const bool prune : {false, true}) {
    const BlockSelection sel =
        SelectBlocks(*source, {options.filters}, &s.world, prune);
    gpu::Device device = MakeDevice(2);
    auto result = AccurateOverBlocks(&device, *source, sel.blocks, s, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalArrays(ref.value().arrays, result.value().arrays[0]);
    // Exactness: pruning may not change the exact-PIP workload either.
    EXPECT_EQ(ref_device.counters().pip_tests(),
              device.counters().pip_tests());
  }
  std::remove(path.c_str());
}

TEST(BlockSourceDeterminism, IndexDeviceMatchesInMemory) {
  JoinSetup s = MakeSetup(6, 9000, 43);
  const std::string path = TempPath("det_idxdev.rjb");
  auto source = WriteAndOpen(s.points, path, 777);
  ASSERT_NE(source, nullptr);
  auto rows = data::MaterializeBlocks(*source);
  ASSERT_TRUE(rows.ok());

  IndexJoinOptions options;
  options.weight_column = 0;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kGreaterEqual, 30.0f}).ok());
  gpu::Device ref_device = MakeDevice(2);
  auto ref = IndexJoinDevice(&ref_device, rows.value(), s.polys, s.world,
                             options);
  ASSERT_TRUE(ref.ok());

  for (const bool prune : {false, true}) {
    // Pruning against `world` is exact for this variant: the index is
    // built over it, and Candidates yields nothing outside its extent.
    const BlockSelection sel =
        SelectBlocks(*source, {options.filters}, &s.world, prune);
    gpu::Device device = MakeDevice(2);
    auto result = IndexJoinDevice(&device, *source, sel.blocks, s.polys,
                                  s.world, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalArrays(ref.value().arrays, result.value().arrays);
    EXPECT_EQ(ref_device.counters().pip_tests(),
              device.counters().pip_tests());
  }
  std::remove(path.c_str());
}

// --- CPU index join (no device in the loop at all). ----------------------

TEST(BlockSourceDeterminism, IndexCpuMatchesInMemoryAndAccountsBlocks) {
  JoinSetup s = MakeSetup(6, 8000, 44);
  const std::string path = TempPath("det_idxcpu.rjb");
  auto source = WriteAndOpen(s.points, path, 512);
  ASSERT_NE(source, nullptr);
  auto rows = data::MaterializeBlocks(*source);
  ASSERT_TRUE(rows.ok());

  auto index = GridIndex::Build(s.polys, s.world, 64,
                                GridAssignMode::kExactGeometry);
  ASSERT_TRUE(index.ok());
  IndexJoinOptions options;
  options.weight_column = 0;
  auto ref = IndexJoinCpu(rows.value(), s.polys, index.value(), options, 1);
  ASSERT_TRUE(ref.ok());

  for (const int threads : {1, 4}) {
    for (const bool prune : {false, true}) {
      const BlockSelection sel = SelectBlocks(*source, {options.filters},
                                              &index.value().extent(), prune);
      auto result = IndexJoinCpu(*source, sel.blocks, s.polys, index.value(),
                                 options, threads);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectIdenticalArrays(ref.value().arrays, result.value().arrays);
      EXPECT_EQ(sel.scanned + sel.pruned, source->num_blocks());
      if (!prune) {
        EXPECT_EQ(sel.pruned, 0u);
      }
    }
  }
  std::remove(path.c_str());
}

// --- SelectBlocks vs the brute-force zone-map walk. ----------------------

TEST(BlockSourceDeterminism, SelectBlocksMatchesBruteForce) {
  JoinSetup s = MakeSetup(4, 5000, 45);
  data::TableBlockSource source(&s.points, 400);
  source.BuildZoneMaps();

  const BBox corner(0, 0, 250, 250);
  FilterSet none;
  FilterSet low;
  ASSERT_TRUE(low.Add({0, FilterOp::kLess, 10.0f}).ok());
  FilterSet impossible;  // weights are in [0, 99]: empty-range prune
  ASSERT_TRUE(impossible.Add({0, FilterOp::kGreater, 1000.0f}).ok());

  struct Case {
    const FilterSet* filters;
    const BBox* world;
  };
  const Case cases[] = {{&none, nullptr},       {&none, &corner},
                        {&low, nullptr},        {&low, &corner},
                        {&impossible, nullptr}};
  for (const Case& c : cases) {
    const BlockSelection sel = SelectBlocks(source, {*c.filters}, c.world,
                                            /*enable_pruning=*/true);
    std::vector<std::size_t> expected;
    for (std::size_t b = 0; b < source.num_blocks(); ++b) {
      if (ZoneMapCanMatch(*source.zone_map(b), *c.filters, c.world)) {
        expected.push_back(b);
      }
    }
    EXPECT_EQ(sel.blocks, expected);
    EXPECT_EQ(sel.scanned, expected.size());
    EXPECT_EQ(sel.scanned + sel.pruned, source.num_blocks());
  }
  // The impossible filter prunes everything; pruning off selects
  // everything regardless.
  EXPECT_TRUE(
      SelectBlocks(source, {impossible}, nullptr, true).blocks.empty());
  const BlockSelection all =
      SelectBlocks(source, {impossible}, &corner, false);
  EXPECT_EQ(all.blocks.size(), source.num_blocks());
  EXPECT_EQ(all.pruned, 0u);

  // A shared pass keeps a block when any member can use it: the impossible
  // member adds nothing to the low member's selection.
  EXPECT_EQ(SelectBlocks(source, {impossible, low}, &corner, true).blocks,
            SelectBlocks(source, {low}, &corner, true).blocks);

  // A source without zone maps is never pruned.
  data::TableBlockSource bare(&s.points, 400);
  const BlockSelection unpruned = SelectBlocks(bare, {impossible}, &corner,
                                               true);
  EXPECT_EQ(unpruned.blocks.size(), bare.num_blocks());
}

// --- The acceptance bar: ≥50% of blocks pruned on clustered data. --------

TEST(BlockSourceDeterminism, SelectiveCanvasPrunesMostClusteredBlocks) {
  // Points cover (0,0)-(1000,1000); the polygons (and hence the canvas)
  // only the lower-left 250×250 quadrant — 1/16 of the area. With Hilbert
  // clustering at 256-row blocks, the blocks are spatially tight, so at
  // least half of them (in fact far more) must be provably outside the
  // canvas and pruned — while the result stays bitwise identical.
  JoinSetup s = MakeSetup(4, 12000, 46, BBox(0, 0, 250, 250));
  const std::string path = TempPath("det_prune.rjb");
  auto source = WriteAndOpen(s.points, path, 256);
  ASSERT_NE(source, nullptr);
  ASSERT_GE(source->num_blocks(), 40u);

  BoundedRasterJoinOptions options;
  options.epsilon = 5.0;
  options.weight_column = 0;

  const BlockSelection all =
      SelectBlocks(*source, {options.filters}, &s.world, false);
  gpu::Device full_device = MakeDevice(1);
  auto full = BoundedOverBlocks(&full_device, *source, all.blocks, s, options);
  ASSERT_TRUE(full.ok());

  const BlockSelection sel =
      SelectBlocks(*source, {options.filters}, &s.world, true);
  gpu::Device pruned_device = MakeDevice(1);
  auto pruned =
      BoundedOverBlocks(&pruned_device, *source, sel.blocks, s, options);
  ASSERT_TRUE(pruned.ok());

  ExpectIdenticalArrays(full.value().arrays[0], pruned.value().arrays[0]);
  EXPECT_GE(sel.pruned, source->num_blocks() / 2)
      << "pruned " << sel.pruned << " of " << source->num_blocks();
  // Pruning must also skip the pruned blocks' transfers entirely.
  EXPECT_LT(pruned_device.counters().bytes_transferred(),
            full_device.counters().bytes_transferred());
  std::remove(path.c_str());
}

// --- One pruning region: the executor prunes a disk shard's blocks
// against the query region, the same region shard routing uses. ----------

TEST(BlockSourceDeterminism, ZoomedPolygonsPruneBlocksWithoutFilters) {
  // Points cover (0,0)-(1000,1000); the polygons only a 200×200 zoom in
  // the middle. The canvas world spans the points too, so pruning against
  // it would keep every block; the query region (polygon extent padded by
  // one canvas pixel) proves most Hilbert-clustered blocks irrelevant with
  // no filter at all — and the result stays bitwise identical to pruning
  // off and to the in-memory executor over the same rows.
  JoinSetup s = MakeSetup(4, 12000, 48, BBox(400, 400, 600, 600));
  const std::string path = TempPath("det_zoom.rjb");
  auto source = WriteAndOpen(s.points, path, 256);
  ASSERT_NE(source, nullptr);
  auto rows = data::MaterializeBlocks(*source);
  ASSERT_TRUE(rows.ok());

  gpu::Device mem_device = MakeDevice(2);
  gpu::Device disk_device = MakeDevice(2);
  Executor in_memory(&mem_device, &rows.value(), &s.polys);
  Executor on_disk(&disk_device, source.get(), &s.polys);

  for (const JoinVariant variant :
       {JoinVariant::kBoundedRaster, JoinVariant::kAccurateRaster,
        JoinVariant::kIndexDevice, JoinVariant::kIndexCpu}) {
    SCOPED_TRACE(JoinVariantName(variant));
    SpatialAggQuery query;
    query.variant = variant;
    query.epsilon = 4.0;  // single 354² tile: §5 ranges apply
    query.accurate_canvas_dim = 256;
    query.aggregate = AggregateKind::kSum;
    query.aggregate_column = 0;
    query.with_result_ranges = variant == JoinVariant::kBoundedRaster;

    query.enable_block_pruning = false;
    auto full = on_disk.ExecuteUncached(query);
    query.enable_block_pruning = true;
    auto pruned = on_disk.ExecuteUncached(query);
    auto expected = in_memory.ExecuteUncached(query);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    EXPECT_EQ(full.value().counters.blocks_pruned, 0u);
    EXPECT_GT(pruned.value().counters.blocks_pruned, 0u);
    EXPECT_EQ(pruned.value().counters.blocks_pruned +
                  pruned.value().counters.blocks_scanned,
              source->num_blocks());
    ExpectIdenticalArrays(full.value().arrays, pruned.value().arrays);
    ExpectIdenticalArrays(expected.value().arrays, pruned.value().arrays);
    ExpectIdenticalRanges(full.value().ranges, pruned.value().ranges);
    ExpectIdenticalRanges(expected.value().ranges, pruned.value().ranges);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rj
