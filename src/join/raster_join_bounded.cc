#include "join/raster_join_bounded.h"

#include <algorithm>
#include <utility>

#include "join/batch_pipeline.h"
#include "raster/fbo_pool.h"

namespace rj {

Result<JoinResult> BoundedRasterJoin(gpu::Device* device,
                                     const data::PointBlockSource& source,
                                     std::vector<std::size_t> scan,
                                     const PolygonSet& polys,
                                     const TriangleSoup& soup,
                                     const BBox& world,
                                     const BoundedRasterJoinOptions& options,
                                     BoundedRasterJoinStats* stats,
                                     ResultRanges* ranges_out,
                                     std::optional<raster::Fbo>* point_fbo_out) {
  RJ_RETURN_NOT_OK(ValidatePolygonIds(polys));
  RJ_RETURN_NOT_OK(
      ValidateWeightColumnCount(source.num_attributes(),
                                options.weight_column));
  RJ_RETURN_NOT_OK(
      ValidateFiltersCount(source.num_attributes(), options.filters));
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }

  JoinResult result(polys.size());

  // Plan the canvas tiling for the requested ε (Fig. 5).
  RJ_ASSIGN_OR_RETURN(
      std::vector<raster::CanvasTile> tiles,
      raster::PlanCanvas(world, options.epsilon, device->options().max_fbo_dim));
  if (options.compute_result_ranges) {
    if (ranges_out == nullptr) {
      return Status::InvalidArgument(
          "compute_result_ranges requires ranges_out");
    }
    if (tiles.size() != 1) {
      return Status::NotImplemented(
          "result ranges require a single-tile canvas (reduce epsilon "
          "resolution or raise max_fbo_dim)");
    }
  }
  if (point_fbo_out != nullptr && tiles.size() != 1) {
    return Status::NotImplemented(
        "point-FBO export requires a single-tile canvas");
  }

  // Columns shipped to the device: filters' columns plus the aggregated one.
  // (The pipeline reads from the host table directly; the upload is for
  // transfer-cost fidelity — see DESIGN.md §2.)
  const std::vector<std::size_t> columns =
      UploadColumns(options.filters, options.weight_column);
  const std::size_t num_batches = scan.size();

  // Ship and meter the triangle VBO exactly once per query: it is the
  // same bytes for every tile pass, so re-uploading it per tile both
  // distorts the transfer breakdown and breaks PlanAdmission's
  // fixed_bytes assumption (the grant covers one triangle upload). Freed
  // before the point pipeline starts, so the device peak stays
  // max(fixed_bytes, in-flight point VBOs), never the sum.
  RJ_RETURN_NOT_OK(UploadTriangleVbo(device, soup.size(), &result.timing));

  std::uint64_t drawn_total = 0;

  // One pipeline for every tile pass: the transfer (and, for disk
  // sources, reader) thread and the slots' staging buffers stay warm
  // across tiles (Rewind re-streams the blocks per pass), instead of
  // paying a thread spawn and two batch-sized staging allocations per
  // tile.
  join::BatchPipeline pipeline(device, &source, std::move(scan), columns,
                               {options.overlap_transfers});

  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const raster::CanvasTile& tile = tiles[t];
    raster::Viewport vp(tile.world, tile.width, tile.height);
    // Pooled canvas: per-query FBO allocation is the dominant transient
    // under concurrent traffic (see fbo_pool.h).
    raster::FboLease point_lease =
        raster::FboPool::Shared().Acquire(tile.width, tile.height);
    raster::Fbo& point_fbo = *point_lease;

    // --- Step I: draw points (batched when out-of-core). -----------------
    // The pipeline prefetches batch b+1 (pack + CopyToDevice on its
    // transfer thread, metered under phase::kTransfer) while the draw
    // workers rasterize batch b.
    if (t > 0) RJ_RETURN_NOT_OK(pipeline.Rewind());
    for (;;) {
      RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                          pipeline.Acquire());
      if (!view.has_value()) break;
      {
        ScopedPhase sp(&result.timing, phase::kProcessing);
        const PointTable& rows = *view->rows;
        if (view->begin == 0 && view->end == rows.size()) {
          // Whole-table/whole-block batch: draw in place, no slice copy.
          drawn_total += raster::DrawPoints(vp, rows, options.filters,
                                            options.weight_column, &point_fbo,
                                            &device->counters(),
                                            &device->pool());
        } else {
          PointTable slice = rows.Slice(view->begin, view->end);
          drawn_total += raster::DrawPoints(vp, slice, options.filters,
                                            options.weight_column, &point_fbo,
                                            &device->counters(),
                                            &device->pool());
        }
      }
      pipeline.Release(*view);
      device->counters().AddBatches(1);
    }

    if (point_fbo_out != nullptr) {
      // Single tile (validated above): copy the canvas out of its pooled
      // lease for the caller's cross-shard gather.
      point_fbo_out->emplace(point_fbo);
    }

    // --- Step II: draw polygons over the tile. ---------------------------
    {
      ScopedPhase sp(&result.timing, phase::kProcessing);
      raster::ResultArrays tile_result(polys.size());
      raster::DrawPolygons(vp, soup, point_fbo, /*boundary_fbo=*/nullptr,
                           &tile_result, &device->counters(),
                           &device->pool());
      result.arrays.AddFrom(tile_result);
    }
    device->counters().AddRenderPasses(1);

    if (options.compute_result_ranges) {
      ScopedPhase sp(&result.timing, phase::kProcessing);
      RJ_ASSIGN_OR_RETURN(
          *ranges_out,
          ComputeResultRanges(vp, polys, soup, point_fbo,
                              FinalizeAggregate(AggregateKind::kCount,
                                                result.arrays),
                              &device->counters(), &device->pool()));
    }
  }
  RJ_RETURN_NOT_OK(pipeline.Drain(&result.timing));

  if (stats != nullptr) {
    stats->num_tiles = tiles.size();
    stats->num_batches = num_batches * tiles.size();
    stats->points_drawn = drawn_total;
  }
  return result;
}

Result<JoinResult> BoundedRasterJoin(gpu::Device* device,
                                     const PointTable& points,
                                     const PolygonSet& polys,
                                     const TriangleSoup& soup,
                                     const BBox& world,
                                     const BoundedRasterJoinOptions& options,
                                     BoundedRasterJoinStats* stats,
                                     ResultRanges* ranges_out,
                                     std::optional<raster::Fbo>* point_fbo_out) {
  // Batch planning: points are transferred exactly once per tile pass set,
  // sized so the pipeline's in-flight buffers (2 when transfers overlap
  // the draw) fit the available budget.
  const std::size_t bytes_per_point =
      UploadBytesPerPoint(options.filters, options.weight_column);
  BoundedRasterJoinOptions planned = options;
  if (planned.batch_size == 0) {
    const UploadPlan plan = PlanUpload(device->bytes_free(), bytes_per_point,
                                       points.size(),
                                       options.overlap_transfers);
    planned.batch_size = plan.batch_size;
    planned.overlap_transfers = plan.overlap_transfers;
  }

  // The adapter's blocks are exactly the planned batch slices, so the
  // block-source core batches the table in fixed-size slices.
  data::TableBlockSource adapter(&points,
                                 std::max<std::size_t>(planned.batch_size, 1));
  return BoundedRasterJoin(device, adapter, AllBlocks(adapter), polys, soup,
                           world, planned, stats, ranges_out, point_fbo_out);
}

}  // namespace rj
