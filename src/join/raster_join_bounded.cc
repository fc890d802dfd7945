#include "join/raster_join_bounded.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "join/batch_pipeline.h"
#include "raster/fbo_pool.h"

namespace rj {

namespace {

/// Ships and meters the triangle VBO exactly once per execution (allocate
/// → zero-fill upload → free, timed under phase::kTransfer). Its size is
/// TriangleVboBytes, which keeps it aligned with PlanAdmission's
/// fixed_bytes.
Status UploadTriangleVbo(gpu::Device* device, std::size_t num_triangles,
                         PhaseTimer* timing) {
  ScopedPhase sp(timing, phase::kTransfer);
  const std::size_t tri_bytes = TriangleVboBytes(num_triangles);
  if (tri_bytes == 0) return Status::OK();
  RJ_ASSIGN_OR_RETURN(
      auto tri_vbo,
      device->Allocate(gpu::BufferKind::kVertexBuffer, tri_bytes));
  std::vector<std::uint8_t> zeros(tri_bytes, 0);
  const Status status =
      device->CopyToDevice(tri_vbo.get(), 0, zeros.data(), tri_bytes);
  device->Free(tri_vbo);
  return status;
}

}  // namespace

Result<FusedJoinOutput> FusedBoundedRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members,
    BoundedRasterJoinStats* stats) {
  RJ_RETURN_NOT_OK(ValidateFusedMembers(source, polys, members));
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  const std::size_t m = members.size();

  FusedJoinOutput out;
  out.arrays.assign(m, raster::ResultArrays(polys.size()));
  out.ranges.resize(m);
  out.point_fbos.resize(m);

  // Plan the canvas tiling for the requested ε (Fig. 5).
  RJ_ASSIGN_OR_RETURN(
      std::vector<raster::CanvasTile> tiles,
      raster::PlanCanvas(world, options.epsilon, device->options().max_fbo_dim));
  for (const FusedMemberSpec& member : members) {
    if ((member.compute_result_ranges || member.export_point_fbo) &&
        tiles.size() != 1) {
      return Status::NotImplemented(
          "result ranges / point-FBO export require a single-tile canvas "
          "(reduce epsilon resolution or raise max_fbo_dim)");
    }
  }

  // Columns shipped to the device: every member's filter columns plus its
  // aggregated one. (The pipeline reads from the host table directly; the
  // upload is for transfer-cost fidelity — see DESIGN.md §2.)
  const std::vector<std::size_t> columns = FusedUploadColumns(members);
  const std::size_t num_batches = scan.size();
  // Where the scan's points can land; each tile's polygon pass is
  // scissored to it (Procedure DrawPolygons reads the point FBO only where
  // points can be).
  const BBox scan_bounds = ScanBounds(source, scan);

  // Ship and meter the triangle VBO exactly once per execution: it is the
  // same bytes for every tile pass and every member, so re-uploading it
  // per tile both distorts the transfer breakdown and breaks
  // PlanAdmission's fixed_bytes assumption (the grant covers one triangle
  // upload). Freed before the point pipeline starts, so the device peak
  // stays max(fixed_bytes, in-flight point VBOs), never the sum.
  RJ_RETURN_NOT_OK(UploadTriangleVbo(device, soup.size(), &out.timing));

  std::uint64_t drawn_total = 0;

  // One pipeline for every tile pass: the transfer thread and the slots'
  // staging buffers stay warm across tiles (Rewind re-streams the blocks per pass), instead of
  // paying a thread spawn and two batch-sized staging allocations per
  // tile.
  join::BatchPipeline pipeline(device, &source, std::move(scan), columns,
                               {options.overlap_transfers});

  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const raster::CanvasTile& tile = tiles[t];
    raster::Viewport vp(tile.world, tile.width, tile.height);
    const raster::PixelRect scissor = vp.PixelCover(scan_bounds);

    // One pooled canvas per member (per-query FBO allocation is the
    // dominant transient under concurrent traffic, see fbo_pool.h);
    // targets alias them for the point pass.
    std::vector<raster::FboLease> leases;
    leases.reserve(m);
    std::vector<raster::MultiTarget> targets(m);
    for (std::size_t i = 0; i < m; ++i) {
      leases.push_back(
          raster::FboPool::Shared().Acquire(tile.width, tile.height));
      targets[i].filters = &members[i].filters;
      targets[i].weight_column = members[i].weight_column;
      targets[i].fbo = leases.back().get();
    }

    // --- Step I: one point scan feeding every member. --------------------
    // The pipeline prefetches batch b+1 (pack + CopyToDevice on its
    // transfer thread, metered under phase::kTransfer) while the draw
    // workers rasterize batch b.
    if (t > 0) RJ_RETURN_NOT_OK(pipeline.Rewind());
    for (;;) {
      RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                          pipeline.Acquire());
      if (!view.has_value()) break;
      {
        ScopedPhase sp(&out.timing, phase::kProcessing);
        for (const std::uint64_t d :
             raster::DrawPointsMulti(vp, view->rows, targets,
                                     &device->counters(), &device->pool())) {
          drawn_total += d;
        }
      }
      pipeline.Release(*view);
      device->counters().AddBatches(1);
    }

    // --- Step II per member: polygons over the member's own canvas. ------
    for (std::size_t i = 0; i < m; ++i) {
      const raster::Fbo& point_fbo = *targets[i].fbo;
      if (members[i].export_point_fbo) {
        // Single tile (validated above): copy the canvas out of its pooled
        // lease for the caller's cross-shard gather.
        out.point_fbos[i].emplace(point_fbo);
      }
      {
        ScopedPhase sp(&out.timing, phase::kProcessing);
        raster::ResultArrays tile_result(polys.size());
        raster::DrawPolygons(vp, soup, point_fbo, /*boundary_fbo=*/nullptr,
                             &tile_result, &device->counters(),
                             &device->pool(), scissor);
        out.arrays[i].AddFrom(tile_result);
      }
      device->counters().AddRenderPasses(1);

      if (members[i].compute_result_ranges) {
        ScopedPhase sp(&out.timing, phase::kProcessing);
        RJ_ASSIGN_OR_RETURN(
            out.ranges[i],
            ComputeResultRanges(vp, polys, soup, point_fbo,
                                FinalizeAggregate(AggregateKind::kCount,
                                                  out.arrays[i]),
                                &device->counters(), &device->pool()));
      }
    }
  }
  RJ_RETURN_NOT_OK(pipeline.Drain(&out.timing));

  if (stats != nullptr) {
    stats->num_tiles = tiles.size();
    stats->num_batches = num_batches * tiles.size();
    stats->points_drawn = drawn_total;
  }
  return out;
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
  FusedMemberSpec member;
  member.weight_column = options.weight_column;
  member.filters = options.filters;
  member.compute_result_ranges = ranges_out != nullptr;
  member.export_point_fbo = point_fbo_out != nullptr;
  FusedJoinOptions group;
  group.epsilon = options.epsilon;
  group.overlap_transfers = options.overlap_transfers;
  const data::TableBlockSource batches =
      TableBatches(device, points, member, options.batch_size,
                   &group.overlap_transfers);
  RJ_ASSIGN_OR_RETURN(
      FusedJoinOutput out,
      FusedBoundedRasterJoin(device, batches, AllBlocks(batches), polys, soup,
                             world, group, {member}, stats));
  if (ranges_out != nullptr) *ranges_out = std::move(out.ranges[0]);
  if (point_fbo_out != nullptr) *point_fbo_out = std::move(out.point_fbos[0]);
  return SoloResult(&out);
}

}  // namespace rj
