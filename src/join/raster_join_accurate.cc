#include "join/raster_join_accurate.h"

#include <algorithm>
#include <string>
#include <utility>

#include "geometry/pip.h"
#include "join/batch_pipeline.h"
#include "raster/fbo_pool.h"
#include "raster/pipeline.h"

namespace rj {

namespace {

Status ValidateAccurateCanvas(const gpu::Device& device, std::int32_t dim,
                              const BBox& world) {
  RJ_RETURN_NOT_OK(ValidateAccurateCanvasDim(device, dim));
  if (world.IsEmpty() || world.Width() <= 0 || world.Height() <= 0) {
    return Status::InvalidArgument("world extent is empty");
  }
  return Status::OK();
}

}  // namespace

std::int32_t AccurateCanvasDim(const gpu::Device& device,
                               std::int32_t canvas_dim) {
  return canvas_dim > 0 ? canvas_dim : device.options().max_fbo_dim;
}

Status ValidateAccurateCanvasDim(const gpu::Device& device, std::int32_t dim) {
  if (dim <= 0) return Status::InvalidArgument("canvas dimension must be > 0");
  if (dim > device.options().max_fbo_dim) {
    return Status::InvalidArgument(
        "canvas dimension " + std::to_string(dim) +
        " exceeds the device's max_fbo_dim " +
        std::to_string(device.options().max_fbo_dim));
  }
  return Status::OK();
}

raster::Fbo BuildBoundaryMask(const PolygonSet& polys, const BBox& world,
                              std::int32_t dim, gpu::Counters* counters,
                              ThreadPool* pool) {
  raster::Fbo mask(dim, dim);
  raster::DrawBoundaries(raster::Viewport(world, dim, dim), polys,
                         /*conservative=*/true, &mask, counters, pool);
  return mask;
}

Result<FusedJoinOutput> FusedAccurateRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const raster::Fbo& boundary_mask, const GridIndex& index,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members,
    AccurateRasterJoinStats* stats) {
  RJ_RETURN_NOT_OK(ValidateFusedMembers(source, polys, members));
  for (const FusedMemberSpec& member : members) {
    if (member.compute_result_ranges || member.export_point_fbo) {
      return Status::NotImplemented(
          "result ranges / point-FBO export are bounded-variant features");
    }
  }
  const std::size_t m = members.size();

  const std::int32_t dim = AccurateCanvasDim(*device, options.canvas_dim);
  RJ_RETURN_NOT_OK(ValidateAccurateCanvas(*device, dim, world));
  if (boundary_mask.width() != dim || boundary_mask.height() != dim ||
      !(index.extent() == world)) {
    return Status::InvalidArgument(
        "boundary mask / grid index were not built for this canvas");
  }

  FusedJoinOutput out;
  out.arrays.assign(m, raster::ResultArrays(polys.size()));
  out.ranges.resize(m);
  out.point_fbos.resize(m);

  raster::Viewport vp(world, dim, dim);
  // The polygon pass reads the point FBO only where the scan's points can
  // land (Procedure DrawPolygons).
  const raster::PixelRect scissor = vp.PixelCover(ScanBounds(source, scan));

  std::vector<raster::FboLease> point_leases;
  point_leases.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    point_leases.push_back(raster::FboPool::Shared().Acquire(dim, dim));
  }

  const std::size_t num_batches = scan.size();
  std::uint64_t boundary_points = 0;
  std::uint64_t interior_points = 0;
  // Per-thread metering window so concurrent queries on a shared device
  // don't absorb each other's PIP tests; parallel chunks contribute their
  // own workers' deltas below.
  std::uint64_t worker_pips = 0;
  const std::size_t pip_before = GetThreadPipTestCount();

  // --- Step 2: one shared scan (Procedure AccuratePoints). ---------------
  // Batch b+1's host→device transfer runs on the pipeline's prefetch
  // thread while this loop processes batch b.
  join::BatchPipeline upload_pipeline(device, &source, std::move(scan),
                                      FusedUploadColumns(members),
                                      {options.overlap_transfers});
  std::vector<raster::MultiTarget> targets(m);
  for (std::size_t t = 0; t < m; ++t) {
    targets[t].filters = &members[t].filters;
    targets[t].weight_column = members[t].weight_column;
    targets[t].fbo = point_leases[t].get();
  }
  raster::PointPassBuffers buffers;  // reused by every batch
  ThreadPool& pool = device->pool();
  for (;;) {
    RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                        upload_pipeline.Acquire());
    if (!view.has_value()) break;
    ScopedPhase sp(&out.timing, phase::kProcessing);
    const data::BlockView& rows = view->rows;
    // The column vertex stage of the point pass (filters, transform,
    // clip) runs once for the group; AccuratePoints classifies each of its
    // fragments through the boundary mask.
    const raster::PointPass pass(vp, rows, targets, &buffers);

    // AccuratePoints over rows [begin, end): a boundary fragment's point
    // is resolved by Procedure JoinPoint once — `contained` holds the
    // containing polygon ids in candidate order — and accumulated into
    // `accs` by every member that accepts it, in row order; an interior
    // fragment goes to `emit_interior`.
    const auto accurate_points = [&](std::size_t begin, std::size_t end,
                                     std::vector<raster::ResultArrays>* accs,
                                     const auto& emit_interior,
                                     std::uint64_t* interior,
                                     std::uint64_t* boundary) {
      raster::PointFrag frags[raster::kVertexBlockRows];
      std::vector<std::size_t> contained;
      for (std::size_t b = begin; b < end; b += raster::kVertexBlockRows) {
        const std::size_t count =
            pass.Vertex(b, std::min(end, b + raster::kVertexBlockRows), frags);
        for (std::size_t k = 0; k < count; ++k) {
          const raster::PointFrag& f = frags[k];
          if (!raster::IsBoundaryPixel(boundary_mask, f.pixel)) {
            emit_interior(f);
            ++*interior;
            continue;
          }
          ++*boundary;
          const Point p = rows.At(f.row);
          contained.clear();
          auto [cand_begin, cand_end] = index.Candidates(p);
          for (const std::int32_t* c = cand_begin; c != cand_end; ++c) {
            const Polygon& poly = polys[static_cast<std::size_t>(*c)];
            if (poly.Contains(p)) {
              contained.push_back(static_cast<std::size_t>(poly.id()));
            }
          }
          for (std::size_t t = 0; t < m; ++t) {
            if (!pass.Matches(t, f)) continue;
            const float* weights = pass.weights(t);
            const float w = weights != nullptr ? weights[f.row] : 0.0f;
            raster::ResultArrays& acc = (*accs)[t];
            for (const std::size_t id : contained) {
              acc.count[id] += 1.0;
              if (weights != nullptr) {
                acc.sum[id] += w;
                acc.min[id] = std::min(acc.min[id], static_cast<double>(w));
                acc.max[id] = std::max(acc.max[id], static_cast<double>(w));
              }
            }
          }
        }
      }
    };

    const std::size_t num_chunks = pool.NumChunks(rows.size);
    if (num_chunks <= 1) {
      accurate_points(
          0, rows.size, &out.arrays,
          [&](const raster::PointFrag& f) {
            for (std::size_t t = 0; t < m; ++t) {
              if (pass.Matches(t, f)) pass.Blend(t, f);
            }
          },
          &interior_points, &boundary_points);
    } else {
      // Tiled-parallel AccuratePoints: per chunk, a private ResultArrays
      // per member, merged in ascending chunk order, and a run of interior
      // fragments in the flat buffer (from the chunk's first row on),
      // replayed per row band in chunk order — each member's accumulation
      // sequence is exactly its sequential order.
      buffers.frags.resize(rows.size);
      std::vector<raster::PointPass::FragRun> runs(num_chunks);
      std::vector<std::vector<raster::ResultArrays>> partials(
          num_chunks,
          std::vector<raster::ResultArrays>(
              m, raster::ResultArrays(polys.size())));
      std::vector<std::uint64_t> boundary_per_chunk(num_chunks, 0);
      std::vector<std::uint64_t> interior_per_chunk(num_chunks, 0);
      std::vector<std::uint64_t> pips_per_chunk(num_chunks, 0);
      pool.ParallelFor(rows.size, [&](std::size_t c_begin, std::size_t c_end,
                                      std::size_t chunk) {
        const std::size_t chunk_pips_before = GetThreadPipTestCount();
        raster::PointFrag* const run = buffers.frags.data() + c_begin;
        std::size_t staged = 0;
        accurate_points(
            c_begin, c_end, &partials[chunk],
            [&](const raster::PointFrag& f) { run[staged++] = f; },
            &interior_per_chunk[chunk], &boundary_per_chunk[chunk]);
        runs[chunk] = raster::PointPass::FragRun{run, staged};
        pips_per_chunk[chunk] = GetThreadPipTestCount() - chunk_pips_before;
      });
      pass.BlendRuns(runs, &pool, /*drawn=*/nullptr);
      for (std::size_t c = 0; c < num_chunks; ++c) {
        for (std::size_t t = 0; t < m; ++t) {
          out.arrays[t].AddFrom(partials[c][t]);
        }
        interior_points += interior_per_chunk[c];
        boundary_points += boundary_per_chunk[c];
        worker_pips += pips_per_chunk[c];
      }
    }
    upload_pipeline.Release(*view);
    device->counters().AddBatches(1);
  }
  RJ_RETURN_NOT_OK(upload_pipeline.Drain(&out.timing));

  // --- Step 3 per member: polygons over the member's canvas, skipping
  // boundary fragments (those points were resolved exactly above). --------
  for (std::size_t t = 0; t < m; ++t) {
    ScopedPhase sp(&out.timing, phase::kProcessing);
    raster::ResultArrays poly_pass(polys.size());
    raster::DrawPolygons(vp, soup, *point_leases[t], &boundary_mask,
                         &poly_pass, &device->counters(), &device->pool(),
                         scissor);
    out.arrays[t].AddFrom(poly_pass);
    device->counters().AddRenderPasses(1);
  }

  const std::uint64_t pips =
      (GetThreadPipTestCount() - pip_before) + worker_pips;
  device->counters().AddPipTests(pips);
  if (stats != nullptr) {
    stats->boundary_points = boundary_points;
    stats->interior_points = interior_points;
    stats->pip_tests = pips;
    stats->num_batches = num_batches;
  }
  return out;
}

Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const PointTable& points,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats) {
  const std::int32_t dim = AccurateCanvasDim(*device, options.canvas_dim);
  RJ_RETURN_NOT_OK(ValidateAccurateCanvas(*device, dim, world));
  // The polygon preprocessing, built per call (see the file comment).
  PhaseTimer prep_timing;
  Timer t;
  RJ_ASSIGN_OR_RETURN(GridIndex index,
                      GridIndex::Build(polys, world, options.index_resolution,
                                       GridAssignMode::kMbr));
  prep_timing.Add(phase::kIndexBuild, t.ElapsedSeconds());
  t.Restart();
  const raster::Fbo mask = BuildBoundaryMask(
      polys, world, dim, &device->counters(), &device->pool());
  prep_timing.Add(phase::kProcessing, t.ElapsedSeconds());

  FusedMemberSpec member;
  member.weight_column = options.weight_column;
  member.filters = options.filters;
  FusedJoinOptions group;
  group.canvas_dim = options.canvas_dim;
  group.overlap_transfers = options.overlap_transfers;
  const data::TableBlockSource batches =
      TableBatches(device, points, member, options.batch_size,
                   &group.overlap_transfers);
  RJ_ASSIGN_OR_RETURN(
      FusedJoinOutput out,
      FusedAccurateRasterJoin(device, batches, AllBlocks(batches), polys, soup,
                              world, mask, index, group, {member}, stats));
  for (const auto& [name, seconds] : prep_timing.phases()) {
    out.timing.Add(name, seconds);
  }
  return SoloResult(&out);
}

}  // namespace rj
