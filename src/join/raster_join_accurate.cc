#include "join/raster_join_accurate.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geometry/pip.h"
#include "join/batch_pipeline.h"
#include "raster/fbo_pool.h"
#include "raster/pipeline.h"

namespace rj {

Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const data::PointBlockSource& source,
                                      std::vector<std::size_t> scan,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats) {
  RJ_RETURN_NOT_OK(ValidatePolygonIds(polys));
  RJ_RETURN_NOT_OK(
      ValidateWeightColumnCount(source.num_attributes(),
                                options.weight_column));
  RJ_RETURN_NOT_OK(
      ValidateFiltersCount(source.num_attributes(), options.filters));

  const std::int32_t dim = options.canvas_dim > 0
                               ? options.canvas_dim
                               : device->options().max_fbo_dim;
  if (dim <= 0) return Status::InvalidArgument("canvas dimension must be > 0");
  if (world.IsEmpty() || world.Width() <= 0 || world.Height() <= 0) {
    return Status::InvalidArgument("world extent is empty");
  }

  JoinResult result(polys.size());
  raster::Viewport vp(world, dim, dim);
  // Pooled canvases (see fbo_pool.h).
  raster::FboLease boundary_lease = raster::FboPool::Shared().Acquire(dim, dim);
  raster::FboLease point_lease = raster::FboPool::Shared().Acquire(dim, dim);
  raster::Fbo& boundary_fbo = *boundary_lease;
  raster::Fbo& point_fbo = *point_lease;

  // --- Step 1: draw polygon outlines (conservative rasterization). -------
  {
    ScopedPhase sp(&result.timing, phase::kProcessing);
    raster::DrawBoundaries(vp, polys, /*conservative=*/true, &boundary_fbo,
                           &device->counters(), &device->pool());
  }

  // Build the grid index on the device, on the fly (§6.1 "Polygon Index").
  RJ_ASSIGN_OR_RETURN(
      GridIndex index,
      [&]() {
        Timer t;
        auto r = GridIndex::Build(polys, world, options.index_resolution,
                                  GridAssignMode::kMbr);
        result.timing.Add(phase::kIndexBuild, t.ElapsedSeconds());
        return r;
      }());

  const bool has_weight = options.weight_column != PointTable::npos;

  const std::vector<std::size_t> columns =
      UploadColumns(options.filters, options.weight_column);
  const std::size_t num_batches = scan.size();

  std::uint64_t boundary_points = 0;
  std::uint64_t interior_points = 0;
  // Per-thread metering window so concurrent queries on a shared device
  // don't absorb each other's PIP tests; parallel chunks contribute their
  // own workers' deltas below.
  std::uint64_t worker_pips = 0;
  const std::size_t pip_before = GetThreadPipTestCount();

  // --- Step 2: draw points (Procedure AccuratePoints). -------------------
  // Batch b+1's host→device transfer runs on the pipeline's prefetch
  // thread while this loop processes batch b (plus, for disk sources, the
  // reader thread materializing batch b+2).
  join::BatchPipeline upload_pipeline(device, &source, std::move(scan),
                                      columns, {options.overlap_transfers});
  for (;;) {
    RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                        upload_pipeline.Acquire());
    if (!view.has_value()) break;
    const PointTable& rows = *view->rows;
    const std::size_t begin = view->begin;
    const std::size_t end = view->end;

    ScopedPhase sp(&result.timing, phase::kProcessing);

    // Procedure AccuratePoints for row i of `rows`. Boundary-pixel points
    // take the exact PIP path into `acc`; interior points are handed to
    // `emit_interior` (either a direct FBO blend or a staged fragment).
    // Returns 0 = filtered/clipped, 1 = interior, 2 = boundary.
    const auto process_point = [&](std::size_t i, raster::ResultArrays* acc,
                                   const auto& emit_interior) -> int {
      if (!options.filters.Matches(rows, i)) return 0;

      const Point p = rows.At(i);
      const Point s = vp.ToScreen(p);
      const auto px = static_cast<std::int32_t>(std::floor(s.x));
      const auto py = static_cast<std::int32_t>(std::floor(s.y));
      if (px < 0 || px >= dim || py < 0 || py >= dim) return 0;  // clipped

      const float w = has_weight
                          ? rows.attribute(options.weight_column)[i]
                          : 0.0f;
      if (raster::IsBoundaryPixel(boundary_fbo, px, py)) {
        // Procedure JoinPoint: index lookup + exact PIP per candidate.
        auto [cand_begin, cand_end] = index.Candidates(p);
        for (const std::int32_t* c = cand_begin; c != cand_end; ++c) {
          const Polygon& poly = polys[static_cast<std::size_t>(*c)];
          if (!poly.Contains(p)) continue;
          const std::size_t id = static_cast<std::size_t>(poly.id());
          acc->count[id] += 1.0;
          if (has_weight) {
            acc->sum[id] += w;
            acc->min[id] = std::min(acc->min[id], static_cast<double>(w));
            acc->max[id] = std::max(acc->max[id], static_cast<double>(w));
          }
        }
        return 2;
      }
      emit_interior(raster::PointFrag{px, py, w});
      return 1;
    };

    const auto blend = [&](const raster::PointFrag& f) {
      raster::BlendPointFrag(&point_fbo, f, has_weight);
    };

    ThreadPool& pool = device->pool();
    const std::size_t batch_n = end - begin;
    const std::size_t num_chunks = pool.NumChunks(batch_n);
    if (num_chunks <= 1) {
      for (std::size_t i = begin; i < end; ++i) {
        switch (process_point(i, &result.arrays, blend)) {
          case 1: ++interior_points; break;
          case 2: ++boundary_points; break;
          default: break;
        }
      }
    } else {
      // Tiled-parallel AccuratePoints: each chunk classifies its slice of
      // the batch, staging interior fragments per row band and accumulating
      // boundary-point PIP results into a private ResultArrays; both are
      // merged deterministically (ascending chunk order) afterwards.
      raster::BandBinner binner(num_chunks, dim, /*expected_frags=*/batch_n);
      std::vector<raster::ResultArrays> partials(
          num_chunks, raster::ResultArrays(polys.size()));
      std::vector<std::uint64_t> boundary_per_chunk(num_chunks, 0);
      std::vector<std::uint64_t> interior_per_chunk(num_chunks, 0);
      std::vector<std::uint64_t> pips_per_chunk(num_chunks, 0);
      pool.ParallelFor(batch_n, [&](std::size_t c_begin, std::size_t c_end,
                                    std::size_t chunk) {
        const std::size_t chunk_pips_before = GetThreadPipTestCount();
        for (std::size_t k = c_begin; k < c_end; ++k) {
          switch (process_point(begin + k, &partials[chunk],
                                [&](const raster::PointFrag& f) {
                                  binner.Push(chunk, f);
                                })) {
            case 1: ++interior_per_chunk[chunk]; break;
            case 2: ++boundary_per_chunk[chunk]; break;
            default: break;
          }
        }
        pips_per_chunk[chunk] = GetThreadPipTestCount() - chunk_pips_before;
      });
      pool.ParallelFor(
          binner.num_bands(),
          [&](std::size_t band_begin, std::size_t band_end, std::size_t) {
            binner.ReplayBands(band_begin, band_end, blend);
          });
      for (std::size_t c = 0; c < num_chunks; ++c) {
        result.arrays.AddFrom(partials[c]);
        boundary_points += boundary_per_chunk[c];
        interior_points += interior_per_chunk[c];
        worker_pips += pips_per_chunk[c];
      }
    }
    upload_pipeline.Release(*view);
    device->counters().AddBatches(1);
  }
  RJ_RETURN_NOT_OK(upload_pipeline.Drain(&result.timing));

  // --- Step 3: render polygons, skipping boundary fragments. -------------
  {
    ScopedPhase sp(&result.timing, phase::kProcessing);
    raster::ResultArrays poly_pass(polys.size());
    raster::DrawPolygons(vp, soup, point_fbo, &boundary_fbo, &poly_pass,
                         &device->counters(), &device->pool());
    result.arrays.AddFrom(poly_pass);
  }
  device->counters().AddRenderPasses(1);

  const std::uint64_t pips =
      (GetThreadPipTestCount() - pip_before) + worker_pips;
  device->counters().AddPipTests(pips);
  if (stats != nullptr) {
    stats->boundary_points = boundary_points;
    stats->interior_points = interior_points;
    stats->pip_tests = pips;
    stats->num_batches = num_batches;
  }
  return result;
}

Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const PointTable& points,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats) {
  // Batch planning for out-of-core inputs (see PlanPointBatch: the budget
  // covers the pipeline's in-flight buffers, 2 when transfers overlap).
  const std::size_t bytes_per_point =
      UploadBytesPerPoint(options.filters, options.weight_column);
  AccurateRasterJoinOptions planned = options;
  if (planned.batch_size == 0) {
    const UploadPlan plan = PlanUpload(device->bytes_free(), bytes_per_point,
                                       points.size(),
                                       options.overlap_transfers);
    planned.batch_size = plan.batch_size;
    planned.overlap_transfers = plan.overlap_transfers;
  }

  data::TableBlockSource adapter(&points,
                                 std::max<std::size_t>(planned.batch_size, 1));
  return AccurateRasterJoin(device, adapter, AllBlocks(adapter), polys, soup,
                            world, planned, stats);
}

}  // namespace rj
