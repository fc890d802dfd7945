#include "join/raster_join_accurate.h"

#include <algorithm>
#include <cmath>
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
  // thread while this loop processes batch b (plus, for disk sources, the
  // reader thread materializing batch b+2).
  join::BatchPipeline upload_pipeline(device, &source, std::move(scan),
                                      FusedUploadColumns(members),
                                      {options.overlap_transfers});
  std::vector<const std::vector<float>*> weights(m, nullptr);
  for (;;) {
    RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                        upload_pipeline.Acquire());
    if (!view.has_value()) break;
    const PointTable& points = *view->rows;
    const std::size_t begin = view->begin;
    const std::size_t end = view->end;
    for (std::size_t t = 0; t < m; ++t) {
      if (members[t].weight_column != PointTable::npos) {
        weights[t] = &points.attribute(members[t].weight_column);
      }
    }

    ScopedPhase sp(&out.timing, phase::kProcessing);

    // AccuratePoints for point i: the member-independent work — transform,
    // clip, boundary classification, and (for boundary pixels) the
    // candidate PIP resolution via Procedure JoinPoint — runs once; each
    // member whose filters match then accumulates its share: boundary
    // points into `accs`, interior points through `emit_interior`.
    // `contained` holds the containing polygon ids in candidate order, so
    // every member accumulates in its group-of-one order.
    // Returns 0 = no member/clipped, 1 = interior, 2 = boundary.
    const auto process_point = [&](std::size_t i,
                                   std::vector<raster::ResultArrays>* accs,
                                   const auto& emit_interior,
                                   std::vector<unsigned char>* match,
                                   std::vector<std::size_t>* contained) {
      bool any = false;
      for (std::size_t t = 0; t < m; ++t) {
        (*match)[t] = members[t].filters.Matches(points, i) ? 1 : 0;
        any |= (*match)[t] != 0;
      }
      if (!any) return 0;

      const Point p = points.At(i);
      const Point s = vp.ToScreen(p);
      const auto px = static_cast<std::int32_t>(std::floor(s.x));
      const auto py = static_cast<std::int32_t>(std::floor(s.y));
      if (px < 0 || px >= dim || py < 0 || py >= dim) return 0;  // clipped

      if (raster::IsBoundaryPixel(boundary_mask, px, py)) {
        contained->clear();
        auto [cand_begin, cand_end] = index.Candidates(p);
        for (const std::int32_t* c = cand_begin; c != cand_end; ++c) {
          const Polygon& poly = polys[static_cast<std::size_t>(*c)];
          if (!poly.Contains(p)) continue;
          contained->push_back(static_cast<std::size_t>(poly.id()));
        }
        for (std::size_t t = 0; t < m; ++t) {
          if ((*match)[t] == 0) continue;
          const bool has_weight = weights[t] != nullptr;
          const float w = has_weight ? (*weights[t])[i] : 0.0f;
          raster::ResultArrays& acc = (*accs)[t];
          for (const std::size_t id : *contained) {
            acc.count[id] += 1.0;
            if (has_weight) {
              acc.sum[id] += w;
              acc.min[id] = std::min(acc.min[id], static_cast<double>(w));
              acc.max[id] = std::max(acc.max[id], static_cast<double>(w));
            }
          }
        }
        return 2;
      }
      for (std::size_t t = 0; t < m; ++t) {
        if ((*match)[t] == 0) continue;
        const float w = weights[t] != nullptr ? (*weights[t])[i] : 0.0f;
        emit_interior(t, raster::PointFrag{px, py, w});
      }
      return 1;
    };

    ThreadPool& pool = device->pool();
    const std::size_t batch_n = end - begin;
    const std::size_t num_chunks = pool.NumChunks(batch_n);
    if (num_chunks <= 1) {
      std::vector<unsigned char> match(m, 0);
      std::vector<std::size_t> contained;
      for (std::size_t i = begin; i < end; ++i) {
        switch (process_point(
            i, &out.arrays,
            [&](std::size_t t, const raster::PointFrag& f) {
              raster::BlendPointFrag(point_leases[t].get(), f,
                                     weights[t] != nullptr);
            },
            &match, &contained)) {
          case 1: ++interior_points; break;
          case 2: ++boundary_points; break;
          default: break;
        }
      }
    } else {
      // Tiled-parallel AccuratePoints: per chunk, a private ResultArrays
      // per member plus one interior-fragment binner per member; both
      // merged in ascending chunk order — each member's accumulation
      // sequence is exactly its sequential order.
      std::vector<raster::BandBinner> binners;
      binners.reserve(m);
      for (std::size_t t = 0; t < m; ++t) {
        binners.emplace_back(num_chunks, dim, /*expected_frags=*/batch_n);
      }
      std::vector<std::vector<raster::ResultArrays>> partials(
          num_chunks,
          std::vector<raster::ResultArrays>(
              m, raster::ResultArrays(polys.size())));
      std::vector<std::uint64_t> boundary_per_chunk(num_chunks, 0);
      std::vector<std::uint64_t> interior_per_chunk(num_chunks, 0);
      std::vector<std::uint64_t> pips_per_chunk(num_chunks, 0);
      pool.ParallelFor(batch_n, [&](std::size_t c_begin, std::size_t c_end,
                                    std::size_t chunk) {
        const std::size_t chunk_pips_before = GetThreadPipTestCount();
        std::vector<unsigned char> match(m, 0);
        std::vector<std::size_t> contained;
        std::uint64_t interior = 0;
        std::uint64_t boundary = 0;
        for (std::size_t k = c_begin; k < c_end; ++k) {
          switch (process_point(
              begin + k, &partials[chunk],
              [&](std::size_t t, const raster::PointFrag& f) {
                binners[t].Push(chunk, f);
              },
              &match, &contained)) {
            case 1: ++interior; break;
            case 2: ++boundary; break;
            default: break;
          }
        }
        interior_per_chunk[chunk] = interior;
        boundary_per_chunk[chunk] = boundary;
        pips_per_chunk[chunk] = GetThreadPipTestCount() - chunk_pips_before;
      });
      pool.ParallelFor(
          binners[0].num_bands(),
          [&](std::size_t band_begin, std::size_t band_end, std::size_t) {
            for (std::size_t t = 0; t < m; ++t) {
              binners[t].ReplayBands(
                  band_begin, band_end, [&](const raster::PointFrag& f) {
                    raster::BlendPointFrag(point_leases[t].get(), f,
                                           weights[t] != nullptr);
                  });
            }
          });
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
