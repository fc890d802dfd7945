#include "join/fused_join.h"

#include <algorithm>
#include <cmath>

#include "geometry/pip.h"
#include "index/grid_index.h"
#include "join/batch_pipeline.h"
#include "raster/fbo_pool.h"
#include "raster/pipeline.h"

namespace rj {

namespace {

Status ValidateMembers(const data::PointBlockSource& source,
                       const PolygonSet& polys,
                       const std::vector<FusedMemberSpec>& members) {
  if (members.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  RJ_RETURN_NOT_OK(ValidatePolygonIds(polys));
  for (const FusedMemberSpec& member : members) {
    RJ_RETURN_NOT_OK(ValidateWeightColumnCount(source.num_attributes(),
                                               member.weight_column));
    RJ_RETURN_NOT_OK(
        ValidateFiltersCount(source.num_attributes(), member.filters));
  }
  return Status::OK();
}

}  // namespace

std::vector<std::size_t> FusedUploadColumns(
    const std::vector<FusedMemberSpec>& members) {
  std::vector<std::size_t> columns;
  for (const FusedMemberSpec& member : members) {
    const std::vector<std::size_t> own =
        UploadColumns(member.filters, member.weight_column);
    columns.insert(columns.end(), own.begin(), own.end());
  }
  // Canonical ascending order: the union is a set, and a deterministic
  // column order keeps the upload stride (and thus batch planning and the
  // transfer meter) independent of member order within the group.
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

Result<FusedJoinOutput> FusedBoundedRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members) {
  RJ_RETURN_NOT_OK(ValidateMembers(source, polys, members));
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  const std::size_t m = members.size();

  FusedJoinOutput out;
  out.arrays.assign(m, raster::ResultArrays(polys.size()));
  out.ranges.resize(m);
  out.point_fbos.resize(m);

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

  const std::vector<std::size_t> columns = FusedUploadColumns(members);

  // One triangle VBO for the whole group: Step II reads the same
  // triangulation for every member (see BoundedRasterJoin on why it ships
  // exactly once per execution).
  RJ_RETURN_NOT_OK(UploadTriangleVbo(device, soup.size(), &out.timing));

  join::BatchPipeline pipeline(device, &source, std::move(scan), columns,
                               {options.overlap_transfers});

  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const raster::CanvasTile& tile = tiles[t];
    raster::Viewport vp(tile.world, tile.width, tile.height);

    // One pooled canvas per member; targets alias them for the multi draw.
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

    // --- Step I: one shared point scan feeding every member. -------------
    if (t > 0) RJ_RETURN_NOT_OK(pipeline.Rewind());
    for (;;) {
      RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                          pipeline.Acquire());
      if (!view.has_value()) break;
      {
        ScopedPhase sp(&out.timing, phase::kProcessing);
        const PointTable& rows = *view->rows;
        if (view->begin == 0 && view->end == rows.size()) {
          // Whole-table/whole-block batch: draw in place, no slice copy.
          raster::DrawPointsMulti(vp, rows, targets, &device->counters(),
                                  &device->pool());
        } else {
          raster::DrawPointsMulti(vp, rows.Slice(view->begin, view->end),
                                  targets, &device->counters(),
                                  &device->pool());
        }
      }
      pipeline.Release(*view);
      device->counters().AddBatches(1);
    }

    // --- Step II per member: polygons over the member's own canvas. ------
    for (std::size_t i = 0; i < m; ++i) {
      const raster::Fbo& point_fbo = *targets[i].fbo;
      if (members[i].export_point_fbo) {
        out.point_fbos[i].emplace(point_fbo);
      }
      {
        ScopedPhase sp(&out.timing, phase::kProcessing);
        raster::ResultArrays tile_result(polys.size());
        raster::DrawPolygons(vp, soup, point_fbo, /*boundary_fbo=*/nullptr,
                             &tile_result, &device->counters(),
                             &device->pool());
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
  return out;
}

Result<FusedJoinOutput> FusedAccurateRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members) {
  RJ_RETURN_NOT_OK(ValidateMembers(source, polys, members));
  for (const FusedMemberSpec& member : members) {
    if (member.compute_result_ranges || member.export_point_fbo) {
      return Status::NotImplemented(
          "result ranges / point-FBO export are bounded-variant features");
    }
  }
  const std::size_t m = members.size();

  const std::int32_t dim = options.canvas_dim > 0
                               ? options.canvas_dim
                               : device->options().max_fbo_dim;
  if (dim <= 0) return Status::InvalidArgument("canvas dimension must be > 0");
  if (world.IsEmpty() || world.Width() <= 0 || world.Height() <= 0) {
    return Status::InvalidArgument("world extent is empty");
  }

  FusedJoinOutput out;
  out.arrays.assign(m, raster::ResultArrays(polys.size()));
  out.ranges.resize(m);
  out.point_fbos.resize(m);

  raster::Viewport vp(world, dim, dim);

  // The boundary FBO and grid index depend only on the polygons and the
  // canvas — member-independent, built once for the group.
  raster::FboLease boundary_lease = raster::FboPool::Shared().Acquire(dim, dim);
  raster::Fbo& boundary_fbo = *boundary_lease;
  {
    ScopedPhase sp(&out.timing, phase::kProcessing);
    raster::DrawBoundaries(vp, polys, /*conservative=*/true, &boundary_fbo,
                           &device->counters(), &device->pool());
  }
  RJ_ASSIGN_OR_RETURN(
      GridIndex index,
      [&]() {
        Timer t;
        auto r = GridIndex::Build(polys, world, options.index_resolution,
                                  GridAssignMode::kMbr);
        out.timing.Add(phase::kIndexBuild, t.ElapsedSeconds());
        return r;
      }());

  std::vector<raster::FboLease> point_leases;
  point_leases.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    point_leases.push_back(raster::FboPool::Shared().Acquire(dim, dim));
  }

  std::uint64_t worker_pips = 0;
  const std::size_t pip_before = GetThreadPipTestCount();

  // --- Step 2: one shared scan (Procedure AccuratePoints, fused). --------
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

    // Fused AccuratePoints for point i: the member-independent work —
    // transform, clip, boundary classification, and (for boundary pixels)
    // the candidate PIP resolution — runs once; each member whose filters
    // match then accumulates exactly what its solo run would. `contained`
    // holds the containing polygon ids in candidate order, so per-member
    // accumulation order equals the unfused candidate loop's order.
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
      if (!any) return;

      const Point p = points.At(i);
      const Point s = vp.ToScreen(p);
      const auto px = static_cast<std::int32_t>(std::floor(s.x));
      const auto py = static_cast<std::int32_t>(std::floor(s.y));
      if (px < 0 || px >= dim || py < 0 || py >= dim) return;  // clipped

      if (raster::IsBoundaryPixel(boundary_fbo, px, py)) {
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
        return;
      }
      for (std::size_t t = 0; t < m; ++t) {
        if ((*match)[t] == 0) continue;
        const float w = weights[t] != nullptr ? (*weights[t])[i] : 0.0f;
        emit_interior(t, raster::PointFrag{px, py, w});
      }
    };

    ThreadPool& pool = device->pool();
    const std::size_t batch_n = end - begin;
    const std::size_t num_chunks = pool.NumChunks(batch_n);
    if (num_chunks <= 1) {
      std::vector<unsigned char> match(m, 0);
      std::vector<std::size_t> contained;
      for (std::size_t i = begin; i < end; ++i) {
        process_point(
            i, &out.arrays,
            [&](std::size_t t, const raster::PointFrag& f) {
              raster::BlendPointFrag(point_leases[t].get(), f,
                                     weights[t] != nullptr);
            },
            &match, &contained);
      }
    } else {
      // Tiled-parallel fused AccuratePoints: per chunk, a private
      // ResultArrays per member plus one interior-fragment binner per
      // member; both merged in ascending chunk order — each member's
      // accumulation sequence is exactly its solo sequential order.
      std::vector<raster::BandBinner> binners;
      binners.reserve(m);
      for (std::size_t t = 0; t < m; ++t) {
        binners.emplace_back(num_chunks, dim, /*expected_frags=*/batch_n);
      }
      std::vector<std::vector<raster::ResultArrays>> partials(
          num_chunks,
          std::vector<raster::ResultArrays>(
              m, raster::ResultArrays(polys.size())));
      std::vector<std::uint64_t> pips_per_chunk(num_chunks, 0);
      pool.ParallelFor(batch_n, [&](std::size_t c_begin, std::size_t c_end,
                                    std::size_t chunk) {
        const std::size_t chunk_pips_before = GetThreadPipTestCount();
        std::vector<unsigned char> match(m, 0);
        std::vector<std::size_t> contained;
        for (std::size_t k = c_begin; k < c_end; ++k) {
          process_point(
              begin + k, &partials[chunk],
              [&](std::size_t t, const raster::PointFrag& f) {
                binners[t].Push(chunk, f);
              },
              &match, &contained);
        }
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
    raster::DrawPolygons(vp, soup, *point_leases[t], &boundary_fbo,
                         &poly_pass, &device->counters(), &device->pool());
    out.arrays[t].AddFrom(poly_pass);
    device->counters().AddRenderPasses(1);
  }

  device->counters().AddPipTests((GetThreadPipTestCount() - pip_before) +
                                 worker_pips);
  return out;
}

}  // namespace rj
