#include "raster/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "raster/conservative.h"
#include "raster/rasterizer.h"

namespace rj::raster {

namespace {

/// Row bands per canvas: enough to keep every worker busy in the fragment
/// stage without shattering the buckets. Clamped to the canvas height so a
/// band always owns at least one full row (exclusive writes).
std::size_t PlanBands(std::int32_t height, std::size_t workers) {
  return std::min<std::size_t>(static_cast<std::size_t>(height),
                               std::max<std::size_t>(workers, 1));
}

/// One target's state in a point pass (its lane), resolved once per pass.
struct Lane {
  const FilterSet* filters;
  const float* weights;  ///< null for a COUNT-only target
  Fbo* fbo;
};

/// The point pass of DrawPointsMulti over `lanes`, adding each target's
/// drawn count to `drawn`. Instantiated for exactly one target (every solo
/// query) and for any number: with one target its state is a register
/// copy across the point loop, instead of a re-read of `lanes` after every
/// staged fragment (whose pointer stores may alias it), which measured
/// 5–15% faster on the point pass.
template <bool kOneTarget>
void PointPass(const Viewport& vp, const PointTable& points,
               const std::vector<Lane>& lanes, ThreadPool* pool,
               std::vector<std::uint64_t>* drawn) {
  const std::size_t n = points.size();
  const std::size_t m = kOneTarget ? 1 : lanes.size();
  const std::int32_t width = lanes[0].fbo->width();
  const std::int32_t height = lanes[0].fbo->height();

  // The vertex stage of point i, shared by every target: the filter
  // decision is per target, but the transform+clip runs at most once (it
  // is a pure function of the point, so reusing it is bit-identical to
  // each target recomputing it). Filtered-out points are skipped before
  // the transform (the paper's vertex shader positions them outside the
  // viewport); clipped points reach no target. `first` is the caller's
  // copy of lanes[0]; `emit(t, frag)` receives each surviving fragment.
  const auto vertex_stage = [&](std::size_t i, const Lane& first,
                                const auto& emit) {
    bool transformed = false;
    std::int32_t px = 0;
    std::int32_t py = 0;
    for (std::size_t t = 0; t < m; ++t) {
      const Lane& lane = kOneTarget ? first : lanes[t];
      if (!lane.filters->Matches(points, i)) continue;
      if (!transformed) {
        const Point s = vp.ToScreen(points.At(i));
        px = static_cast<std::int32_t>(std::floor(s.x));
        py = static_cast<std::int32_t>(std::floor(s.y));
        if (px < 0 || px >= width || py < 0 || py >= height) return;
        transformed = true;
      }
      emit(t, PointFrag{px, py,
                        lane.weights != nullptr ? lane.weights[i] : 0.0f});
    }
  };

  const std::size_t num_chunks = pool != nullptr ? pool->NumChunks(n) : 1;
  if (num_chunks <= 1) {
    // Sequential path: vertex and fragment stage fused per point.
    const Lane first = lanes[0];
    std::uint64_t first_drawn = 0;  // lanes[0]'s count, kept like `first`
    for (std::size_t i = 0; i < n; ++i) {
      vertex_stage(i, first, [&](std::size_t t, const PointFrag& f) {
        const Lane& lane = kOneTarget ? first : lanes[t];
        BlendPointFrag(lane.fbo, f, lane.weights != nullptr);
        ++(t == 0 ? first_drawn : (*drawn)[t]);
      });
    }
    (*drawn)[0] += first_drawn;
    return;
  }

  // Tiled-parallel path. Vertex stage: each chunk runs its contiguous
  // slice of the point stream, staging surviving fragments into one
  // binner per target. Nothing else is written per fragment: the drawn
  // counts are the binners' sizes, so no shared counter puts the workers
  // on one cache line.
  std::vector<BandBinner> binners;
  binners.reserve(m);
  for (std::size_t t = 0; t < m; ++t) {
    binners.emplace_back(num_chunks, height, /*expected_frags=*/n);
  }
  pool->ParallelFor(n, [&](std::size_t begin, std::size_t end,
                           std::size_t chunk) {
    const Lane first = lanes[0];
    for (std::size_t i = begin; i < end; ++i) {
      vertex_stage(i, first, [&](std::size_t t, const PointFrag& f) {
        binners[t].Push(chunk, f);
      });
    }
  });

  // Fragment stage: every binner shares the band layout (same height, same
  // chunk count), so each worker owns a contiguous run of row bands and
  // replays every target's fragments there in sequential point order (see
  // BandBinner). Targets' FBOs are disjoint, so cross-target order cannot
  // matter.
  pool->ParallelFor(
      binners[0].num_bands(),
      [&](std::size_t band_begin, std::size_t band_end, std::size_t) {
        for (std::size_t t = 0; t < m; ++t) {
          Fbo* const fbo = lanes[t].fbo;
          const bool has_weight = lanes[t].weights != nullptr;
          binners[t].ReplayBands(band_begin, band_end,
                                 [fbo, has_weight](const PointFrag& f) {
                                   BlendPointFrag(fbo, f, has_weight);
                                 });
        }
      });
  for (std::size_t t = 0; t < m; ++t) (*drawn)[t] += binners[t].size();
}

}  // namespace

BandBinner::BandBinner(std::size_t num_chunks, std::int32_t height,
                       std::size_t expected_frags)
    : num_chunks_(num_chunks),
      num_bands_(PlanBands(height, num_chunks)),
      height_(height),
      buckets_(num_chunks * num_bands_) {
  if (expected_frags > 0) {
    // Pre-size for a uniform spread; skewed inputs still grow as needed.
    const std::size_t per_bucket = expected_frags / buckets_.size() + 1;
    for (auto& bucket : buckets_) bucket.reserve(per_bucket);
  }
}

std::size_t BandBinner::size() const {
  std::size_t total = 0;
  for (const auto& bucket : buckets_) total += bucket.size();
  return total;
}

void ResultArrays::Resize(std::size_t num_polygons) {
  count.assign(num_polygons, 0.0);
  sum.assign(num_polygons, 0.0);
  min.assign(num_polygons, std::numeric_limits<double>::infinity());
  max.assign(num_polygons, -std::numeric_limits<double>::infinity());
}

void ResultArrays::AddFrom(const ResultArrays& other) {
  for (std::size_t i = 0; i < count.size(); ++i) {
    count[i] += other.count[i];
    sum[i] += other.sum[i];
    min[i] = std::min(min[i], other.min[i]);
    max[i] = std::max(max[i], other.max[i]);
  }
}

std::uint64_t DrawPoints(const Viewport& vp, const PointTable& points,
                         const FilterSet& filters, std::size_t weight_column,
                         Fbo* fbo, gpu::Counters* counters, ThreadPool* pool) {
  return DrawPointsMulti(vp, points,
                         {MultiTarget{&filters, weight_column, fbo}}, counters,
                         pool)[0];
}

std::vector<std::uint64_t> DrawPointsMulti(
    const Viewport& vp, const PointTable& points,
    const std::vector<MultiTarget>& targets, gpu::Counters* counters,
    ThreadPool* pool) {
  const std::size_t m = targets.size();
  std::vector<std::uint64_t> drawn(m, 0);
  if (m == 0) return drawn;

  std::vector<Lane> lanes(m);
  for (std::size_t t = 0; t < m; ++t) {
    lanes[t].filters = targets[t].filters;
    lanes[t].weights = targets[t].weight_column != PointTable::npos
                           ? points.attribute(targets[t].weight_column).data()
                           : nullptr;
    lanes[t].fbo = targets[t].fbo;
  }
  if (m == 1) {
    PointPass</*kOneTarget=*/true>(vp, points, lanes, pool, &drawn);
  } else {
    PointPass</*kOneTarget=*/false>(vp, points, lanes, pool, &drawn);
  }

  if (counters != nullptr) {
    // The scan is shared: meter the vertex stage once for the whole group,
    // and the fragment stage as the sum of what every target blended.
    counters->AddVerticesProcessed(points.size());
    std::uint64_t total = 0;
    for (const std::uint64_t d : drawn) total += d;
    counters->AddFragments(total);
  }
  return drawn;
}

void DrawPolygons(const Viewport& vp, const TriangleSoup& soup,
                  const Fbo& point_fbo, const Fbo* boundary_fbo,
                  ResultArrays* result, gpu::Counters* counters,
                  ThreadPool* pool, const PixelRect& scissor) {
  const bool min_max_tracked = !result->min.empty();
  const std::size_t num_polygons = result->count.size();
  const PixelRect clip =
      scissor.Intersect({0, 0, point_fbo.width(), point_fbo.height()});

  // Per-worker meter kept in plain integers so the fragment loop never
  // touches the shared atomics; merged into `counters` once at the end.
  struct Meter {
    std::uint64_t fragments = 0;
    std::uint64_t atomics = 0;
  };

  // Shades one triangle into `acc`, metering into `meter`. Its polygon's
  // accumulators live in locals for the whole scan: loaded once, added in
  // fragment order, stored once — the very additions, in the very order,
  // of adding into `acc` per fragment.
  const auto shade = [&](const Triangle& tri, ResultArrays* acc,
                         Meter* meter) {
    const std::size_t id = static_cast<std::size_t>(tri.polygon_id);
    double count = acc->count[id];
    double sum = acc->sum[id];
    double min = min_max_tracked ? acc->min[id] : 0.0;
    double max = min_max_tracked ? acc->max[id] : 0.0;
    std::uint64_t fragments = 0;
    std::uint64_t atomics = 0;
    RasterizeTriangle(
        vp.ToScreen(tri.a), vp.ToScreen(tri.b), vp.ToScreen(tri.c), clip,
        [&](std::int32_t x, std::int32_t y) {
          ++fragments;
          if (boundary_fbo != nullptr && IsBoundaryPixel(*boundary_fbo, x, y)) {
            // Accurate variant: boundary pixels were handled point-by-point.
            return;
          }
          const float cnt = point_fbo.At(x, y, kChannelCount);
          if (cnt == 0.0f) return;  // empty pixel, nothing to accumulate
          count += cnt;
          sum += point_fbo.At(x, y, kChannelSum);
          if (min_max_tracked) {
            min = std::min(
                min, static_cast<double>(point_fbo.At(x, y, kChannelMin)));
            max = std::max(
                max, static_cast<double>(point_fbo.At(x, y, kChannelMax)));
          }
          ++atomics;
        });
    acc->count[id] = count;
    acc->sum[id] = sum;
    if (min_max_tracked) {
      acc->min[id] = min;
      acc->max[id] = max;
    }
    meter->fragments += fragments;
    meter->atomics += atomics;
  };

  Meter totals;
  const std::size_t num_chunks =
      pool != nullptr ? pool->NumChunks(soup.size()) : 1;
  if (clip.empty()) {
    // Nothing to shade: no pixel in the scissor can hold a point.
  } else if (num_chunks <= 1) {
    for (const Triangle& tri : soup) shade(tri, result, &totals);
  } else {
    // Triangles split across workers; each accumulates into a private
    // ResultArrays (the per-worker SSBO analogue) merged in chunk order.
    std::vector<ResultArrays> partials(num_chunks, ResultArrays(num_polygons));
    std::vector<Meter> meters(num_chunks);
    pool->ParallelFor(soup.size(), [&](std::size_t begin, std::size_t end,
                                       std::size_t chunk) {
      for (std::size_t t = begin; t < end; ++t) {
        shade(soup[t], &partials[chunk], &meters[chunk]);
      }
    });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      result->AddFrom(partials[c]);
      totals.fragments += meters[c].fragments;
      totals.atomics += meters[c].atomics;
    }
  }

  if (counters != nullptr) {
    counters->AddVerticesProcessed(soup.size() * 3);
    counters->AddFragments(totals.fragments);
    counters->AddAtomicAdds(totals.atomics);
  }
}

void DrawBoundaries(const Viewport& vp, const PolygonSet& polys,
                    bool conservative, Fbo* boundary_fbo,
                    gpu::Counters* counters, ThreadPool* pool) {
  const std::int32_t width = boundary_fbo->width();
  const std::int32_t height = boundary_fbo->height();

  // Rasterizes one polygon's rings, invoking `mark(x, y)` per fragment.
  const auto draw_polygon = [&](const Polygon& poly, const auto& mark) {
    const auto draw_ring = [&](const Ring& ring) {
      const std::size_t n = ring.size();
      for (std::size_t i = 0; i < n; ++i) {
        const Point a = vp.ToScreen(ring[i]);
        const Point b = vp.ToScreen(ring[(i + 1) % n]);
        if (conservative) {
          RasterizeSegmentConservative(a, b, width, height, mark);
        } else {
          RasterizeSegment(a, b, width, height, mark);
        }
      }
    };
    draw_ring(poly.outer());
    for (const Ring& hole : poly.holes()) draw_ring(hole);
  };

  std::uint64_t fragments = 0;
  const std::size_t num_chunks =
      pool != nullptr ? pool->NumChunks(polys.size()) : 1;
  if (num_chunks <= 1) {
    for (const Polygon& poly : polys) {
      draw_polygon(poly, [&](std::int32_t x, std::int32_t y) {
        boundary_fbo->Set(x, y, kChannelCount, 1.0f);
        ++fragments;
      });
    }
  } else {
    // Parallel path: each chunk rasterizes its polygons into per-band
    // fragment buckets; each band's owner then sets the pixels. The mark
    // is an idempotent Set(…, 1), so replay order within a band cannot
    // matter — bitwise identity with the sequential pass is free. The
    // fragment meter is counted at staging time so duplicates are counted
    // exactly as the sequential loop counts them.
    BandBinner binner(num_chunks, height);
    std::vector<std::uint64_t> frags_per_chunk(num_chunks, 0);
    pool->ParallelFor(polys.size(), [&](std::size_t begin, std::size_t end,
                                        std::size_t chunk) {
      std::uint64_t local = 0;
      for (std::size_t i = begin; i < end; ++i) {
        draw_polygon(polys[i], [&](std::int32_t x, std::int32_t y) {
          binner.Push(chunk, {x, y, 0.0f});
          ++local;
        });
      }
      frags_per_chunk[chunk] = local;
    });
    pool->ParallelFor(
        binner.num_bands(),
        [&](std::size_t band_begin, std::size_t band_end, std::size_t) {
          binner.ReplayBands(band_begin, band_end, [&](const PointFrag& f) {
            boundary_fbo->Set(f.x, f.y, kChannelCount, 1.0f);
          });
        });
    for (const std::uint64_t f : frags_per_chunk) fragments += f;
  }
  if (counters != nullptr) counters->AddFragments(fragments);
}

}  // namespace rj::raster
