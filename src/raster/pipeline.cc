#include "raster/pipeline.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "raster/conservative.h"
#include "raster/rasterizer.h"

namespace rj::raster {

namespace {

/// Row bands per canvas: enough to keep every worker busy in the fragment
/// stage. Clamped to the canvas height so a band always owns at least one
/// full row (exclusive writes).
std::size_t PlanBands(std::int32_t height, std::size_t workers) {
  return std::min<std::size_t>(static_cast<std::size_t>(height),
                               std::max<std::size_t>(workers, 1));
}

/// One outline fragment of DrawBoundaries.
struct PixelXY {
  std::int32_t x;
  std::int32_t y;
};

/// One filter conjunct over `n` values of its column into the byte mask
/// `keep`: the first conjunct sets it, later ones narrow it. Branch-free
/// (the comparison is a 0/1 value), so the loop vectorizes.
template <bool kFirst, typename Op>
void EvalConjunct(const float* col, float value, std::size_t n,
                  std::uint8_t* keep, Op op) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto pass = static_cast<std::uint8_t>(op(col[i], value));
    keep[i] = kFirst ? pass : static_cast<std::uint8_t>(keep[i] & pass);
  }
}

template <bool kFirst>
void EvalConjunct(const AttributeFilter& f, const float* col, std::size_t n,
                  std::uint8_t* keep) {
  switch (f.op) {
    case FilterOp::kGreater:
      return EvalConjunct<kFirst>(col, f.value, n, keep, std::greater<>());
    case FilterOp::kGreaterEqual:
      return EvalConjunct<kFirst>(col, f.value, n, keep,
                                  std::greater_equal<>());
    case FilterOp::kLess:
      return EvalConjunct<kFirst>(col, f.value, n, keep, std::less<>());
    case FilterOp::kLessEqual:
      return EvalConjunct<kFirst>(col, f.value, n, keep, std::less_equal<>());
    case FilterOp::kEqual:
      return EvalConjunct<kFirst>(col, f.value, n, keep, std::equal_to<>());
  }
}

/// Every conjunct of a non-empty `filters` over rows [begin, begin + n) of
/// `rows`, one column at a time: keep[i] = FilterSet::Matches(row begin+i).
void EvalFilters(const FilterSet& filters, const data::BlockView& rows,
                 std::size_t begin, std::size_t n, std::uint8_t* keep) {
  const std::vector<AttributeFilter>& conjuncts = filters.filters();
  EvalConjunct<true>(conjuncts[0],
                     rows.attribute(conjuncts[0].column) + begin, n, keep);
  for (std::size_t c = 1; c < conjuncts.size(); ++c) {
    EvalConjunct<false>(conjuncts[c],
                        rows.attribute(conjuncts[c].column) + begin, n, keep);
  }
}

}  // namespace

PointPass::PointPass(const Viewport& vp, const data::BlockView& rows,
                     const std::vector<MultiTarget>& targets,
                     PointPassBuffers* buffers)
    : vp_(vp), rows_(rows), targets_(targets), buffers_(buffers) {
  const std::size_t m = targets.size();
  // Fragments pack the pixel and the row into 32 bits each.
  assert(static_cast<std::uint64_t>(vp.width()) *
             static_cast<std::uint64_t>(vp.height()) <=
         std::numeric_limits<std::uint32_t>::max());
  assert(rows.size <= std::numeric_limits<std::uint32_t>::max());
  weights_.resize(m);
  for (std::size_t t = 0; t < m; ++t) {
    weights_[t] = targets[t].weight_column != PointTable::npos
                      ? rows.attribute(targets[t].weight_column)
                      : nullptr;
    all_rows_ = all_rows_ || targets[t].filters->empty();
  }
  if (m > 1) {
    buffers->match.resize(m * rows.size);
    match_ = buffers->match.data();
  }
}

template <bool kAllRows>
std::size_t PointPass::Transform(const std::uint16_t* sel, std::size_t count,
                                 std::size_t begin, PointFrag* out) const {
  const double width = vp_.width();
  const double height = vp_.height();
  const auto stride = static_cast<std::uint32_t>(vp_.width());
  std::size_t k = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = begin + (kAllRows ? j : sel[j]);
    const Point s = vp_.ToScreen(rows_.At(i));
    // Clip in double, before any integer conversion: NaN fails every
    // comparison, and only coordinates on the canvas are converted.
    const bool inside =
        (s.x >= 0.0) & (s.x < width) & (s.y >= 0.0) & (s.y < height);
    const auto px = static_cast<std::uint32_t>(inside ? s.x : 0.0);
    const auto py = static_cast<std::uint32_t>(inside ? s.y : 0.0);
    // Written unconditionally (k ≤ j, so inside the caller's room) and
    // kept only when on the canvas.
    out[k] = PointFrag{py * stride + px, static_cast<std::uint32_t>(i)};
    k += inside ? 1 : 0;
  }
  return k;
}

std::size_t PointPass::Vertex(std::size_t begin, std::size_t end,
                              PointFrag* out) const {
  const std::size_t n = end - begin;
  assert(n <= kVertexBlockRows);
  const std::size_t m = targets_.size();
  // keep[i]: some target accepts row begin + i. Rows [0, n) are written
  // before they are read (by the filters or the match copy), or never read
  // (all_rows_), so none is zero-filled.
  std::uint8_t keep[kVertexBlockRows];
  for (std::size_t t = 0; t < m; ++t) {
    const FilterSet& filters = *targets_[t].filters;
    std::uint8_t* mask =
        match_ == nullptr ? keep : match_ + t * rows_.size + begin;
    if (filters.empty()) {
      if (match_ != nullptr) std::memset(mask, 1, n);
    } else {
      EvalFilters(filters, rows_, begin, n, mask);
    }
  }
  if (all_rows_) return Transform<true>(nullptr, n, begin, out);
  if (match_ != nullptr) {
    std::memcpy(keep, match_ + begin, n);
    for (std::size_t t = 1; t < m; ++t) {
      const std::uint8_t* mask = match_ + t * rows_.size + begin;
      for (std::size_t i = 0; i < n; ++i) keep[i] |= mask[i];
    }
  }
  // Selection vector of the accepted rows, branch-free.
  std::uint16_t sel[kVertexBlockRows];
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sel[count] = static_cast<std::uint16_t>(i);
    count += keep[i];
  }
  return Transform<false>(sel, count, begin, out);
}

std::uint64_t PointPass::BlendRun(std::size_t t, const FragRun& run,
                                  std::uint32_t lo, std::uint32_t span) const {
  Fbo& fbo = *targets_[t].fbo;
  float* const canvas = fbo.unmarked_data();
  const float* const weights = weights_[t];
  const std::uint8_t* const match =
      match_ != nullptr ? match_ + t * rows_.size : nullptr;
  std::uint64_t blended = 0;
  for (std::size_t k = 0; k < run.size; ++k) {
    const PointFrag f = run.frags[k];
    if (f.pixel - lo >= span || (match != nullptr && match[f.row] == 0)) {
      continue;
    }
    BlendPixel(canvas, weights, f);
    fbo.MarkDirty(f.pixel);
    ++blended;
  }
  return blended;
}

void PointPass::BlendRuns(const std::vector<FragRun>& runs, ThreadPool* pool,
                          std::vector<std::uint64_t>* drawn) const {
  const std::size_t m = targets_.size();
  const std::size_t num_bands = PlanBands(vp_.height(), pool->num_threads());
  const auto width = static_cast<std::uint32_t>(vp_.width());
  const auto height = static_cast<std::size_t>(vp_.height());
  std::vector<std::uint64_t> band_drawn(num_bands * m, 0);
  pool->ParallelFor(num_bands, [&](std::size_t band_begin,
                                   std::size_t band_end, std::size_t) {
    for (std::size_t b = band_begin; b < band_end; ++b) {
      // Band b owns canvas rows [b·h/B, (b+1)·h/B): pixels [lo, lo + span).
      const auto lo =
          static_cast<std::uint32_t>(b * height / num_bands) * width;
      const auto hi =
          static_cast<std::uint32_t>((b + 1) * height / num_bands) * width;
      const std::uint32_t span = hi - lo;
      for (std::size_t t = 0; t < m; ++t) {
        std::uint64_t blended = 0;
        for (const FragRun& run : runs) blended += BlendRun(t, run, lo, span);
        band_drawn[b * m + t] = blended;
      }
    }
  });
  if (drawn == nullptr) return;
  for (std::size_t b = 0; b < num_bands; ++b) {
    for (std::size_t t = 0; t < m; ++t) (*drawn)[t] += band_drawn[b * m + t];
  }
}

std::vector<std::uint64_t> PointPass::Draw(ThreadPool* pool) const {
  const std::size_t n = rows_.size;
  const std::size_t m = targets_.size();
  std::vector<std::uint64_t> drawn(m, 0);
  const std::size_t num_chunks = pool != nullptr ? pool->NumChunks(n) : 1;
  if (num_chunks <= 1) {
    // One worker: each sub-block's fragments are blended while cache-hot.
    PointFrag frags[kVertexBlockRows];
    for (std::size_t begin = 0; begin < n; begin += kVertexBlockRows) {
      const std::size_t count =
          Vertex(begin, std::min(n, begin + kVertexBlockRows), frags);
      for (std::size_t t = 0; t < m; ++t) {
        drawn[t] += BlendRun(t, FragRun{frags, count}, 0,
                             std::numeric_limits<std::uint32_t>::max());
      }
    }
    return drawn;
  }

  // Vertex stage: chunk c writes its fragments, in row order, into the
  // flat buffer from its first row on (a chunk keeps at most one fragment
  // per row, so the runs never overlap).
  buffers_->frags.resize(n);
  PointFrag* const flat = buffers_->frags.data();
  std::vector<FragRun> runs(num_chunks);
  pool->ParallelFor(n, [&](std::size_t begin, std::size_t end,
                           std::size_t chunk) {
    std::size_t count = 0;
    for (std::size_t b = begin; b < end; b += kVertexBlockRows) {
      count += Vertex(b, std::min(end, b + kVertexBlockRows),
                      flat + begin + count);
    }
    runs[chunk] = FragRun{flat + begin, count};
  });
  BlendRuns(runs, pool, &drawn);
  return drawn;
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
  return DrawPointsMulti(vp, data::ViewRows(points, 0, points.size()),
                         {MultiTarget{&filters, weight_column, fbo}}, counters,
                         pool)[0];
}

std::vector<std::uint64_t> DrawPointsMulti(
    const Viewport& vp, const data::BlockView& rows,
    const std::vector<MultiTarget>& targets, gpu::Counters* counters,
    ThreadPool* pool) {
  if (targets.empty()) return {};
  // Reused by every pass on this thread: the band replay reads the buffers
  // only inside this call, and no pass nests in another.
  thread_local PointPassBuffers buffers;
  const std::vector<std::uint64_t> drawn =
      PointPass(vp, rows, targets, &buffers).Draw(pool);

  if (counters != nullptr) {
    // The scan is shared: meter the vertex stage once for the whole group,
    // and the fragment stage as the sum of what every target blended.
    counters->AddVerticesProcessed(rows.size);
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
  // of adding into `acc` per fragment. A row's covered interval is metered
  // whole; only its pixels in dirty strips can hold a point, and only they
  // are read.
  const float* const pixels = point_fbo.data().data();
  const auto width = static_cast<std::size_t>(point_fbo.width());
  const auto shade = [&](const Triangle& tri, ResultArrays* acc,
                         Meter* meter) {
    const std::size_t id = static_cast<std::size_t>(tri.polygon_id);
    double count = acc->count[id];
    double sum = acc->sum[id];
    double min = min_max_tracked ? acc->min[id] : 0.0;
    double max = min_max_tracked ? acc->max[id] : 0.0;
    std::uint64_t fragments = 0;
    std::uint64_t atomics = 0;
    const auto shade_pixels = [&](std::size_t first, std::size_t end) {
      for (std::size_t p = first; p < end; ++p) {
        if (boundary_fbo != nullptr &&
            IsBoundaryPixel(*boundary_fbo, static_cast<std::uint32_t>(p))) {
          // Accurate variant: boundary pixels were handled point-by-point.
          continue;
        }
        const float* px = pixels + p * kChannels;
        if (px[kChannelCount] == 0.0f) continue;  // empty pixel
        count += px[kChannelCount];
        sum += px[kChannelSum];
        if (min_max_tracked) {
          min = std::min(min, static_cast<double>(px[kChannelMin]));
          max = std::max(max, static_cast<double>(px[kChannelMax]));
        }
        ++atomics;
      }
    };
    RasterizeTriangleSpans(
        vp.ToScreen(tri.a), vp.ToScreen(tri.b), vp.ToScreen(tri.c), clip,
        [&](std::int32_t y, std::int32_t x_first, std::int32_t x_last) {
          fragments += static_cast<std::uint64_t>(x_last - x_first) + 1;
          const std::size_t row = static_cast<std::size_t>(y) * width;
          const std::size_t first = row + static_cast<std::size_t>(x_first);
          const std::size_t end = row + static_cast<std::size_t>(x_last) + 1;
          for (std::size_t s = first >> kStripShift;
               s <= (end - 1) >> kStripShift; ++s) {
            if (!point_fbo.StripDirty(s)) continue;
            shade_pixels(std::max(first, s << kStripShift),
                         std::min(end, (s + 1) << kStripShift));
          }
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
    // Parallel path: each chunk rasterizes its polygons into its own
    // fragment list; each row band's owner then sets the pixels of its rows
    // from every list. The mark is an idempotent Set(…, 1), so replay
    // order cannot matter — bitwise identity with the sequential pass is
    // free. The fragment meter counts the staged fragments, duplicates
    // included, exactly as the sequential loop counts them.
    std::vector<std::vector<PixelXY>> staged(num_chunks);
    pool->ParallelFor(polys.size(), [&](std::size_t begin, std::size_t end,
                                        std::size_t chunk) {
      for (std::size_t i = begin; i < end; ++i) {
        draw_polygon(polys[i], [&](std::int32_t x, std::int32_t y) {
          staged[chunk].push_back({x, y});
        });
      }
    });
    const std::size_t num_bands = PlanBands(height, pool->num_threads());
    pool->ParallelFor(num_bands, [&](std::size_t band_begin,
                                     std::size_t band_end, std::size_t) {
      // Bands [band_begin, band_end) own rows [y0, y1).
      const auto y0 = static_cast<std::int32_t>(
          band_begin * static_cast<std::size_t>(height) / num_bands);
      const auto y1 = static_cast<std::int32_t>(
          band_end * static_cast<std::size_t>(height) / num_bands);
      for (const std::vector<PixelXY>& frags : staged) {
        for (const PixelXY& f : frags) {
          if (f.y >= y0 && f.y < y1) {
            boundary_fbo->Set(f.x, f.y, kChannelCount, 1.0f);
          }
        }
      }
    });
    for (const std::vector<PixelXY>& frags : staged) {
      fragments += frags.size();
    }
  }
  if (counters != nullptr) counters->AddFragments(fragments);
}

}  // namespace rj::raster
