/// \file rasterizer.h
/// \brief Triangle and point scan conversion with OpenGL coverage rules.
///
/// The GL specification defines triangle coverage by the *pixel-center*
/// sample rule: a pixel is covered iff its center lies inside the triangle,
/// with the top-left fill convention breaking ties on shared edges so two
/// triangles sharing an edge never both (or neither) cover a boundary
/// pixel. The paper's entire error analysis (§4.2) is a consequence of this
/// rule, so the software rasterizer reproduces it exactly.
///
/// Implementation follows the classical edge-function formulation of
/// Pineda (1988) / Olano & Greer (1997) cited by the paper (§3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>

#include "geometry/point.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj::raster {

/// Callback invoked for every covered pixel ("fragment shader").
using FragmentCallback =
    std::function<void(std::int32_t x, std::int32_t y)>;

namespace detail {

/// Edge function: signed area relation of pixel sample (sx, sy) to directed
/// edge (p, q). Positive when the sample is to the left of the edge (CCW
/// interior).
inline double EdgeFunction(const Point& p, const Point& q, double sx,
                           double sy) {
  return (q.x - p.x) * (sy - p.y) - (q.y - p.y) * (sx - p.x);
}

/// Top-left rule: an edge owns its boundary samples iff it is a "top" edge
/// (exactly horizontal, going left in CCW order) or a "left" edge. With y
/// increasing upward and the interior to the left of CCW edges, that is
/// the standard D3D/GL convention adapted to y-up: an edge is top-left if
/// (dy > 0) || (dy == 0 && dx < 0).
inline bool IsTopLeft(const Point& p, const Point& q) {
  const double dy = q.y - p.y;
  const double dx = q.x - p.x;
  return dy > 0.0 || (dy == 0.0 && dx < 0.0);
}

/// Narrows the row's candidate range [*lo, *hi] (pixel indices, held in
/// double) to the samples edge (p, q) can accept on row center `sy`.
///
/// The edge function is E(sx) = T - dy·(sx - p.x) with T = dx·(sy - p.y),
/// so E >= 0 bounds sx by the x-intercept X = p.x + T/dy: from above when
/// dy > 0, from below when dy < 0 (a horizontal edge bounds nothing — the
/// other two edges of a non-degenerate triangle bound both sides). The
/// floating-point E the per-pixel test evaluates can differ from the exact
/// one by a few ulps of the operands' magnitudes, and so can X; the margin
/// (relative 1e-9, about 10^6 ulps, plus 1e-9 absolute) covers both, so
/// the range stays a superset of the samples the test accepts. NaN
/// intercepts compare false and narrow nothing.
inline void NarrowSpan(const Point& p, const Point& q, double sy,
                       double sx_magnitude, double* lo, double* hi) {
  const double dy = q.y - p.y;
  if (dy == 0.0) return;
  const double x = p.x + (q.x - p.x) * (sy - p.y) / dy;
  const double margin =
      1e-9 * (1.0 + std::fabs(x) + std::fabs(p.x) + sx_magnitude);
  // Pixel i's sample sits at i + 0.5.
  if (dy > 0.0) {
    const double last = std::floor(x + margin - 0.5);
    if (last < *hi) *hi = last;
  } else {
    const double first = std::ceil(x - margin - 0.5);
    if (first > *lo) *lo = first;
  }
}

}  // namespace detail

/// Scan-converts a triangle given in *screen* coordinates row by row,
/// bottom to top: invokes `span(y, x_first, x_last)` once per row with a
/// covered pixel inside `clip`, where [x_first, x_last] are exactly that
/// row's covered pixels inside `clip`. Degenerate (zero-area) triangles
/// cover nothing.
///
/// The covered pixels of a row are contiguous. On row center sy, the
/// computed edge function of edge (p, q),
///   E(sx) = fl(fl(dx·fl(sy - p.y)) - fl(dy·fl(sx - p.x))),
/// is monotone in sx: each rounding step is monotone, so E is
/// non-increasing when dy > 0, non-decreasing when dy < 0 and constant when
/// dy = 0 (contracting the products into fused multiply-adds rounds fewer
/// times and keeps this). An edge accepts a sample when E > 0, or E = 0 on
/// a top-left edge — a threshold on E — so each edge accepts a prefix, a
/// suffix, all or none of the row, and the three edges together one
/// interval. NarrowSpan bounds the row to a superset of it (widened for
/// rounding); the edge test then runs inward from both ends of that range
/// and stops at the interval's two ends, so it runs on a few pixels per
/// row, not on every covered pixel.
template <typename Fn>
void RasterizeTriangleSpans(Point a, Point b, Point c, const PixelRect& clip,
                            Fn&& span) {
  // Orient CCW; reject degenerates.
  const double area2 = Orient2D(a, b, c);
  if (area2 == 0.0) return;
  if (area2 < 0.0) std::swap(b, c);

  // Pixel centers are at integer+0.5: the first candidate is the pixel
  // whose center is >= min, the last the one whose center is <= max.
  // Clipped in double before the casts.
  const auto clip_range = [](double min_f, double max_f, std::int32_t c0,
                             std::int32_t c1, std::int32_t* p0,
                             std::int32_t* p1) {
    const double first =
        std::max(std::floor(min_f - 0.5) + 1.0, static_cast<double>(c0));
    const double last =
        std::min(std::ceil(max_f - 0.5) - 1.0, static_cast<double>(c1) - 1.0);
    if (!(first <= last)) return false;
    *p0 = static_cast<std::int32_t>(first);
    *p1 = static_cast<std::int32_t>(last);
    return true;
  };
  std::int32_t x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  if (!clip_range(std::min({a.x, b.x, c.x}), std::max({a.x, b.x, c.x}),
                  clip.x0, clip.x1, &x0, &x1) ||
      !clip_range(std::min({a.y, b.y, c.y}), std::max({a.y, b.y, c.y}),
                  clip.y0, clip.y1, &y0, &y1)) {
    return;
  }

  const bool tl_ab = detail::IsTopLeft(a, b);
  const bool tl_bc = detail::IsTopLeft(b, c);
  const bool tl_ca = detail::IsTopLeft(c, a);
  const double sx_magnitude =
      std::max(std::fabs(x0 + 0.5), std::fabs(x1 + 0.5));

  for (std::int32_t y = y0; y <= y1; ++y) {
    const double sy = y + 0.5;
    double lo = x0;
    double hi = x1;
    detail::NarrowSpan(a, b, sy, sx_magnitude, &lo, &hi);
    detail::NarrowSpan(b, c, sy, sx_magnitude, &lo, &hi);
    detail::NarrowSpan(c, a, sy, sx_magnitude, &lo, &hi);
    if (lo > hi) continue;
    // Inside when all edge functions are positive; a zero edge function
    // means the center lies exactly on that edge — covered only if the
    // edge is top-left (fill convention, prevents double counting on
    // shared edges of a triangulation).
    const auto covered = [&](std::int32_t x) {
      const double sx = x + 0.5;
      const double w0 = detail::EdgeFunction(a, b, sx, sy);
      const double w1 = detail::EdgeFunction(b, c, sx, sy);
      const double w2 = detail::EdgeFunction(c, a, sx, sy);
      return (w0 > 0.0 || (w0 == 0.0 && tl_ab)) &&
             (w1 > 0.0 || (w1 == 0.0 && tl_bc)) &&
             (w2 > 0.0 || (w2 == 0.0 && tl_ca));
    };
    auto first = static_cast<std::int32_t>(lo);
    auto last = static_cast<std::int32_t>(hi);
    while (first <= last && !covered(first)) ++first;
    if (first > last) continue;
    while (!covered(last)) --last;
    span(y, first, last);
  }
}

/// Rasterizes a triangle given in *screen* coordinates, invoking
/// `emit(x, y)` once per covered pixel inside `clip` — rows bottom to top,
/// pixels left to right: RasterizeTriangleSpans, pixel by pixel. The
/// emitted set and order are exactly those of the edge-function and
/// top-left test over the whole bounding box, and a clipped scan emits
/// exactly the full scan's pixels inside `clip`.
template <typename Fn>
void RasterizeTriangle(const Point& a, const Point& b, const Point& c,
                       const PixelRect& clip, Fn&& emit) {
  RasterizeTriangleSpans(
      a, b, c, clip,
      [&emit](std::int32_t y, std::int32_t x_first, std::int32_t x_last) {
        for (std::int32_t x = x_first; x <= x_last; ++x) emit(x, y);
      });
}

/// RasterizeTriangle over a whole width×height canvas.
template <typename Fn>
void RasterizeTriangle(const Point& a, const Point& b, const Point& c,
                       std::int32_t width, std::int32_t height, Fn&& emit) {
  RasterizeTriangle(a, b, c, PixelRect{0, 0, width, height},
                    std::forward<Fn>(emit));
}

/// Number of pixels RasterizeTriangle would emit: the sum of the span
/// lengths (cheap counting variant for counters / tests).
std::uint64_t CountTriangleFragments(const Point& a, const Point& b,
                                     const Point& c, std::int32_t width,
                                     std::int32_t height);

/// Rasterizes the segment [a, b] (screen coords) with a DDA walk, emitting
/// every pixel whose interior the segment passes through. Used for drawing
/// polygon outlines (accurate raster join, step 1).
void RasterizeSegment(const Point& a, const Point& b, std::int32_t width,
                      std::int32_t height, const FragmentCallback& emit);

}  // namespace rj::raster
