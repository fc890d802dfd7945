#include "raster/viewport.h"

#include <algorithm>

#include "common/math_utils.h"

namespace rj::raster {

namespace {

/// floor(v) clamped to [0, limit], in double before the cast. A NaN side
/// (never produced by a finite world) widens to `if_nan`, so the clamp
/// stays conservative.
std::int32_t ClampPixel(double v, std::int32_t limit, std::int32_t if_nan) {
  if (std::isnan(v)) return if_nan;
  return static_cast<std::int32_t>(
      std::clamp(std::floor(v), 0.0, static_cast<double>(limit)));
}

}  // namespace

PixelRect Viewport::PixelCover(const BBox& box) const {
  if (box.IsEmpty()) return {0, 0, 0, 0};
  const Point lo = ToScreen({box.min_x, box.min_y});
  const Point hi = ToScreen({box.max_x, box.max_y});
  // Pixel floor(hi) is the last one a point of the box can land on, so the
  // half-open bound is one past it (computed before the clamp: floor(hi)
  // may already sit at the canvas edge).
  return {ClampPixel(lo.x, width_, 0), ClampPixel(lo.y, height_, 0),
          ClampPixel(hi.x + 1.0, width_, width_),
          ClampPixel(hi.y + 1.0, height_, height_)};
}

Result<std::vector<CanvasTile>> PlanCanvas(const BBox& world, double epsilon,
                                           std::int32_t max_fbo_dim) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (world.IsEmpty() || world.Width() <= 0 || world.Height() <= 0) {
    return Status::InvalidArgument("world extent is empty");
  }
  if (max_fbo_dim <= 0) {
    return Status::InvalidArgument("max_fbo_dim must be positive");
  }

  const double pixel_side = PixelSideForEpsilon(epsilon);
  // Full virtual canvas resolution (ceil so the bound holds everywhere).
  const std::int64_t full_w = static_cast<std::int64_t>(
      std::ceil(world.Width() / pixel_side));
  const std::int64_t full_h = static_cast<std::int64_t>(
      std::ceil(world.Height() / pixel_side));
  // Shrink pixel sides so the canvas spans the world *exactly*: the pixel
  // diagonal only gets smaller (ε bound still holds), and pixel centers in
  // the last row/column stay inside the world — otherwise points near the
  // extent border would land in pixels no polygon fragment ever visits.
  const double px_w = world.Width() / static_cast<double>(full_w);
  const double px_h = world.Height() / static_cast<double>(full_h);

  const std::int64_t tiles_x = CeilDiv(std::max<std::int64_t>(1, full_w),
                                       max_fbo_dim);
  const std::int64_t tiles_y = CeilDiv(std::max<std::int64_t>(1, full_h),
                                       max_fbo_dim);

  std::vector<CanvasTile> tiles;
  tiles.reserve(static_cast<std::size_t>(tiles_x * tiles_y));
  for (std::int64_t ty = 0; ty < tiles_y; ++ty) {
    for (std::int64_t tx = 0; tx < tiles_x; ++tx) {
      const std::int64_t px0 = tx * max_fbo_dim;
      const std::int64_t py0 = ty * max_fbo_dim;
      const std::int64_t px1 = std::min<std::int64_t>(full_w, px0 + max_fbo_dim);
      const std::int64_t py1 = std::min<std::int64_t>(full_h, py0 + max_fbo_dim);

      CanvasTile tile;
      tile.width = static_cast<std::int32_t>(px1 - px0);
      tile.height = static_cast<std::int32_t>(py1 - py0);
      tile.pixel_x0 = px0;
      tile.pixel_y0 = py0;
      tile.world = BBox(world.min_x + px0 * px_w, world.min_y + py0 * px_h,
                        world.min_x + px1 * px_w, world.min_y + py1 * px_h);
      if (tile.width > 0 && tile.height > 0) tiles.push_back(tile);
    }
  }
  return tiles;
}

CanvasTile SingleCanvas(const BBox& world, std::int32_t width,
                        std::int32_t height) {
  CanvasTile tile;
  tile.world = world;
  tile.width = width;
  tile.height = height;
  return tile;
}

}  // namespace rj::raster
