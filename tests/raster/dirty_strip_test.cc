/// \file dirty_strip_test.cc
/// \brief The canvas's dirty-strip map: every write marks its strip, a
/// cleared or reacquired canvas equals a fresh one bitwise, and a polygon
/// pass that shades only dirty strips equals one that shades every pixel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "raster/fbo_pool.h"
#include "raster/pipeline.h"
#include "raster/rasterizer.h"
#include "triangulate/triangulation.h"

namespace rj::raster {
namespace {

bool SameBits(const Fbo& a, const Fbo& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data().data(), b.data().data(), a.size_bytes()) == 0;
}

bool AllClean(const Fbo& fbo) {
  for (std::size_t s = 0; s < fbo.num_strips(); ++s) {
    if (fbo.StripDirty(s)) return false;
  }
  return true;
}

/// Every pixel holding something other than the clear values lies in a
/// dirty strip.
void ExpectWritesMarked(const Fbo& fbo) {
  const Fbo fresh(fbo.width(), fbo.height());
  const std::size_t pixels =
      static_cast<std::size_t>(fbo.width()) * fbo.height();
  for (std::size_t p = 0; p < pixels; ++p) {
    if (std::memcmp(fbo.data().data() + p * kChannels,
                    fresh.data().data() + p * kChannels,
                    kChannels * sizeof(float)) != 0) {
      ASSERT_TRUE(fbo.StripDirty(p >> kStripShift)) << "pixel " << p;
    }
  }
}

/// `n` points over [0, w) × [0, h) with integer weights, one in ten off
/// the canvas.
PointTable MakePoints(std::size_t n, double w, double h, std::uint64_t seed) {
  Rng rng(seed);
  PointTable t;
  t.AddAttribute("a");
  t.AddAttribute("w");
  for (std::size_t i = 0; i < n; ++i) {
    const bool off = rng.UniformInt(10) == 0;
    const double x = off ? -1.0 - rng.Uniform(0, w) : rng.Uniform(0, w);
    const double y = rng.Uniform(0, h);
    const auto a = static_cast<float>(rng.UniformInt(4));
    const auto weight = static_cast<float>(rng.UniformInt(100));
    t.Append(x, y, {a, weight});
  }
  return t;
}

TEST(FboDirtyStripTest, PointPassMarksEveryPixelItWrites) {
  // Widths that are and are not multiples of 64, so strips run across row
  // ends and row bands share strips at their edges.
  const std::int32_t kSizes[][2] = {{37, 23}, {100, 7}, {64, 3}, {130, 65}};
  FilterSet none;
  FilterSet some;
  ASSERT_TRUE(some.Add({0, FilterOp::kGreater, 1.0f}).ok());
  for (const auto& size : kSizes) {
    const std::int32_t w = size[0];
    const std::int32_t h = size[1];
    // About one point per four strips, so most dirty strips hold a single
    // point and a missing mark leaves a written pixel in a clean strip.
    const std::size_t n = static_cast<std::size_t>(w) * h / 256 + 8;
    const PointTable points = MakePoints(n, w, h, 5 + w);
    const Viewport vp(BBox(0, 0, w, h), w, h);
    for (const std::size_t workers : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << w << "x" << h << "/" << workers);
      ThreadPool pool(workers);
      FboPool fbo_pool;
      {
        FboLease a = fbo_pool.Acquire(w, h);
        FboLease b = fbo_pool.Acquire(w, h);
        FboLease c = fbo_pool.Acquire(w, h);
        const std::vector<MultiTarget> targets = {
            {&none, PointTable::npos, a.get()},
            {&some, 1, b.get()},
            {&none, 1, c.get()},
        };
        DrawPointsMulti(vp, data::ViewRows(points, 0, points.size()),
                        targets, nullptr, &pool);
        for (const MultiTarget& t : targets) ExpectWritesMarked(*t.fbo);
      }
      // Reacquired (only their dirty strips cleared), the canvases equal
      // fresh ones.
      const Fbo fresh(w, h);
      for (int i = 0; i < 3; ++i) {
        FboLease again = fbo_pool.Acquire(w, h);
        EXPECT_TRUE(SameBits(*again, fresh));
        EXPECT_TRUE(AllClean(*again));
      }
      EXPECT_EQ(fbo_pool.hits(), 3u);
    }
  }
}

TEST(FboDirtyStripTest, AccessorWritesAreClearedLikeFresh) {
  const Fbo fresh(100, 7);
  FboPool pool;
  {
    FboLease lease = pool.Acquire(100, 7);
    lease->Set(99, 0, kChannelCount, 3.0f);  // last pixel of row 0
    lease->Add(0, 1, kChannelSum, 2.0f);     // first of row 1, same strip
    lease->BlendMin(50, 4, kChannelMin, -1.0f);
    lease->BlendMax(99, 6, kChannelMax, 9.0f);  // the last, partial strip
    ExpectWritesMarked(*lease);
  }
  {
    FboLease lease = pool.Acquire(100, 7);
    EXPECT_TRUE(SameBits(*lease, fresh));
    EXPECT_TRUE(AllClean(*lease));
    // Whole-canvas write access marks every strip: the next clear
    // rewrites the whole canvas.
    Fbo::Pixels& data = lease->mutable_data();
    for (std::size_t s = 0; s < lease->num_strips(); ++s) {
      ASSERT_TRUE(lease->StripDirty(s));
    }
    for (std::size_t i = 0; i < data.size(); i += 13) data[i] = 5.0f;
  }
  FboLease lease = pool.Acquire(100, 7);
  EXPECT_TRUE(SameBits(*lease, fresh));
  EXPECT_TRUE(AllClean(*lease));
  EXPECT_EQ(pool.hits(), 2u);
}

TEST(FboDirtyStripTest, CopyKeepsPixelsAndMarks) {
  Fbo fbo(100, 7);
  fbo.Add(70, 3, kChannelCount, 1.0f);
  const Fbo copy(fbo);
  EXPECT_TRUE(SameBits(copy, fbo));
  for (std::size_t s = 0; s < fbo.num_strips(); ++s) {
    EXPECT_EQ(copy.StripDirty(s), fbo.StripDirty(s)) << "strip " << s;
  }
  Fbo cleared(copy);
  cleared.Clear();
  EXPECT_TRUE(SameBits(cleared, Fbo(100, 7)));
}

/// The polygon pass by its definition: every covered pixel inside the
/// scissor, triangle by triangle in RasterizeTriangle's order, read from
/// the canvas whatever its strips say.
ResultArrays ShadeEveryPixel(const Viewport& vp, const TriangleSoup& soup,
                             const Fbo& points, const Fbo* mask,
                             const PixelRect& scissor,
                             std::size_t num_polygons, gpu::Counters* meter) {
  ResultArrays r(num_polygons);
  const PixelRect clip =
      scissor.Intersect({0, 0, points.width(), points.height()});
  for (const Triangle& tri : soup) {
    const auto id = static_cast<std::size_t>(tri.polygon_id);
    RasterizeTriangle(
        vp.ToScreen(tri.a), vp.ToScreen(tri.b), vp.ToScreen(tri.c), clip,
        [&](std::int32_t x, std::int32_t y) {
          meter->AddFragments(1);
          if (mask != nullptr && IsBoundaryPixel(*mask, x, y)) return;
          const float count = points.At(x, y, kChannelCount);
          if (count == 0.0f) return;
          r.count[id] += count;
          r.sum[id] += points.At(x, y, kChannelSum);
          r.min[id] = std::min(
              r.min[id], static_cast<double>(points.At(x, y, kChannelMin)));
          r.max[id] = std::max(
              r.max[id], static_cast<double>(points.At(x, y, kChannelMax)));
          meter->AddAtomicAdds(1);
        });
  }
  return r;
}

/// The strip-skipping polygon pass against ShadeEveryPixel: equal arrays
/// (integer weights, so sums are exact in any merge order), fragments and
/// atomic adds, with and without a boundary mask, over the whole canvas
/// and a scissor, on 1, 2 and 4 workers.
TEST(DrawPolygonsStripTest, SkippingCleanStripsEqualsShadingEveryPixel) {
  const std::int32_t w = 300;
  const std::int32_t h = 170;
  const BBox world(0, 0, w, h);
  auto polys = TinyRegions(12, world, 23);
  ASSERT_TRUE(polys.ok());
  auto soup = TriangulatePolygonSet(polys.value());
  ASSERT_TRUE(soup.ok());
  const std::size_t num_polygons = polys.value().size();
  const Viewport vp(world, w, h);
  // Points in a corner of the canvas only, so most strips stay clean.
  const PointTable points = MakePoints(4000, 120, 60, 29);
  FilterSet none;
  Fbo canvas(w, h);
  DrawPoints(vp, points, none, /*weight_column=*/1, &canvas, nullptr);
  std::size_t clean = 0;
  for (std::size_t s = 0; s < canvas.num_strips(); ++s) {
    clean += canvas.StripDirty(s) ? 0 : 1;
  }
  ASSERT_GT(clean, canvas.num_strips() / 2);

  Fbo boundary(w, h);
  DrawBoundaries(vp, polys.value(), /*conservative=*/true, &boundary, nullptr);

  const Fbo* const masks[] = {nullptr, &boundary};
  for (const Fbo* mask : masks) {
    SCOPED_TRACE(mask != nullptr ? "masked" : "unmasked");
    for (const PixelRect scissor : {PixelRect(), PixelRect{10, 5, 200, 90}}) {
      SCOPED_TRACE(scissor.x1);
      gpu::Counters every_meter;
      const ResultArrays every = ShadeEveryPixel(
          vp, soup.value(), canvas, mask, scissor, num_polygons, &every_meter);
      ASSERT_GT(every_meter.atomic_adds(), 0u);
      for (const std::size_t workers : {1, 2, 4}) {
        SCOPED_TRACE(workers);
        ThreadPool pool(workers);
        ResultArrays skipped(num_polygons);
        gpu::Counters meter;
        DrawPolygons(vp, soup.value(), canvas, mask, &skipped, &meter, &pool,
                     scissor);
        EXPECT_EQ(skipped.count, every.count);
        EXPECT_EQ(skipped.sum, every.sum);
        EXPECT_EQ(skipped.min, every.min);
        EXPECT_EQ(skipped.max, every.max);
        EXPECT_EQ(meter.fragments(), every_meter.fragments());
        EXPECT_EQ(meter.atomic_adds(), every_meter.atomic_adds());
      }
    }
  }
}

}  // namespace
}  // namespace rj::raster
