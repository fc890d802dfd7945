#include "raster/rasterizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geometry/pip.h"
#include "geometry/polygon.h"
#include "triangulate/ear_clipping.h"

namespace rj::raster {
namespace {

using PixelSet = std::set<std::pair<std::int32_t, std::int32_t>>;

PixelSet Collect(const Point& a, const Point& b, const Point& c,
                 std::int32_t w, std::int32_t h) {
  PixelSet pixels;
  RasterizeTriangle(a, b, c, w, h, [&pixels](std::int32_t x, std::int32_t y) {
    const bool inserted = pixels.insert({x, y}).second;
    EXPECT_TRUE(inserted) << "pixel emitted twice";
  });
  return pixels;
}

TEST(RasterizerTest, PixelCenterRule) {
  // Triangle covering centers of pixels (0,0) and (1,0) only.
  // Centers at (0.5,0.5), (1.5,0.5). Triangle y range [0.2, 0.8].
  const PixelSet px = Collect({0.0, 0.2}, {2.0, 0.2}, {1.0, 0.8}, 8, 8);
  // Center (0.5,0.5): inside? Edge from (0,0.2) to (2,0.2) bottom, apex
  // (1,0.8). At x=0.5 the left edge from (0,0.2)-(1,0.8) has y = 0.2+0.6*0.5
  // = 0.5 → center exactly on edge; top-left rule decides. Use a simpler
  // assertion: only pixels whose center is strictly inside or on a
  // top-left edge appear, all within the bbox.
  for (const auto& [x, y] : px) {
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 2);
    EXPECT_EQ(y, 0);
  }
}

TEST(RasterizerTest, DegenerateTriangleEmitsNothing) {
  EXPECT_TRUE(Collect({1, 1}, {3, 3}, {5, 5}, 8, 8).empty());
  EXPECT_TRUE(Collect({1, 1}, {1, 1}, {1, 1}, 8, 8).empty());
}

TEST(RasterizerTest, WindingIndependent) {
  const PixelSet ccw = Collect({0.1, 0.1}, {6.9, 0.1}, {3.5, 5.9}, 8, 8);
  const PixelSet cw = Collect({0.1, 0.1}, {3.5, 5.9}, {6.9, 0.1}, 8, 8);
  EXPECT_EQ(ccw, cw);
}

TEST(RasterizerTest, ClipsToGrid) {
  // Triangle much larger than an 4×4 grid: all 16 pixels covered.
  const PixelSet px = Collect({-10, -10}, {20, -10}, {5, 20}, 4, 4);
  EXPECT_EQ(px.size(), 16u);
}

TEST(RasterizerTest, FullySouthOfGridEmitsNothing) {
  EXPECT_TRUE(Collect({0, -5}, {4, -5}, {2, -1}, 4, 4).empty());
}

TEST(RasterizerTest, SharedEdgeNoDoubleNoGap) {
  // Split a square into two triangles along the diagonal; every covered
  // pixel must be covered by exactly one triangle (top-left rule).
  const Point p00{0, 0}, p10{16, 0}, p11{16, 16}, p01{0, 16};
  PixelSet t1, t2;
  RasterizeTriangle(p00, p10, p11, 16, 16,
                    [&t1](std::int32_t x, std::int32_t y) {
                      t1.insert({x, y});
                    });
  RasterizeTriangle(p00, p11, p01, 16, 16,
                    [&t2](std::int32_t x, std::int32_t y) {
                      t2.insert({x, y});
                    });
  // Union covers all 256; intersection empty.
  PixelSet inter;
  for (const auto& p : t1) {
    if (t2.count(p)) inter.insert(p);
  }
  EXPECT_TRUE(inter.empty());
  EXPECT_EQ(t1.size() + t2.size(), 256u);
}

TEST(RasterizerPropertyTest, SharedEdgePartitionForRandomSplits) {
  // Random quads split along a diagonal: no pixel double-shaded, union
  // equals the quad's own rasterization when the quad is convex.
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    // Random convex quad via two triangles sharing diagonal (a, c).
    const Point a{rng.Uniform(1, 30), rng.Uniform(1, 30)};
    const Point b{a.x + rng.Uniform(2, 12), a.y + rng.Uniform(-2, 2)};
    const Point c{b.x + rng.Uniform(-2, 2), b.y + rng.Uniform(2, 12)};
    const Point d{a.x + rng.Uniform(-2, 2), a.y + rng.Uniform(2, 12)};
    // Require convexity (all cross products same sign) to make the union
    // test meaningful.
    const double c1 = Orient2D(a, b, c), c2 = Orient2D(b, c, d);
    const double c3 = Orient2D(c, d, a), c4 = Orient2D(d, a, b);
    if (!((c1 > 0 && c2 > 0 && c3 > 0 && c4 > 0))) continue;

    PixelSet t1, t2;
    RasterizeTriangle(a, b, c, 64, 64, [&t1](std::int32_t x, std::int32_t y) {
      t1.insert({x, y});
    });
    RasterizeTriangle(a, c, d, 64, 64, [&t2](std::int32_t x, std::int32_t y) {
      t2.insert({x, y});
    });
    for (const auto& p : t1) {
      EXPECT_EQ(t2.count(p), 0u) << "double-shaded pixel, trial " << trial;
    }
  }
}

TEST(RasterizerTest, CountMatchesCallback) {
  const Point a{0.3, 0.4}, b{12.7, 1.1}, c{5.2, 9.8};
  EXPECT_EQ(CountTriangleFragments(a, b, c, 16, 16),
            Collect(a, b, c, 16, 16).size());
}

TEST(RasterizeSegmentTest, HorizontalSegment) {
  PixelSet px;
  RasterizeSegment({0.5, 0.5}, {4.5, 0.5}, 8, 8,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  EXPECT_EQ(px.size(), 5u);
  for (const auto& [x, y] : px) EXPECT_EQ(y, 0);
}

TEST(RasterizeSegmentTest, VerticalSegment) {
  PixelSet px;
  RasterizeSegment({2.5, 0.5}, {2.5, 6.5}, 8, 8,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  EXPECT_EQ(px.size(), 7u);
  for (const auto& [x, y] : px) EXPECT_EQ(x, 2);
}

TEST(RasterizeSegmentTest, DiagonalIsConnected) {
  PixelSet px;
  RasterizeSegment({0.5, 0.5}, {7.5, 5.5}, 8, 8,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  // 4-or-8-connectivity: consecutive pixels differ by at most 1 in each
  // coordinate. Verify no "jumps": for each pixel there is a neighbor.
  EXPECT_GE(px.size(), 8u);
  EXPECT_TRUE(px.count({0, 0}));
  EXPECT_TRUE(px.count({7, 5}));
}

TEST(RasterizeSegmentTest, ClipsOutOfGrid) {
  PixelSet px;
  RasterizeSegment({-3.5, 0.5}, {3.5, 0.5}, 4, 4,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  for (const auto& [x, y] : px) {
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 4);
    EXPECT_EQ(y, 0);
  }
}

TEST(RasterizeSegmentTest, ZeroLengthEmitsOnePixel) {
  PixelSet px;
  RasterizeSegment({2.5, 2.5}, {2.5, 2.5}, 8, 8,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  EXPECT_EQ(px.size(), 1u);
  EXPECT_TRUE(px.count({2, 2}));
}

TEST(RasterizerCoverageTest, TriangulationCoversPolygonInteriorExactly) {
  // Triangulate a concave polygon and rasterize all triangles: each pixel
  // covered exactly once, and coverage matches the PIP classification of
  // pixel centers (the invariant the raster join depends on).
  const Ring l = {{1, 1}, {13, 1}, {13, 6}, {7, 6}, {7, 13}, {1, 13}};
  auto tris = EarClipTriangulate(l);
  ASSERT_TRUE(tris.ok());

  std::map<std::pair<std::int32_t, std::int32_t>, int> coverage;
  for (const Triangle& t : tris.value()) {
    RasterizeTriangle(t.a, t.b, t.c, 16, 16,
                      [&coverage](std::int32_t x, std::int32_t y) {
                        coverage[{x, y}]++;
                      });
  }
  for (const auto& [pixel, count] : coverage) {
    EXPECT_EQ(count, 1) << "pixel (" << pixel.first << "," << pixel.second
                        << ") shaded " << count << " times";
  }
  // Compare to pixel-center PIP for strictly interior/exterior centers.
  for (std::int32_t y = 0; y < 16; ++y) {
    for (std::int32_t x = 0; x < 16; ++x) {
      const Point center{x + 0.5, y + 0.5};
      const PipResult pip = TestPointInRing(l, center);
      if (pip == PipResult::kBoundary) continue;  // tie-break zone
      const bool covered = coverage.count({x, y}) > 0;
      EXPECT_EQ(covered, pip == PipResult::kInside)
          << "center (" << center.x << "," << center.y << ")";
    }
  }
}

// --- Span walk vs. brute force ---------------------------------------------

using PixelList = std::vector<std::pair<std::int32_t, std::int32_t>>;

/// The coverage rule evaluated on every pixel of the canvas, in emission
/// order: a pixel is covered when its center lies strictly inside the
/// triangle's bounding box and passes the three edge-function tests with
/// the top-left tie rule — the definition RasterizeTriangle's span walk
/// must reproduce, pixel for pixel and in the same order.
PixelList BruteForce(Point a, Point b, Point c, std::int32_t w,
                     std::int32_t h) {
  const double area2 = Orient2D(a, b, c);
  if (area2 == 0.0) return {};
  if (area2 < 0.0) std::swap(b, c);
  const auto edge = [](const Point& p, const Point& q, double sx,
                       double sy) {
    return (q.x - p.x) * (sy - p.y) - (q.y - p.y) * (sx - p.x);
  };
  const auto top_left = [](const Point& p, const Point& q) {
    return q.y - p.y > 0.0 || (q.y - p.y == 0.0 && q.x - p.x < 0.0);
  };
  const auto owns = [&](const Point& p, const Point& q, double sx,
                        double sy) {
    const double e = edge(p, q, sx, sy);
    return e > 0.0 || (e == 0.0 && top_left(p, q));
  };
  const double min_x = std::min({a.x, b.x, c.x});
  const double max_x = std::max({a.x, b.x, c.x});
  const double min_y = std::min({a.y, b.y, c.y});
  const double max_y = std::max({a.y, b.y, c.y});
  PixelList out;
  for (std::int32_t y = 0; y < h; ++y) {
    const double sy = y + 0.5;
    if (!(sy > min_y && sy < max_y)) continue;
    for (std::int32_t x = 0; x < w; ++x) {
      const double sx = x + 0.5;
      if (!(sx > min_x && sx < max_x)) continue;
      if (owns(a, b, sx, sy) && owns(b, c, sx, sy) && owns(c, a, sx, sy)) {
        out.emplace_back(x, y);
      }
    }
  }
  return out;
}

PixelList Scan(const Point& a, const Point& b, const Point& c,
               const PixelRect& clip) {
  PixelList out;
  RasterizeTriangle(a, b, c, clip, [&out](std::int32_t x, std::int32_t y) {
    out.emplace_back(x, y);
  });
  return out;
}

/// Triangle families the span walk's rounding margin must survive.
struct Family {
  const char* name;
  std::function<std::array<Point, 3>(Rng&)> make;
};

constexpr std::int32_t kCanvas = 64;

std::vector<Family> Families() {
  const auto any = [](Rng& rng, double lo, double hi) {
    return Point{rng.Uniform(lo, hi), rng.Uniform(lo, hi)};
  };
  // A pixel center: integer + 0.5, so edges run through centers and the
  // top-left rule decides.
  const auto center = [](Rng& rng, std::int32_t lo, std::int32_t hi) {
    return Point{lo + static_cast<double>(rng.UniformInt(hi - lo)) + 0.5,
                 lo + static_cast<double>(rng.UniformInt(hi - lo)) + 0.5};
  };
  return {
      {"random", [=](Rng& rng) -> std::array<Point, 3> {
         return {any(rng, -8, 72), any(rng, -8, 72), any(rng, -8, 72)};
       }},
      {"sliver", [=](Rng& rng) -> std::array<Point, 3> {
         const Point a = any(rng, 0, 64);
         const Point b = any(rng, 0, 64);
         const double t = rng.Uniform();
         const double off = std::pow(10.0, -rng.Uniform(0, 9));
         return {a, b,
                 {a.x + t * (b.x - a.x) - off * (b.y - a.y),
                  a.y + t * (b.y - a.y) + off * (b.x - a.x)}};
       }},
      {"pixel centers", [=](Rng& rng) -> std::array<Point, 3> {
         return {center(rng, 0, 64), center(rng, 0, 64), center(rng, 0, 64)};
       }},
      {"axis-aligned", [=](Rng& rng) -> std::array<Point, 3> {
         const Point a = center(rng, 0, 64);
         const Point b = center(rng, 0, 64);
         return {a, {b.x, a.y}, {a.x, b.y}};
       }},
      {"partly off canvas", [=](Rng& rng) -> std::array<Point, 3> {
         return {any(rng, -64, 128), any(rng, -64, 128), any(rng, -64, 128)};
       }},
      {"large coordinates", [=](Rng& rng) -> std::array<Point, 3> {
         // One vertex near the canvas, two far out: long edges whose
         // intercepts carry the rounding of huge operands.
         const double far = std::pow(10.0, rng.Uniform(4, 15));
         return {any(rng, 0, 64),
                 {rng.Uniform(-far, far), rng.Uniform(-far, far)},
                 {rng.Uniform(-far, far), rng.Uniform(-far, far)}};
       }},
  };
}

TEST(RasterizerSpanTest, SpanWalkMatchesBruteForce) {
  for (const Family& family : Families()) {
    SCOPED_TRACE(family.name);
    Rng rng(91);
    std::size_t covered = 0;
    for (int trial = 0; trial < 3000; ++trial) {
      const std::array<Point, 3> t = family.make(rng);
      const PixelList expected = BruteForce(t[0], t[1], t[2], kCanvas, kCanvas);
      covered += expected.size();
      ASSERT_EQ(Scan(t[0], t[1], t[2], PixelRect{0, 0, kCanvas, kCanvas}),
                expected)
          << "trial " << trial << ": (" << t[0].x << "," << t[0].y << ") ("
          << t[1].x << "," << t[1].y << ") (" << t[2].x << "," << t[2].y
          << ")";
    }
    EXPECT_GT(covered, 0u);
  }
}

TEST(RasterizerSpanTest, EachRowIsOneIntervalOfTheBruteForcePixels) {
  // The span walk reports a row's covered pixels as one interval; laid out
  // pixel by pixel, the intervals are brute force's pixels in its order,
  // and their lengths sum to CountTriangleFragments.
  for (const Family& family : Families()) {
    SCOPED_TRACE(family.name);
    Rng rng(93);
    for (int trial = 0; trial < 3000; ++trial) {
      const std::array<Point, 3> t = family.make(rng);
      PixelList spans;
      std::int32_t prev_row = std::numeric_limits<std::int32_t>::min();
      RasterizeTriangleSpans(
          t[0], t[1], t[2], PixelRect{0, 0, kCanvas, kCanvas},
          [&](std::int32_t y, std::int32_t x_first, std::int32_t x_last) {
            EXPECT_GT(y, prev_row) << "one interval per row, rows ascending";
            EXPECT_LE(x_first, x_last);
            prev_row = y;
            for (std::int32_t x = x_first; x <= x_last; ++x) {
              spans.emplace_back(x, y);
            }
          });
      ASSERT_EQ(spans, BruteForce(t[0], t[1], t[2], kCanvas, kCanvas))
          << "trial " << trial << ": (" << t[0].x << "," << t[0].y << ") ("
          << t[1].x << "," << t[1].y << ") (" << t[2].x << "," << t[2].y
          << ")";
      ASSERT_EQ(CountTriangleFragments(t[0], t[1], t[2], kCanvas, kCanvas),
                spans.size());
    }
  }
}

TEST(RasterizerSpanTest, SharedEdgesPartitionLikeBruteForce) {
  // Quads on pixel centers split along a diagonal: the tie pixels on the
  // shared edge go to exactly one side, the same side as brute force.
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    std::array<Point, 4> q;
    for (Point& p : q) {
      p = {static_cast<double>(rng.UniformInt(kCanvas)) + 0.5,
           static_cast<double>(rng.UniformInt(kCanvas)) + 0.5};
    }
    const PixelRect canvas{0, 0, kCanvas, kCanvas};
    const PixelList t1 = Scan(q[0], q[1], q[2], canvas);
    const PixelList t2 = Scan(q[0], q[2], q[3], canvas);
    ASSERT_EQ(t1, BruteForce(q[0], q[1], q[2], kCanvas, kCanvas));
    ASSERT_EQ(t2, BruteForce(q[0], q[2], q[3], kCanvas, kCanvas));
    if (Orient2D(q[0], q[1], q[2]) * Orient2D(q[0], q[2], q[3]) > 0.0) {
      // Both halves on opposite sides of the diagonal: never both.
      const PixelSet first(t1.begin(), t1.end());
      for (const auto& p : t2) EXPECT_EQ(first.count(p), 0u);
    }
  }
}

TEST(RasterizerSpanTest, ScissoredScanIsTheFullScanInsideTheRect) {
  for (const Family& family : Families()) {
    SCOPED_TRACE(family.name);
    Rng rng(7);
    for (int trial = 0; trial < 1500; ++trial) {
      const std::array<Point, 3> t = family.make(rng);
      std::int32_t x0 = static_cast<std::int32_t>(rng.UniformInt(kCanvas));
      std::int32_t x1 = static_cast<std::int32_t>(rng.UniformInt(kCanvas + 1));
      std::int32_t y0 = static_cast<std::int32_t>(rng.UniformInt(kCanvas));
      std::int32_t y1 = static_cast<std::int32_t>(rng.UniformInt(kCanvas + 1));
      if (x0 > x1) std::swap(x0, x1);
      if (y0 > y1) std::swap(y0, y1);
      const PixelRect rect{x0, y0, x1, y1};
      PixelList expected;
      for (const auto& p :
           Scan(t[0], t[1], t[2], PixelRect{0, 0, kCanvas, kCanvas})) {
        if (p.first >= x0 && p.first < x1 && p.second >= y0 &&
            p.second < y1) {
          expected.push_back(p);
        }
      }
      ASSERT_EQ(Scan(t[0], t[1], t[2], rect), expected) << "trial " << trial;
    }
  }
}

TEST(RasterizerSpanTest, DefaultRectIsUnboundedAndCanvasFormClips) {
  // The default PixelRect clips nothing but the triangle itself; the
  // width×height form equals the {0, 0, width, height} rect.
  const Point a{-3.2, 1.7}, b{40.6, 5.1}, c{9.9, 37.3};
  EXPECT_EQ(Scan(a, b, c, PixelRect()),
            Scan(a, b, c, PixelRect{0, 0, 64, 64}));
  PixelList canvas_form;
  RasterizeTriangle(a, b, c, 16, 16,
                    [&canvas_form](std::int32_t x, std::int32_t y) {
                      canvas_form.emplace_back(x, y);
                    });
  EXPECT_EQ(canvas_form, Scan(a, b, c, PixelRect{0, 0, 16, 16}));
  EXPECT_TRUE(Scan(a, b, c, PixelRect{5, 5, 5, 9}).empty());
}

}  // namespace
}  // namespace rj::raster
