#include "geometry/pip.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "common/rng.h"
#include "geometry/polygon.h"

namespace rj {
namespace {

Ring UnitSquare() { return {{0, 0}, {1, 0}, {1, 1}, {0, 1}}; }

TEST(PipTest, InsideOutsideBasic) {
  EXPECT_EQ(TestPointInRing(UnitSquare(), {0.5, 0.5}), PipResult::kInside);
  EXPECT_EQ(TestPointInRing(UnitSquare(), {1.5, 0.5}), PipResult::kOutside);
  EXPECT_EQ(TestPointInRing(UnitSquare(), {0.5, -0.5}), PipResult::kOutside);
}

TEST(PipTest, BoundaryDetection) {
  EXPECT_EQ(TestPointInRing(UnitSquare(), {0.0, 0.5}), PipResult::kBoundary);
  EXPECT_EQ(TestPointInRing(UnitSquare(), {0.5, 0.0}), PipResult::kBoundary);
  EXPECT_EQ(TestPointInRing(UnitSquare(), {1.0, 1.0}), PipResult::kBoundary);
  EXPECT_EQ(TestPointInRing(UnitSquare(), {0.5, 1.0}), PipResult::kBoundary);
}

TEST(PipTest, HorizontalEdgeAtQueryHeight) {
  // Ring with a horizontal edge exactly at the query y; the half-open rule
  // must not double-count.
  const Ring ring = {{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 1}, {0, 1}};
  EXPECT_EQ(TestPointInRing(ring, {1.0, 0.5}), PipResult::kInside);
  EXPECT_EQ(TestPointInRing(ring, {3.0, 1.5}), PipResult::kInside);
  EXPECT_EQ(TestPointInRing(ring, {1.0, 1.5}), PipResult::kOutside);
  EXPECT_EQ(TestPointInRing(ring, {1.0, 1.0}), PipResult::kBoundary);
}

TEST(PipTest, VertexRayCrossingsNotDoubleCounted) {
  // Diamond: ray through the left/right vertices is the classic corner case.
  const Ring diamond = {{0, 1}, {1, 0}, {2, 1}, {1, 2}};
  EXPECT_EQ(TestPointInRing(diamond, {1.0, 1.0}), PipResult::kInside);
  EXPECT_EQ(TestPointInRing(diamond, {-1.0, 1.0}), PipResult::kOutside);
  EXPECT_EQ(TestPointInRing(diamond, {3.0, 1.0}), PipResult::kOutside);
}

TEST(PipTest, DegenerateRingIsOutside) {
  EXPECT_EQ(TestPointInRing({{0, 0}, {1, 0}}, {0.5, 0.1}),
            PipResult::kOutside);
}

TEST(PipTest, OrientationIndependent) {
  Ring cw = UnitSquare();
  ReverseRing(&cw);
  EXPECT_EQ(TestPointInRing(cw, {0.5, 0.5}), PipResult::kInside);
  EXPECT_EQ(TestPointInRing(cw, {1.5, 0.5}), PipResult::kOutside);
}

TEST(PipTest, CounterTracksCalls) {
  const std::size_t before = GetThreadPipTestCount();
  EXPECT_EQ(GetThreadPipTestCount() - before, 0u);
  TestPointInRing(UnitSquare(), {0.5, 0.5});
  TestPointInRing(UnitSquare(), {0.5, 0.5});
  EXPECT_EQ(GetThreadPipTestCount() - before, 2u);
  // Another thread's tests stay out of this thread's count.
  std::thread([] { TestPointInRing(UnitSquare(), {0.5, 0.5}); }).join();
  EXPECT_EQ(GetThreadPipTestCount() - before, 2u);
}

TEST(PipPropertyTest, CrossingAgreesWithDistanceSign) {
  // For random points vs a concave polygon, the crossing test must agree
  // with a classification derived from ray-free geometry: points far from
  // the boundary relative to a coarse sampling are consistently classified.
  const Ring ring = {{0, 0}, {6, 0}, {6, 4}, {4, 4}, {4, 2},
                     {2, 2}, {2, 4}, {0, 4}};
  Polygon poly{Ring(ring)};
  ASSERT_TRUE(poly.Normalize().ok());
  Rng rng(12345);
  for (int i = 0; i < 2000; ++i) {
    const Point p{rng.Uniform(-1, 7), rng.Uniform(-1, 5)};
    const PipResult r = TestPointInRing(ring, p);
    // Verify via the odd-even rule evaluated with a vertical ray instead
    // (independent implementation).
    int crossings = 0;
    const std::size_t n = ring.size();
    for (std::size_t e = 0; e < n; ++e) {
      const Point& a = ring[e];
      const Point& b = ring[(e + 1) % n];
      if ((a.x > p.x) == (b.x > p.x)) continue;
      const double y_at = a.y + (p.x - a.x) * (b.y - a.y) / (b.x - a.x);
      if (y_at > p.y) ++crossings;
    }
    const bool inside_vertical = (crossings % 2) == 1;
    if (r == PipResult::kBoundary) continue;  // either is fine on boundary
    EXPECT_EQ(r == PipResult::kInside, inside_vertical)
        << "p=(" << p.x << "," << p.y << ")";
  }
}

}  // namespace
}  // namespace rj
