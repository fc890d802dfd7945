#include "agg/result_range.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "join/join_common.h"
#include "join/raster_join_bounded.h"
#include "query/executor.h"
#include "raster/pipeline.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

/// Shared fixture: a triangle polygon with random points, rendered at a
/// coarse resolution so boundary error exists.
class ResultRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    polys_.emplace_back(Ring{{1.3, 1.2}, {14.7, 2.1}, {7.4, 13.8}});
    polys_[0].set_id(0);
    ASSERT_TRUE(polys_[0].Normalize().ok());
    auto soup = TriangulatePolygonSet(polys_);
    ASSERT_TRUE(soup.ok());
    soup_ = soup.value();

    Rng rng(404);
    for (int i = 0; i < 5000; ++i) {
      points_.Append(rng.Uniform(0, 16), rng.Uniform(0, 16));
    }
  }

  PolygonSet polys_;
  TriangleSoup soup_;
  PointTable points_;
};

TEST_F(ResultRangeTest, LooseIntervalContainsExactWithCertainty) {
  const raster::Viewport vp(BBox(0, 0, 16, 16), 16, 16);
  raster::Fbo point_fbo(16, 16);
  raster::DrawPoints(vp, points_, FilterSet(), PointTable::npos, &point_fbo,
                     nullptr);
  raster::ResultArrays arrays(1);
  raster::DrawPolygons(vp, soup_, point_fbo, nullptr, &arrays, nullptr);

  auto ranges = ComputeResultRanges(
      vp, polys_, soup_, point_fbo,
      FinalizeAggregate(AggregateKind::kCount, arrays), nullptr);
  ASSERT_TRUE(ranges.ok());

  const JoinResult exact =
      ReferenceJoin(points_, polys_, FilterSet(), PointTable::npos);
  const double truth = exact.arrays.count[0];

  EXPECT_TRUE(ranges.value().loose[0].Contains(truth))
      << "loose [" << ranges.value().loose[0].lower << ", "
      << ranges.value().loose[0].upper << "] vs " << truth;
}

TEST_F(ResultRangeTest, ExpectedIntervalTighterThanLoose) {
  const raster::Viewport vp(BBox(0, 0, 16, 16), 16, 16);
  raster::Fbo point_fbo(16, 16);
  raster::DrawPoints(vp, points_, FilterSet(), PointTable::npos, &point_fbo,
                     nullptr);
  raster::ResultArrays arrays(1);
  raster::DrawPolygons(vp, soup_, point_fbo, nullptr, &arrays, nullptr);

  auto ranges = ComputeResultRanges(
      vp, polys_, soup_, point_fbo,
      FinalizeAggregate(AggregateKind::kCount, arrays), nullptr);
  ASSERT_TRUE(ranges.ok());
  EXPECT_LE(ranges.value().expected[0].Width(),
            ranges.value().loose[0].Width() + 1e-9);
  EXPECT_GT(ranges.value().loose[0].Width(), 0.0);
}

TEST_F(ResultRangeTest, ExpectedIntervalCoversExactForUniformData) {
  // The expected bounds assume uniform-in-pixel distribution — our points
  // ARE uniform, so the interval should almost always cover the truth.
  const raster::Viewport vp(BBox(0, 0, 16, 16), 32, 32);
  raster::Fbo point_fbo(32, 32);
  raster::DrawPoints(vp, points_, FilterSet(), PointTable::npos, &point_fbo,
                     nullptr);
  raster::ResultArrays arrays(1);
  raster::DrawPolygons(vp, soup_, point_fbo, nullptr, &arrays, nullptr);

  auto ranges = ComputeResultRanges(
      vp, polys_, soup_, point_fbo,
      FinalizeAggregate(AggregateKind::kCount, arrays), nullptr);
  ASSERT_TRUE(ranges.ok());

  const JoinResult exact =
      ReferenceJoin(points_, polys_, FilterSet(), PointTable::npos);
  // Allow a 2%-of-width slack outside (statistical fluctuation).
  const auto& iv = ranges.value().expected[0];
  const double slack = 0.1 * (iv.Width() + 1.0);
  EXPECT_GE(exact.arrays.count[0], iv.lower - slack);
  EXPECT_LE(exact.arrays.count[0], iv.upper + slack);
}

TEST_F(ResultRangeTest, RejectsSizeMismatch) {
  const raster::Viewport vp(BBox(0, 0, 16, 16), 16, 16);
  raster::Fbo point_fbo(16, 16);
  auto ranges =
      ComputeResultRanges(vp, polys_, soup_, point_fbo, {1.0, 2.0}, nullptr);
  EXPECT_FALSE(ranges.ok());
}

TEST(ResultIntervalTest, ContainsAndWidth) {
  const ResultInterval iv{10.0, 20.0};
  EXPECT_TRUE(iv.Contains(10.0));
  EXPECT_TRUE(iv.Contains(20.0));
  EXPECT_TRUE(iv.Contains(15.0));
  EXPECT_FALSE(iv.Contains(9.999));
  EXPECT_DOUBLE_EQ(iv.Width(), 10.0);
}

TEST(ResultRangeViaJoinTest, BoundedJoinProducesRanges) {
  // End-to-end through BoundedRasterJoin with a ranges_out target.
  PolygonSet polys;
  polys.emplace_back(Ring{{2, 2}, {13, 3}, {8, 12}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());
  auto soup = TriangulatePolygonSet(polys);
  ASSERT_TRUE(soup.ok());

  PointTable points;
  Rng rng(505);
  for (int i = 0; i < 2000; ++i) {
    points.Append(rng.Uniform(0, 16), rng.Uniform(0, 16));
  }

  gpu::DeviceOptions dev_options;
  dev_options.max_fbo_dim = 64;
  gpu::Device device(dev_options);

  BoundedRasterJoinOptions options;
  options.epsilon = 1.0;
  ResultRanges ranges;
  auto result = BoundedRasterJoin(&device, points, polys, soup.value(),
                                  BBox(0, 0, 16, 16), options, nullptr,
                                  &ranges);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(ranges.loose.size(), 1u);

  const JoinResult exact =
      ReferenceJoin(points, polys, FilterSet(), PointTable::npos);
  EXPECT_TRUE(ranges.loose[0].Contains(exact.arrays.count[0]));
  // The approximate value itself lies in both intervals by construction.
  const double approx = result.value().arrays.count[0];
  EXPECT_TRUE(ranges.loose[0].Contains(approx));
  EXPECT_TRUE(ranges.expected[0].Contains(approx));
}

}  // namespace
}  // namespace rj
