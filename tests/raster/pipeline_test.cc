#include "raster/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "triangulate/triangulation.h"

namespace rj::raster {
namespace {

PointTable MakePoints() {
  PointTable t;
  t.AddAttribute("w");
  t.Append(1.5, 1.5, {10.0f});
  t.Append(1.6, 1.4, {20.0f});
  t.Append(5.5, 5.5, {5.0f});
  t.Append(9.5, 9.5, {1.0f});
  return t;
}

TEST(DrawPointsTest, CountsPerPixel) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo fbo(10, 10);
  PointTable pts = MakePoints();
  const std::uint64_t drawn =
      DrawPoints(vp, pts, FilterSet(), PointTable::npos, &fbo, nullptr);
  EXPECT_EQ(drawn, 4u);
  EXPECT_EQ(fbo.At(1, 1, kChannelCount), 2.0f);  // two points in pixel (1,1)
  EXPECT_EQ(fbo.At(5, 5, kChannelCount), 1.0f);
  EXPECT_EQ(fbo.At(9, 9, kChannelCount), 1.0f);
  EXPECT_EQ(fbo.At(0, 0, kChannelCount), 0.0f);
}

TEST(DrawPointsTest, WeightSumMinMaxChannels) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo fbo(10, 10);
  PointTable pts = MakePoints();
  DrawPoints(vp, pts, FilterSet(), 0, &fbo, nullptr);
  EXPECT_EQ(fbo.At(1, 1, kChannelSum), 30.0f);
  EXPECT_EQ(fbo.At(1, 1, kChannelMin), 10.0f);
  EXPECT_EQ(fbo.At(1, 1, kChannelMax), 20.0f);
}

TEST(DrawPointsTest, FiltersDiscardInVertexStage) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo fbo(10, 10);
  PointTable pts = MakePoints();
  FilterSet filters;
  ASSERT_TRUE(filters.Add({0, FilterOp::kGreaterEqual, 10.0f}).ok());
  const std::uint64_t drawn =
      DrawPoints(vp, pts, filters, PointTable::npos, &fbo, nullptr);
  EXPECT_EQ(drawn, 2u);  // weights 10 and 20 pass
  EXPECT_EQ(fbo.At(5, 5, kChannelCount), 0.0f);
}

TEST(DrawPointsTest, OutOfViewportClipped) {
  Viewport vp(BBox(0, 0, 5, 5), 5, 5);  // excludes points at 5.5 / 9.5
  Fbo fbo(5, 5);
  PointTable pts = MakePoints();
  const std::uint64_t drawn =
      DrawPoints(vp, pts, FilterSet(), PointTable::npos, &fbo, nullptr);
  EXPECT_EQ(drawn, 2u);
}

TEST(DrawPointsTest, CountersMetered) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo fbo(10, 10);
  PointTable pts = MakePoints();
  gpu::Counters counters;
  DrawPoints(vp, pts, FilterSet(), PointTable::npos, &fbo, &counters);
  EXPECT_EQ(counters.vertices(), 4u);
  EXPECT_EQ(counters.fragments(), 4u);
}

// --- The column vertex stage against a scalar reference. -----------------

/// The scalar point pass the column stage must reproduce: per row in order,
/// FilterSet::Matches, Viewport::ToScreen and floor, clipped on the floored
/// pixel (in double, so no out-of-range value is converted), blended with
/// Fbo::Add/BlendMin/BlendMax. Returns the drawn count.
std::uint64_t ScalarDrawPoints(const Viewport& vp, const PointTable& points,
                               const FilterSet& filters,
                               std::size_t weight_column, Fbo* fbo) {
  std::uint64_t drawn = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!filters.Matches(points, i)) continue;
    const Point s = vp.ToScreen(points.At(i));
    const double fx = std::floor(s.x);
    const double fy = std::floor(s.y);
    if (!(fx >= 0.0 && fx < vp.width() && fy >= 0.0 && fy < vp.height())) {
      continue;
    }
    const auto x = static_cast<std::int32_t>(fx);
    const auto y = static_cast<std::int32_t>(fy);
    fbo->Add(x, y, kChannelCount, 1.0f);
    if (weight_column != PointTable::npos) {
      const float w = points.attribute(weight_column)[i];
      fbo->Add(x, y, kChannelSum, w);
      fbo->BlendMin(x, y, kChannelMin, w);
      fbo->BlendMax(x, y, kChannelMax, w);
    }
    ++drawn;
  }
  return drawn;
}

/// Bitwise equality of two canvases (NaN sums compare by their bits).
bool SameBits(const Fbo& a, const Fbo& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data().data(), b.data().data(), a.size_bytes()) == 0;
}

constexpr std::int32_t kOracleW = 37;
constexpr std::int32_t kOracleH = 23;

/// `n` rows over the world [0, 37) × [0, 23) drawn on a 37×23 canvas, so
/// screen = world: a third of the rows sit exactly on pixel edges (integer
/// coordinates, their float neighbours, -0.0 and the far canvas edges),
/// one in twenty is off the canvas or NaN, the rest are uniform. Three
/// columns: two drawn from a small set of values (with ±0.0 and NaN, so
/// equality filters hit) and one fractional weight.
PointTable MakeOracleRows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const float kValues[] = {-2.5f, -0.0f, 0.0f, 0.5f, 1.0f, 3.0f,
                           std::numeric_limits<float>::quiet_NaN()};
  const auto coord = [&](double dim) {
    switch (rng.UniformInt(12)) {
      case 0:
      case 1:
      case 2:
        return static_cast<double>(rng.UniformInt(
            static_cast<std::uint64_t>(dim) + 1));  // on an edge, or dim
      case 3:
        return std::nextafter(
            static_cast<double>(rng.UniformInt(
                static_cast<std::uint64_t>(dim) + 1)),
            -1.0);  // just below an edge
      case 4:
        return rng.UniformInt(2) == 0 ? -0.0 : dim;
      case 5: {
        const double off[] = {-1.0, -1e-12, dim + 0.5, 1e300, -1e300,
                              std::numeric_limits<double>::quiet_NaN()};
        return off[rng.UniformInt(6)];
      }
      default:
        return rng.Uniform(0.0, dim);
    }
  };
  PointTable t;
  t.AddAttribute("a");
  t.AddAttribute("b");
  t.AddAttribute("w");
  for (std::size_t i = 0; i < n; ++i) {
    const double x = coord(kOracleW);
    const double y = coord(kOracleH);
    t.Append(x, y,
             {kValues[rng.UniformInt(7)], kValues[rng.UniformInt(7)],
              static_cast<float>(rng.Uniform(-10.0, 10.0))});
  }
  return t;
}

/// A random conjunction of `k` conjuncts over columns a and b (and the
/// weight column w), every operator, values from the rows' value set.
FilterSet MakeOracleFilters(std::size_t k, Rng* rng) {
  const float kValues[] = {-0.0f, 0.0f, 0.5f, 1.0f, -2.5f};
  const FilterOp kOps[] = {FilterOp::kGreater, FilterOp::kGreaterEqual,
                           FilterOp::kLess, FilterOp::kLessEqual,
                           FilterOp::kEqual};
  FilterSet filters;
  for (std::size_t c = 0; c < k; ++c) {
    const Status added =
        filters.Add({rng->UniformInt(3), kOps[rng->UniformInt(5)],
                     kValues[rng->UniformInt(5)]});
    EXPECT_TRUE(added.ok());
  }
  return filters;
}

TEST(ColumnVertexStageTest, MatchesScalarReferenceForEveryShape) {
  const Viewport vp(BBox(0, 0, kOracleW, kOracleH), kOracleW, kOracleH);
  Rng rng(7);
  for (const std::size_t n : {0u, 1u, 2047u, 2048u, 2049u, 6151u}) {
    const PointTable rows = MakeOracleRows(n, 100 + n);
    for (std::size_t k = 0; k <= kMaxFilterConstraints; ++k) {
      const FilterSet filters = MakeOracleFilters(k, &rng);
      for (const std::size_t weight : {PointTable::npos, std::size_t{2}}) {
        Fbo expected(kOracleW, kOracleH);
        const std::uint64_t expected_drawn =
            ScalarDrawPoints(vp, rows, filters, weight, &expected);
        for (const std::size_t workers : {1u, 2u, 4u}) {
          ThreadPool pool(workers);
          Fbo fbo(kOracleW, kOracleH);
          gpu::Counters counters;
          const std::uint64_t drawn =
              DrawPoints(vp, rows, filters, weight, &fbo, &counters, &pool);
          const std::string where =
              "rows " + std::to_string(n) + ", conjuncts " +
              std::to_string(k) + ", weighted " +
              std::to_string(weight != PointTable::npos) + ", workers " +
              std::to_string(workers);
          EXPECT_EQ(drawn, expected_drawn) << where;
          EXPECT_TRUE(SameBits(fbo, expected)) << where;
          EXPECT_EQ(counters.vertices(), n) << where;
          EXPECT_EQ(counters.fragments(), expected_drawn) << where;
        }
      }
    }
  }
}

TEST(ColumnVertexStageTest, FusedTargetsEachMatchTheirScalarReference) {
  const Viewport vp(BBox(0, 0, kOracleW, kOracleH), kOracleW, kOracleH);
  const PointTable table = MakeOracleRows(5000, 31);
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    // Three members: two filtered (one weighted), and on odd trials one
    // with no filters, which makes the pass transform every row.
    std::vector<FilterSet> filters = {MakeOracleFilters(2, &rng),
                                      MakeOracleFilters(1 + trial % 3, &rng),
                                      MakeOracleFilters(trial % 2, &rng)};
    const std::vector<std::size_t> weights = {2, PointTable::npos, 2};
    // A view that starts mid-table: fragment rows are view-local.
    const std::size_t offset = 3;
    const PointTable rows = table.Slice(offset, table.size());
    std::vector<Fbo> expected;
    std::vector<std::uint64_t> expected_drawn;
    for (std::size_t t = 0; t < filters.size(); ++t) {
      expected.emplace_back(kOracleW, kOracleH);
      expected_drawn.push_back(
          ScalarDrawPoints(vp, rows, filters[t], weights[t], &expected[t]));
    }
    for (const std::size_t workers : {1u, 2u, 4u}) {
      ThreadPool pool(workers);
      std::vector<Fbo> fbos(filters.size(), Fbo(kOracleW, kOracleH));
      std::vector<MultiTarget> targets;
      for (std::size_t t = 0; t < filters.size(); ++t) {
        targets.push_back({&filters[t], weights[t], &fbos[t]});
      }
      gpu::Counters counters;
      const std::vector<std::uint64_t> drawn = DrawPointsMulti(
          vp, data::ViewRows(table, offset, table.size()), targets,
          &counters, &pool);
      std::uint64_t total = 0;
      for (std::size_t t = 0; t < filters.size(); ++t) {
        EXPECT_EQ(drawn[t], expected_drawn[t])
            << "trial " << trial << " target " << t << " workers " << workers;
        EXPECT_TRUE(SameBits(fbos[t], expected[t]))
            << "trial " << trial << " target " << t << " workers " << workers;
        total += expected_drawn[t];
      }
      EXPECT_EQ(counters.vertices(), rows.size());
      EXPECT_EQ(counters.fragments(), total);
    }
  }
}

/// Rows a block file from outside the program can hold: NaN, ±inf and
/// far-off (1e300) coordinates, NaN in a filter column, and NaN weights
/// under a filter on the weight column. None of them may be drawn — the
/// clip runs before any integer conversion, so none of them is converted
/// either (the sanitizer build would flag the conversion).
TEST(ColumnVertexStageTest, NonFiniteRowsAreNeverDrawn) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const float fnan = std::numeric_limits<float>::quiet_NaN();
  PointTable rows;
  rows.AddAttribute("fare");
  rows.AddAttribute("tip");
  std::size_t good = 0;
  for (int rep = 0; rep < 600; ++rep) {  // > kVertexBlockRows rows in all
    const double c = 0.5 + rep % 9;
    rows.Append(c, c, {2.5f, 1.0f});  // drawn
    ++good;
    rows.Append(nan, c, {2.5f, 1.0f});
    rows.Append(c, nan, {2.5f, 1.0f});
    rows.Append(inf, c, {2.5f, 1.0f});
    rows.Append(c, -inf, {2.5f, 1.0f});
    rows.Append(1e300, c, {2.5f, 1.0f});
    rows.Append(c, -1e300, {2.5f, 1.0f});
    rows.Append(c, c, {fnan, 1.0f});  // NaN weight, fails fare > 0
    rows.Append(c, c, {2.5f, fnan});  // NaN in the tip filter column
  }
  FilterSet filters;
  ASSERT_TRUE(filters.Add({0, FilterOp::kGreater, 0.0f}).ok());
  ASSERT_TRUE(filters.Add({1, FilterOp::kGreaterEqual, 0.0f}).ok());

  const Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo expected(10, 10);
  ASSERT_EQ(ScalarDrawPoints(vp, rows, filters, 0, &expected), good);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    Fbo fbo(10, 10);
    EXPECT_EQ(DrawPoints(vp, rows, filters, 0, &fbo, nullptr, &pool), good)
        << "workers " << workers;
    EXPECT_TRUE(SameBits(fbo, expected)) << "workers " << workers;
    // Unfiltered, every finite on-canvas row is drawn — the coordinate
    // rows still are not.
    Fbo count_fbo(10, 10);
    EXPECT_EQ(DrawPoints(vp, rows, FilterSet(), PointTable::npos, &count_fbo,
                         nullptr, &pool),
              3 * good)
        << "workers " << workers;
  }

  for (const Point p : {Point{nan, 1.0}, Point{1.0, nan}, Point{inf, 1.0},
                        Point{1.0, -inf}, Point{1e300, 1.0},
                        Point{1.0, -1e300}}) {
    EXPECT_EQ(vp.PixelOf(p), (std::pair<std::int32_t, std::int32_t>(-1, -1)));
  }
  EXPECT_EQ(vp.PixelOf({9.99, 0.0}),
            (std::pair<std::int32_t, std::int32_t>(9, 0)));
}

TEST(DrawPolygonsTest, AccumulatesPixelAggregates) {
  // One square polygon covering the left half of a 4×4 canvas.
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {2, 0}, {2, 4}, {0, 4}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());
  auto soup = TriangulatePolygonSet(polys);
  ASSERT_TRUE(soup.ok());

  Viewport vp(BBox(0, 0, 4, 4), 4, 4);
  Fbo point_fbo(4, 4);
  point_fbo.Set(0, 0, kChannelCount, 3.0f);
  point_fbo.Set(1, 3, kChannelCount, 2.0f);
  point_fbo.Set(3, 3, kChannelCount, 7.0f);  // outside the polygon

  ResultArrays result(1);
  DrawPolygons(vp, soup.value(), point_fbo, nullptr, &result, nullptr);
  EXPECT_DOUBLE_EQ(result.count[0], 5.0);
}

TEST(DrawPolygonsTest, BoundarySkippedWhenBoundaryFboGiven) {
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());
  auto soup = TriangulatePolygonSet(polys);
  ASSERT_TRUE(soup.ok());

  Viewport vp(BBox(0, 0, 4, 4), 4, 4);
  Fbo point_fbo(4, 4);
  point_fbo.Set(1, 1, kChannelCount, 5.0f);
  point_fbo.Set(2, 2, kChannelCount, 3.0f);

  Fbo boundary(4, 4);
  boundary.Set(1, 1, kChannelCount, 1.0f);  // mark (1,1) as boundary

  ResultArrays result(1);
  DrawPolygons(vp, soup.value(), point_fbo, &boundary, &result, nullptr);
  EXPECT_DOUBLE_EQ(result.count[0], 3.0);  // (1,1) skipped
}

TEST(DrawBoundariesTest, OutlinePixelsMarked) {
  PolygonSet polys;
  polys.emplace_back(Ring{{1, 1}, {7, 1}, {7, 7}, {1, 7}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());

  Viewport vp(BBox(0, 0, 8, 8), 8, 8);
  Fbo boundary(8, 8);
  DrawBoundaries(vp, polys, /*conservative=*/true, &boundary, nullptr);

  // Outline pixels marked; the deep interior stays unmarked. (Pixels
  // whose square merely touches the outline at a corner — like (0,0)
  // touching the outline corner (1,1) — are legitimately marked by
  // conservative rasterization, so they are not asserted either way.)
  EXPECT_TRUE(IsBoundaryPixel(boundary, 1, 1));
  EXPECT_TRUE(IsBoundaryPixel(boundary, 4, 1));
  EXPECT_TRUE(IsBoundaryPixel(boundary, 7, 4));
  EXPECT_FALSE(IsBoundaryPixel(boundary, 4, 4));  // interior
}

TEST(DrawBoundariesTest, HoleOutlinesAlsoMarked) {
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {8, 0}, {8, 8}, {0, 8}},
                     std::vector<Ring>{{{3, 3}, {5, 3}, {5, 5}, {3, 5}}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());

  Viewport vp(BBox(0, 0, 8, 8), 8, 8);
  Fbo boundary(8, 8);
  DrawBoundaries(vp, polys, true, &boundary, nullptr);
  EXPECT_TRUE(IsBoundaryPixel(boundary, 3, 3));  // hole corner
  EXPECT_FALSE(IsBoundaryPixel(boundary, 1, 1));  // solid interior
}

TEST(ResultArraysTest, MergeAddsCountsAndSumsKeepsMinMax) {
  ResultArrays a(2), b(2);
  a.count[0] = 3;
  a.sum[0] = 30;
  a.min[0] = 5;
  a.max[0] = 12;
  b.count[0] = 2;
  b.sum[0] = 20;
  b.min[0] = 2;
  b.max[0] = 9;
  a.AddFrom(b);
  EXPECT_DOUBLE_EQ(a.count[0], 5.0);
  EXPECT_DOUBLE_EQ(a.sum[0], 50.0);
  EXPECT_DOUBLE_EQ(a.min[0], 2.0);
  EXPECT_DOUBLE_EQ(a.max[0], 12.0);
  // Untouched slot stays at identity values.
  EXPECT_DOUBLE_EQ(a.count[1], 0.0);
  EXPECT_TRUE(std::isinf(a.min[1]));
}

}  // namespace
}  // namespace rj::raster
