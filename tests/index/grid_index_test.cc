#include "index/grid_index.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"

namespace rj {
namespace {

PolygonSet TwoSquares() {
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  polys.emplace_back(Ring{{6, 6}, {10, 6}, {10, 10}, {6, 10}});
  polys[0].set_id(0);
  polys[1].set_id(1);
  for (auto& p : polys) EXPECT_TRUE(p.Normalize().ok());
  return polys;
}

TEST(GridIndexTest, BuildRejectsBadInput) {
  const PolygonSet polys = TwoSquares();
  EXPECT_FALSE(
      GridIndex::Build(polys, BBox(0, 0, 10, 10), 0, GridAssignMode::kMbr)
          .ok());
  EXPECT_FALSE(GridIndex::Build(polys, BBox(), 16, GridAssignMode::kMbr).ok());
}

TEST(GridIndexTest, CandidatesContainTruePolygon) {
  const PolygonSet polys = TwoSquares();
  auto index =
      GridIndex::Build(polys, BBox(0, 0, 10, 10), 16, GridAssignMode::kMbr);
  ASSERT_TRUE(index.ok());
  auto [begin, end] = index.value().Candidates({2, 2});
  std::set<std::int32_t> cands(begin, end);
  EXPECT_TRUE(cands.count(0));
  EXPECT_FALSE(cands.count(1));
}

TEST(GridIndexTest, OutsideExtentReturnsEmpty) {
  const PolygonSet polys = TwoSquares();
  auto index =
      GridIndex::Build(polys, BBox(0, 0, 10, 10), 8, GridAssignMode::kMbr);
  ASSERT_TRUE(index.ok());
  auto [begin, end] = index.value().Candidates({20, 20});
  EXPECT_EQ(begin, end);
  EXPECT_EQ(index.value().CellOf({20, 20}), -1);
}

TEST(GridIndexTest, ExactGeometryModeHasFewerEntries) {
  // A thin diagonal polygon: MBR assignment covers the whole bbox grid
  // area, exact-geometry only the diagonal band.
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {1, 0}, {10, 9}, {10, 10}, {9, 10}, {0, 1}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());
  auto mbr =
      GridIndex::Build(polys, BBox(0, 0, 10, 10), 16, GridAssignMode::kMbr);
  auto exact = GridIndex::Build(polys, BBox(0, 0, 10, 10), 16,
                                GridAssignMode::kExactGeometry);
  ASSERT_TRUE(mbr.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(exact.value().TotalEntries(), mbr.value().TotalEntries());
  EXPECT_GT(exact.value().TotalEntries(), 0u);
}

TEST(GridIndexTest, ExactModeNeverMissesContainingPolygon) {
  // Soundness of the §7.1 optimization: for any point, the exact-geometry
  // candidate list still contains every polygon containing the point.
  auto polys = TinyRegions(10, BBox(0, 0, 100, 100), 11);
  ASSERT_TRUE(polys.ok());
  auto index = GridIndex::Build(polys.value(), BBox(0, 0, 100, 100), 32,
                                GridAssignMode::kExactGeometry);
  ASSERT_TRUE(index.ok());
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    auto [begin, end] = index.value().Candidates(p);
    const std::set<std::int32_t> cands(begin, end);
    for (const Polygon& poly : polys.value()) {
      if (poly.Contains(p)) {
        EXPECT_TRUE(cands.count(static_cast<std::int32_t>(poly.id())))
            << "polygon " << poly.id() << " missing for point (" << p.x
            << "," << p.y << ")";
      }
    }
  }
}

TEST(GridIndexTest, MbrModeCandidatesSupersetOfExactMode) {
  auto polys = TinyRegions(8, BBox(0, 0, 50, 50), 13);
  ASSERT_TRUE(polys.ok());
  auto mbr = GridIndex::Build(polys.value(), BBox(0, 0, 50, 50), 16,
                              GridAssignMode::kMbr);
  auto exact = GridIndex::Build(polys.value(), BBox(0, 0, 50, 50), 16,
                                GridAssignMode::kExactGeometry);
  ASSERT_TRUE(mbr.ok());
  ASSERT_TRUE(exact.ok());
  Rng rng(19);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.Uniform(0, 50), rng.Uniform(0, 50)};
    auto [eb, ee] = exact.value().Candidates(p);
    auto [mb, me] = mbr.value().Candidates(p);
    const std::set<std::int32_t> mset(mb, me);
    for (const std::int32_t* c = eb; c != ee; ++c) {
      EXPECT_TRUE(mset.count(*c));
    }
  }
}

TEST(GridIndexTest, MbrBuildMatchesBruteForceOverlap) {
  // 16 × 16 grid of unit cells over [0, 16)²: coordinates on a quarter
  // grid are exact, so floor-based cell ranges are unambiguous. Cells are
  // half-open, and the edge cells extend outward (MBRs are clamped).
  constexpr std::int32_t kRes = 16;
  Rng rng(23);
  PolygonSet polys;
  for (int i = 0; i < 40; ++i) {
    const double x0 = rng.UniformInt(80) * 0.25 - 2.0;  // [-2, 17.75]
    const double y0 = rng.UniformInt(80) * 0.25 - 2.0;
    const double w = 0.25 + rng.UniformInt(24) * 0.25;
    const double h = 0.25 + rng.UniformInt(24) * 0.25;
    polys.emplace_back(
        Ring{{x0, y0}, {x0 + w, y0}, {x0 + w, y0 + h}, {x0, y0 + h}});
    polys.back().set_id(i);
    ASSERT_TRUE(polys.back().Normalize().ok());
  }
  auto index = GridIndex::Build(polys, BBox(0, 0, kRes, kRes), kRes,
                                GridAssignMode::kMbr);
  ASSERT_TRUE(index.ok());

  // Whether [lo, hi] overlaps cell c's span on one axis.
  const auto overlaps = [](double lo, double hi, std::int32_t c) {
    const bool below = c > 0 && hi < c;
    const bool above = c < kRes - 1 && lo >= c + 1;
    return !below && !above;
  };
  std::size_t total = 0;
  for (std::int32_t cy = 0; cy < kRes; ++cy) {
    for (std::int32_t cx = 0; cx < kRes; ++cx) {
      std::vector<std::int32_t> expected;
      for (std::size_t pid = 0; pid < polys.size(); ++pid) {
        const BBox& mbr = polys[pid].bbox();
        if (overlaps(mbr.min_x, mbr.max_x, cx) &&
            overlaps(mbr.min_y, mbr.max_y, cy)) {
          expected.push_back(static_cast<std::int32_t>(pid));
        }
      }
      auto [begin, end] = index.value().Candidates({cx + 0.5, cy + 0.5});
      EXPECT_EQ(std::vector<std::int32_t>(begin, end), expected)
          << "cell (" << cx << ", " << cy << ")";
      total += expected.size();
    }
  }
  EXPECT_EQ(index.value().TotalEntries(), total);
}

TEST(GridIndexTest, SizeBytesPositive) {
  const PolygonSet polys = TwoSquares();
  auto index =
      GridIndex::Build(polys, BBox(0, 0, 10, 10), 8, GridAssignMode::kMbr);
  ASSERT_TRUE(index.ok());
  EXPECT_GT(index.value().SizeBytes(), 0u);
  EXPECT_EQ(index.value().resolution(), 8);
}

TEST(GridIndexTest, PolygonSpanningManyCells) {
  // One polygon covering everything: every cell lists it.
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());
  auto index =
      GridIndex::Build(polys, BBox(0, 0, 10, 10), 4, GridAssignMode::kMbr);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().TotalEntries(), 16u);
}

}  // namespace
}  // namespace rj
