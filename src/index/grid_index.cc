#include "index/grid_index.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/math_utils.h"
#include "raster/conservative.h"

namespace rj {

namespace {

/// Enumerates the cells whose area intersects `poly`'s geometry, as
/// boundary cells (conservative walk of every ring edge in grid
/// coordinates) plus interior cells (scanline over row centers). A cell
/// overlapping the polygon either has the boundary passing through it or
/// lies entirely inside, where its center is inside — so the union is
/// exactly the set of intersecting cells. `stamp`/`stamp_value` dedupe
/// across the two phases without clearing an array per polygon.
void CellsIntersectingPolygon(const Polygon& poly, const BBox& extent,
                              std::int32_t resolution, double cell_w,
                              double cell_h,
                              std::vector<std::int32_t>* stamp,
                              std::int32_t stamp_value,
                              std::vector<std::int64_t>* out) {
  out->clear();
  auto mark = [&](std::int32_t cx, std::int32_t cy) {
    if (cx < 0 || cx >= resolution || cy < 0 || cy >= resolution) return;
    const std::int64_t cell =
        static_cast<std::int64_t>(cy) * resolution + cx;
    if ((*stamp)[cell] == stamp_value) return;
    (*stamp)[cell] = stamp_value;
    out->push_back(cell);
  };

  // Boundary cells: conservative walk of each edge in grid coordinates.
  auto walk_ring = [&](const Ring& ring) {
    const std::size_t n = ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Point a{(ring[i].x - extent.min_x) / cell_w,
                    (ring[i].y - extent.min_y) / cell_h};
      const Point b{(ring[(i + 1) % n].x - extent.min_x) / cell_w,
                    (ring[(i + 1) % n].y - extent.min_y) / cell_h};
      raster::RasterizeSegmentConservative(a, b, resolution, resolution,
                                           mark);
    }
  };
  walk_ring(poly.outer());
  for (const Ring& hole : poly.holes()) walk_ring(hole);

  // Interior cells: per row, crossings of all ring edges with the row's
  // center line give inside intervals; cells whose centers fall in an
  // interval are inside (boundary cells are already marked above).
  const BBox& mbr = poly.bbox();
  std::int32_t r0 = static_cast<std::int32_t>(
      std::floor((mbr.min_y - extent.min_y) / cell_h));
  std::int32_t r1 = static_cast<std::int32_t>(
      std::floor((mbr.max_y - extent.min_y) / cell_h));
  r0 = Clamp(r0, 0, resolution - 1);
  r1 = Clamp(r1, 0, resolution - 1);

  std::vector<double> crossings;
  for (std::int32_t r = r0; r <= r1; ++r) {
    const double yc = extent.min_y + (r + 0.5) * cell_h;
    crossings.clear();
    auto collect = [&](const Ring& ring) {
      const std::size_t n = ring.size();
      for (std::size_t i = 0; i < n; ++i) {
        const Point& a = ring[i];
        const Point& b = ring[(i + 1) % n];
        if ((a.y > yc) == (b.y > yc)) continue;  // half-open rule
        crossings.push_back(a.x + (yc - a.y) * (b.x - a.x) / (b.y - a.y));
      }
    };
    collect(poly.outer());
    for (const Ring& hole : poly.holes()) collect(hole);
    std::sort(crossings.begin(), crossings.end());

    for (std::size_t k = 0; k + 1 < crossings.size(); k += 2) {
      // Columns whose centers lie in (crossings[k], crossings[k+1]).
      const double gx0 = (crossings[k] - extent.min_x) / cell_w - 0.5;
      const double gx1 = (crossings[k + 1] - extent.min_x) / cell_w - 0.5;
      std::int32_t c0 = static_cast<std::int32_t>(std::ceil(gx0));
      std::int32_t c1 = static_cast<std::int32_t>(std::floor(gx1));
      c0 = std::max(c0, 0);
      c1 = std::min(c1, resolution - 1);
      for (std::int32_t c = c0; c <= c1; ++c) mark(c, r);
    }
  }
}

}  // namespace

template <typename ForEachCell>
void GridIndex::LayOut(std::size_t num_polys,
                       const ForEachCell& for_each_cell) {
  // Pass 1: counts in offsets_[c + 1], then an in-place prefix sum.
  const std::int64_t num_cells =
      static_cast<std::int64_t>(resolution_) * resolution_;
  offsets_.assign(num_cells + 1, 0);
  for (std::size_t pid = 0; pid < num_polys; ++pid) {
    for_each_cell(pid, [&](std::int64_t c) { ++offsets_[c + 1]; });
  }
  for (std::int64_t c = 0; c < num_cells; ++c) {
    offsets_[c + 1] += offsets_[c];
  }

  // Pass 2: fill in polygon order, so each cell lists ascending ids.
  // offsets_[c] serves as cell c's cursor and ends at c's end, which is
  // c + 1's start: one shift restores the offsets.
  entries_.resize(offsets_[num_cells]);
  for (std::size_t pid = 0; pid < num_polys; ++pid) {
    for_each_cell(pid, [&](std::int64_t c) {
      entries_[offsets_[c]++] = static_cast<std::int32_t>(pid);
    });
  }
  std::move_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

Result<GridIndex> GridIndex::Build(const PolygonSet& polys, const BBox& extent,
                                   std::int32_t resolution,
                                   GridAssignMode mode) {
  if (resolution <= 0) {
    return Status::InvalidArgument("grid resolution must be positive");
  }
  if (extent.IsEmpty() || extent.Width() <= 0 || extent.Height() <= 0) {
    return Status::InvalidArgument("grid extent is empty");
  }

  GridIndex index;
  index.resolution_ = resolution;
  index.extent_ = extent;
  index.mode_ = mode;
  index.cell_w_ = extent.Width() / resolution;
  index.cell_h_ = extent.Height() / resolution;

  auto cell_range = [&](const BBox& box) {
    std::int32_t cx0 = static_cast<std::int32_t>(
        std::floor((box.min_x - extent.min_x) / index.cell_w_));
    std::int32_t cy0 = static_cast<std::int32_t>(
        std::floor((box.min_y - extent.min_y) / index.cell_h_));
    std::int32_t cx1 = static_cast<std::int32_t>(
        std::floor((box.max_x - extent.min_x) / index.cell_w_));
    std::int32_t cy1 = static_cast<std::int32_t>(
        std::floor((box.max_y - extent.min_y) / index.cell_h_));
    cx0 = Clamp(cx0, 0, resolution - 1);
    cy0 = Clamp(cy0, 0, resolution - 1);
    cx1 = Clamp(cx1, 0, resolution - 1);
    cy1 = Clamp(cy1, 0, resolution - 1);
    return std::array<std::int32_t, 4>{cx0, cy0, cx1, cy1};
  };

  if (mode == GridAssignMode::kMbr) {
    // Each polygon's cells are its MBR's cell range: both passes walk the
    // range directly, no per-polygon cell lists.
    index.LayOut(polys.size(), [&](std::size_t pid, const auto& visit) {
      const auto [cx0, cy0, cx1, cy1] = cell_range(polys[pid].bbox());
      for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
        const std::int64_t row = static_cast<std::int64_t>(cy) * resolution;
        for (std::int32_t cx = cx0; cx <= cx1; ++cx) visit(row + cx);
      }
    });
  } else {
    // Enumerating a polygon's geometry cells is costly, so each list is
    // computed once and replayed by both passes.
    std::vector<std::vector<std::int64_t>> cells_of(polys.size());
    std::vector<std::int32_t> stamp(
        static_cast<std::size_t>(resolution) * resolution, -1);
    for (std::size_t pid = 0; pid < polys.size(); ++pid) {
      CellsIntersectingPolygon(polys[pid], extent, resolution, index.cell_w_,
                               index.cell_h_, &stamp,
                               static_cast<std::int32_t>(pid),
                               &cells_of[pid]);
    }
    index.LayOut(polys.size(), [&](std::size_t pid, const auto& visit) {
      for (const std::int64_t c : cells_of[pid]) visit(c);
    });
  }
  return index;
}

std::int64_t GridIndex::CellOf(const Point& p) const {
  if (!extent_.Contains(p)) return -1;
  std::int32_t cx = static_cast<std::int32_t>(
      std::floor((p.x - extent_.min_x) / cell_w_));
  std::int32_t cy = static_cast<std::int32_t>(
      std::floor((p.y - extent_.min_y) / cell_h_));
  cx = Clamp(cx, 0, resolution_ - 1);
  cy = Clamp(cy, 0, resolution_ - 1);
  return static_cast<std::int64_t>(cy) * resolution_ + cx;
}

std::pair<const std::int32_t*, const std::int32_t*> GridIndex::Candidates(
    const Point& p) const {
  const std::int64_t c = CellOf(p);
  if (c < 0) {
    return {nullptr, nullptr};
  }
  const std::int32_t* base = entries_.data();
  return {base + offsets_[c], base + offsets_[c + 1]};
}

}  // namespace rj
