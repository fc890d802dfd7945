/// \file bench_ablation_cell_assignment.cpp
/// \brief Ablation: MBR vs exact-geometry cell assignment for the grid
/// index (§6.1 device build vs §7.1 optimized CPU build). Exact
/// assignment costs more to build but yields fewer candidates per probe —
/// the trade the paper resolves differently on the two processors
/// (per-query device build: MBR; pre-built CPU index: exact).
#include "bench_common.h"
#include "geometry/pip.h"
#include "index/grid_index.h"
#include "join/index_join.h"

using namespace rj;
using namespace rj::bench;

int main() {
  PrintHeader("Ablation: grid cell assignment mode (MBR vs exact geometry)",
              "sections 6.1 vs 7.1 (device build uses MBRs; the optimized "
              "CPU build assigns by actual geometry)");

  const BBox extent = NycExtentMeters();
  const PointTable points = GenerateTaxiPoints(Scaled(500'000));

  std::printf("%-8s %-8s | %12s %12s %14s | %12s\n", "#poly", "res",
              "build(ms)", "entries", "join-1CPU(ms)", "PIP tests");

  for (const std::size_t n_polys : {260u, 1000u}) {
    auto regions = TinyRegions(n_polys, extent, 31 + n_polys);
    if (!regions.ok()) return 1;
    const PolygonSet& polys = regions.value();

    for (const auto mode :
         {GridAssignMode::kMbr, GridAssignMode::kExactGeometry}) {
      double build_ms = 0;
      Result<GridIndex> index = [&] {
        Timer t;
        auto r = GridIndex::Build(polys, extent, 1024, mode);
        build_ms = t.ElapsedMillis();
        return r;
      }();
      if (!index.ok()) return 1;

      // One thread: the join runs on this one, whose PIP counter it meters.
      const std::size_t pips_before = GetThreadPipTestCount();
      IndexJoinOptions options;
      Timer t_join;
      auto join = IndexJoinCpu(points, polys, index.value(), options, 1);
      if (!join.ok()) return 1;
      const double join_ms = t_join.ElapsedMillis();
      const std::size_t pips = GetThreadPipTestCount() - pips_before;

      std::printf("%-8zu %-8s | %12.1f %12zu %14.1f | %12zu\n",
                  static_cast<std::size_t>(n_polys),
                  mode == GridAssignMode::kMbr ? "MBR" : "exact", build_ms,
                  index.value().TotalEntries(), join_ms, pips);
    }
  }

  std::printf(
      "\nTakeaway: exact assignment shrinks candidate lists (fewer PIP\n"
      "tests -> faster joins) at a build cost that only amortizes when the\n"
      "index is reused — matching the paper's split: per-query device\n"
      "builds use MBRs, the pre-built CPU index uses exact geometry.\n");
  return 0;
}
