/// \file raster_join_accurate.h
/// \brief Accurate Raster Join (§4.3): exact spatial aggregation that
/// performs point-in-polygon tests only for points on boundary pixels.
///
/// Three steps (per canvas tile, per point batch):
///   1. Draw all polygon outlines into a boundary FBO with conservative
///      rasterization (no partially-covered pixel may be missed).
///   2. Draw points: a point landing on a boundary pixel is resolved with
///      exact PIP tests against the grid-index candidates (Procedure
///      JoinPoint); every other point is blended into the point FBO.
///   3. Render polygons, skipping fragments on boundary pixels (those
///      points were already handled in step 2).
#pragma once

#include <cstdint>
#include <vector>

#include "gpu/device.h"
#include "index/grid_index.h"
#include "join/fused_join.h"
#include "join/join_common.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

struct AccurateRasterJoinOptions {
  /// Canvas resolution (single tile; the accurate variant needs no ε, the
  /// paper uses the device's maximum FBO resolution).
  std::int32_t canvas_dim = 0;  ///< 0 = device max_fbo_dim

  /// Grid-index resolution for Procedure JoinPoint (paper: 1024²).
  std::int32_t index_resolution = 1024;

  std::size_t weight_column = PointTable::npos;
  FilterSet filters;

  /// Maximum points per device batch (0 = derive from memory budget).
  std::size_t batch_size = 0;

  /// Prefetch batch b+1 while batch b draws (join::BatchPipeline; two
  /// point VBOs in flight). See BoundedRasterJoinOptions.
  bool overlap_transfers = true;
};

/// Diagnostics of one accurate execution (group-wide: the scan is shared;
/// a point counts once if any member's filters admit it).
struct AccurateRasterJoinStats {
  std::uint64_t boundary_points = 0;  ///< points that needed PIP resolution
  std::uint64_t interior_points = 0;  ///< points on the fast raster path
  std::uint64_t pip_tests = 0;        ///< exact tests actually executed
  std::size_t num_batches = 0;
};

/// Accurate raster join (§4.3) for a fusion group over blocks `scan` of
/// `source` (ascending ordinals, one device batch per block; see
/// FusedBoundedRasterJoin). The one implementation of the variant: the
/// boundary FBO and grid index are member-independent and built once; each
/// boundary point's containing polygons are resolved once and accumulated
/// into every matching member. PIP tests are metered once per boundary
/// point (not per member) — shared work is the point of fusion; the
/// diagnostic counter reflects tests actually executed. Results are exact
/// (equal to ReferenceJoin) for any canvas resolution.
Result<FusedJoinOutput> FusedAccurateRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members,
    AccurateRasterJoinStats* stats = nullptr);

/// The table form: a one-member FusedAccurateRasterJoin over `points` cut
/// into options.batch_size-row batches (0 = planned from the device
/// budget).
Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const PointTable& points,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats = nullptr);

}  // namespace rj
