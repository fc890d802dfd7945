/// \file fused_join.h
/// \brief Fused multi-query raster joins: one point scan serving a group of
/// compatible queries.
///
/// The paper's raster joins are bottlenecked by the point pass — upload +
/// rasterization touch every point, while the polygon pass touches only the
/// (much smaller) polygon set. N compatible concurrent queries therefore
/// waste N−1 scans. A *fusion group* shares the scan: one BatchPipeline
/// upload, one vertex stage per point, and per-member fragment accumulation
/// targets (raster::DrawPointsMulti), followed by a per-member polygon pass
/// over the member's own FBO.
///
/// Compatibility is structural: members must agree on everything that shapes
/// the shared scan — the dataset, the variant, and the canvas (ε for
/// bounded, canvas_dim for accurate). Aggregates, weight columns, filters,
/// and §5 range requests are free per member.
///
/// Determinism contract: every member's arrays / ranges / exported FBO are
/// bitwise identical to running that member alone through the unfused join
/// with any batch size. Per-member FBOs are disjoint, the shared transform
/// is a pure function of the point, and per-pixel blend order within one
/// member is the sequential point order regardless of batch boundaries
/// (batches are contiguous ascending ranges — the same argument
/// docs/SERVICE.md makes for the unfused pipeline).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "agg/result_range.h"
#include "gpu/device.h"
#include "join/join_common.h"
#include "raster/fbo.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

/// The per-member half of a fusion group: what may differ across members.
struct FusedMemberSpec {
  /// Aggregated attribute column (npos = COUNT-only member).
  std::size_t weight_column = PointTable::npos;

  /// Filter constraints evaluated in the shared vertex stage.
  FilterSet filters;

  /// Compute §5 result ranges for this member (bounded variant only;
  /// requires a single-tile canvas).
  bool compute_result_ranges = false;

  /// Export this member's post-Step-I point FBO (bounded variant only;
  /// single-tile canvas). The sharded gather hook, exactly as in
  /// BoundedRasterJoin.
  bool export_point_fbo = false;
};

/// The group-wide half: what every member must share.
struct FusedJoinOptions {
  /// Hausdorff bound ε (bounded variant; defines the shared canvas).
  double epsilon = 10.0;

  /// Canvas resolution (accurate variant; 0 = device max_fbo_dim).
  std::int32_t canvas_dim = 0;

  /// Grid-index resolution for boundary points (accurate variant).
  std::int32_t index_resolution = 1024;

  /// Prefetch batch b+1 while batch b draws (join::BatchPipeline).
  bool overlap_transfers = true;
};

/// What one fused execution produces: slot i belongs to the i-th member.
/// `timing` is group-level — the scan is shared, so per-member phase
/// attribution would be fiction; callers replicate it across members.
struct FusedJoinOutput {
  std::vector<raster::ResultArrays> arrays;
  std::vector<ResultRanges> ranges;  ///< empty unless the member asked
  std::vector<std::optional<raster::Fbo>> point_fbos;
  PhaseTimer timing;
};

/// Columns of the fused upload: the union of every member's UploadColumns,
/// ascending. The single definition shared by the fused joins and the
/// Executor's fused admission plan — the grant must cover exactly the
/// stride the pipeline ships (same contract as TriangleVboBytes).
std::vector<std::size_t> FusedUploadColumns(
    const std::vector<FusedMemberSpec>& members);

/// Bounded raster join (§4.1–4.2) for a fusion group over blocks `scan`
/// of `source` (ascending ordinals; one device batch per block, as in the
/// unfused block-source joins): one triangle-VBO upload, one BatchPipeline
/// scan, one DrawPointsMulti per tile/batch, then a per-member
/// DrawPolygons + optional §5 ranges.
Result<FusedJoinOutput> FusedBoundedRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members);

/// Accurate raster join (§4.3) for a fusion group: the boundary FBO and
/// grid index are member-independent and built once; each boundary point's
/// containing polygons are resolved once and accumulated into every
/// matching member. PIP tests are metered once per boundary point (not per
/// member) — shared work is the point of fusion; the diagnostic counter
/// reflects tests actually executed. Scans blocks `scan` of `source` like
/// FusedBoundedRasterJoin.
Result<FusedJoinOutput> FusedAccurateRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members);

}  // namespace rj
