/// \file fused_join.h
/// \brief The member list every raster join runs: one point scan serving a
/// group of compatible queries.
///
/// The paper's raster joins are bottlenecked by the point pass — upload +
/// rasterization touch every point, while the polygon pass touches only the
/// (much smaller) polygon set. N compatible concurrent queries therefore
/// waste N−1 scans. A *fusion group* shares the scan: one BatchPipeline
/// upload, one vertex stage per point, and per-member fragment accumulation
/// targets (raster::DrawPointsMulti), followed by a per-member polygon pass
/// over the member's own FBO.
///
/// Each raster variant has exactly one implementation, the group core
/// (FusedBoundedRasterJoin, FusedAccurateRasterJoin, declared next to
/// their variant's options). A solo query is a group of one, and the
/// variants' table forms reduce to a one-member group over a
/// data::TableBlockSource.
///
/// Compatibility is structural: members must agree on everything that shapes
/// the shared scan — the dataset, the variant, and the canvas (ε for
/// bounded, canvas_dim for accurate). Aggregates, weight columns, filters,
/// and §5 range requests are free per member.
///
/// Determinism contract: a member's arrays / ranges / exported FBO are
/// bitwise identical to its group of one, with any batch size. Per-member
/// FBOs are disjoint, the shared transform is a pure function of the
/// point, and per-pixel blend order within one member is the sequential
/// point order regardless of batch boundaries (batches are contiguous
/// ascending ranges — the argument docs/SERVICE.md makes for the pipeline).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "agg/result_range.h"
#include "gpu/device.h"
#include "join/join_common.h"
#include "raster/fbo.h"

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
/// ascending. The single definition shared by the group cores and the
/// Executor's admission plan — the grant must cover exactly the stride the
/// pipeline ships (same contract as TriangleVboBytes).
std::vector<std::size_t> FusedUploadColumns(
    const std::vector<FusedMemberSpec>& members);

/// The group cores' argument checks: a non-empty group, polygon ids
/// 0..n-1, and every member's columns within `source`.
Status ValidateFusedMembers(const data::PointBlockSource& source,
                            const PolygonSet& polys,
                            const std::vector<FusedMemberSpec>& members);

/// The table forms' scan: `points` cut into blocks of `batch_size` rows,
/// or, when `batch_size` is 0, of the size PlanUpload fits into the
/// device's free bytes at `member`'s upload stride (which may downgrade
/// `*overlap_transfers` to the serialized pipeline).
data::TableBlockSource TableBatches(gpu::Device* device,
                                    const PointTable& points,
                                    const FusedMemberSpec& member,
                                    std::size_t batch_size,
                                    bool* overlap_transfers);

/// Member 0 of a one-member group's output as the table forms' JoinResult.
JoinResult SoloResult(FusedJoinOutput* out);

}  // namespace rj
