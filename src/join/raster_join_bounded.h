/// \file raster_join_bounded.h
/// \brief Bounded Raster Join (§4.1–4.2): approximate, ε-Hausdorff-bounded
/// spatial aggregation with zero point-in-polygon tests.
///
/// Algorithm (per canvas tile, per point batch):
///   Step I  (DrawPoints)   — render points into an FBO whose pixels hold
///                            partial aggregates, via additive blending.
///   Step II (DrawPolygons) — rasterize the triangulated polygons over the
///                            same canvas; each fragment of polygon i adds
///                            its pixel's partial aggregate to A[i].
/// The pixel side ε' = ε/√2 guarantees the implicit polygon approximation
/// is within Hausdorff distance ε of the true polygon; when the implied
/// canvas exceeds the device FBO limit it is split into tiles (Fig. 5) and
/// the two steps are repeated per tile.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "agg/result_range.h"
#include "gpu/device.h"
#include "join/fused_join.h"
#include "join/join_common.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

/// Options for one bounded raster join execution.
struct BoundedRasterJoinOptions {
  /// Hausdorff error bound ε in world units (paper default: 10 m for NYC,
  /// 1 km for US-extent data).
  double epsilon = 10.0;

  /// Aggregated attribute column (npos = COUNT-only query).
  std::size_t weight_column = PointTable::npos;

  /// Filter constraints evaluated in the vertex stage.
  FilterSet filters;

  /// Maximum points per device batch; 0 = derive from the device memory
  /// budget (out-of-core processing, §5).
  std::size_t batch_size = 0;

  /// Prefetch batch b+1 on a transfer thread while batch b draws
  /// (join::BatchPipeline), hiding the simulated PCIe wait behind the
  /// draw as the paper's Fig. 9/13 analysis assumes. Needs two point VBOs
  /// in flight (admission reserves 2× the upload stride). Off reproduces
  /// the serialized transfer→draw timing; results are bitwise identical
  /// either way.
  bool overlap_transfers = true;
};

/// Diagnostics of one bounded execution (group-wide: the scan is shared).
struct BoundedRasterJoinStats {
  std::size_t num_tiles = 0;
  std::size_t num_batches = 0;     ///< device batches over all tile passes
  std::uint64_t points_drawn = 0;  ///< fragments blended, summed over members
};

/// Bounded raster join (§4.1–4.2) for a fusion group over blocks `scan` of
/// `source` (ascending ordinals; one device batch per block, drawn from
/// its zero-copy view). The one
/// implementation of the variant: one triangle-VBO upload, one
/// BatchPipeline scan re-streamed per tile, one DrawPointsMulti per
/// tile/batch, then a per-member DrawPolygons + optional §5 ranges. The
/// caller chooses the scan list (SelectBlocks; Executor prunes against its
/// per-query region) and meters it. Bitwise identical for any block size,
/// worker count, or pruned-away blocks that provably contribute nothing.
Result<FusedJoinOutput> FusedBoundedRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members,
    BoundedRasterJoinStats* stats = nullptr);

/// The table form: a one-member FusedBoundedRasterJoin over `points` cut
/// into options.batch_size-row batches (0 = planned from the device
/// budget).
///
/// `world` must cover the polygon set's extent (it defines the canvas).
/// Returns per-polygon partial aggregates; finalize with JoinResult::
/// Finalize. When `ranges_out` is non-null it receives the §5 intervals
/// (single-tile canvases only).
///
/// When `point_fbo_out` is non-null the post-Step-I point FBO is copied
/// out (single-tile canvases only — the same restriction as result
/// ranges). This is the sharded gather hook: per-shard point FBOs sum
/// pixel-wise to exactly the single-device FBO (integer-valued channel
/// partials), letting the Executor recompute §5 ranges bitwise-identically
/// across any shard count (docs/SERVICE.md).
Result<JoinResult> BoundedRasterJoin(gpu::Device* device,
                                     const PointTable& points,
                                     const PolygonSet& polys,
                                     const TriangleSoup& soup,
                                     const BBox& world,
                                     const BoundedRasterJoinOptions& options,
                                     BoundedRasterJoinStats* stats = nullptr,
                                     ResultRanges* ranges_out = nullptr,
                                     std::optional<raster::Fbo>* point_fbo_out =
                                         nullptr);

}  // namespace rj
