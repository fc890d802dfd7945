/// \file raster_join_accurate.h
/// \brief Accurate Raster Join (§4.3): exact spatial aggregation that
/// performs point-in-polygon tests only for points on boundary pixels.
///
/// Three steps (one canvas, point batches streamed through step 2):
///   1. Draw all polygon outlines into a boundary mask with conservative
///      rasterization (no partially-covered pixel may be missed).
///   2. Draw points: a point landing on a boundary pixel is resolved with
///      exact PIP tests against the grid-index candidates (Procedure
///      JoinPoint); every other point is blended into the point FBO.
///   3. Render polygons, skipping fragments on boundary pixels (those
///      points were already handled in step 2).
///
/// Step 1's mask and step 2's §6.1 grid index depend only on the polygons,
/// the world and the canvas: they are per-dataset polygon preprocessing
/// (the paper's Table 1), not query work. The group core reads them
/// prebuilt; query::Executor builds each once per dataset (mask per canvas
/// dim) and the table form builds both per call.
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

  /// Grid-index resolution for Procedure JoinPoint (paper: 1024²). The
  /// table form builds its index at this resolution per call.
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

/// The accurate canvas side: `canvas_dim`, or (0) the device's max FBO
/// side.
std::int32_t AccurateCanvasDim(const gpu::Device& device,
                               std::int32_t canvas_dim);

/// InvalidArgument unless 0 < `dim` <= the device's max FBO side: the
/// accurate canvas is one tile, so a larger side is a dim² canvas (and
/// boundary mask) the device cannot hold.
Status ValidateAccurateCanvasDim(const gpu::Device& device, std::int32_t dim);

/// Step 1: the outlines of `polys`, conservatively rasterized into a new
/// dim × dim mask over `world` (fragments metered into `counters`, which
/// may be null).
raster::Fbo BuildBoundaryMask(const PolygonSet& polys, const BBox& world,
                              std::int32_t dim, gpu::Counters* counters,
                              ThreadPool* pool = nullptr);

/// Accurate raster join (§4.3) for a fusion group over blocks `scan` of
/// `source` (ascending ordinals, one device batch per block; see
/// FusedBoundedRasterJoin). The one implementation of the variant. It
/// reads the polygon preprocessing prebuilt: `boundary_mask`, the
/// BuildBoundaryMask of the canvas (options.canvas_dim, 0 = device
/// max_fbo_dim), and `index`, a grid index of `polys` over `world` (MBR
/// mode in the paper). Each boundary point's containing polygons are
/// resolved once and accumulated into every matching member. PIP tests
/// are metered once per boundary point (not per member) — shared work is
/// the point of fusion; the diagnostic counter reflects tests actually
/// executed. Results are exact (equal to ReferenceJoin) for any canvas
/// resolution.
Result<FusedJoinOutput> FusedAccurateRasterJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world,
    const raster::Fbo& boundary_mask, const GridIndex& index,
    const FusedJoinOptions& options,
    const std::vector<FusedMemberSpec>& members,
    AccurateRasterJoinStats* stats = nullptr);

/// The table form: a one-member FusedAccurateRasterJoin over `points` cut
/// into options.batch_size-row batches (0 = planned from the device
/// budget). Builds the mask and an MBR index at options.index_resolution
/// per call (timed as processing and index_build, metered on `device`).
Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const PointTable& points,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats = nullptr);

}  // namespace rj
