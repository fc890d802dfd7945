/// \file pipeline.h
/// \brief Draw calls composing the raster join: point pass, polygon pass,
/// outline pass (bounded/accurate variants, §4 of the paper).
///
/// Each function plays the role of one vertex+fragment shader pair in the
/// paper's OpenGL implementation (§6.1). The "vertex stage" applies filter
/// constraints and the world→screen transform; the "fragment stage" blends
/// into the FBO or accumulates into the result SSBO analogue.
///
/// The point pass reads its rows as a data::BlockView: column pointers
/// into a PointTable, or straight into a block file's mapping, never a
/// copy. In a join the view comes from join::BatchPipeline, whose transfer
/// thread packed (and so first touched) the same block one step ahead, so
/// the vertex stage reads cache-warm pages. PointPass is that pass's two
/// stages, a column-at-a-time vertex stage and a per-target fragment
/// stage, shared by the bounded (DrawPointsMulti) and accurate
/// (FusedAccurateRasterJoin) variants.
#pragma once

#include <cstdint>
#include <vector>

#include "common/default_init_allocator.h"
#include "common/thread_pool.h"
#include "data/point_block_source.h"
#include "data/point_table.h"
#include "gpu/counters.h"
#include "query/filter.h"
#include "raster/fbo.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj::raster {

/// Accumulator slots per polygon (the SSBO array A of the paper, one copy
/// for counts and one for attribute sums so AVG can be formed).
struct ResultArrays {
  std::vector<double> count;  ///< A2 in §5: number of joined points
  std::vector<double> sum;    ///< A1 in §5: sum of the aggregated attribute
  std::vector<double> min;    ///< running minimum of the attribute
  std::vector<double> max;    ///< running maximum of the attribute

  explicit ResultArrays(std::size_t num_polygons = 0) { Resize(num_polygons); }
  void Resize(std::size_t num_polygons);
  void AddFrom(const ResultArrays& other);
};

/// Rows per sub-block of the column vertex stage: its selection masks,
/// selection vector and fragments stay in L1 while a sub-block runs.
inline constexpr std::size_t kVertexBlockRows = 2048;

/// One fragment of the point pass: the packed pixel index (y * width + x)
/// a surviving row lands on, and the row's index in the scanned view.
struct PointFrag {
  std::uint32_t pixel;
  std::uint32_t row;
};

/// Procedure DrawPoints (§4.1): renders every point passing `filters` into
/// `fbo` with additive blending. Channel 0 += 1; channel 1 += weight
/// attribute (if `weight_column` != npos); channels 2/3 track min/max.
/// Points outside the viewport are clipped. Returns the number of points
/// actually drawn (post-filter, post-clip). A one-target DrawPointsMulti
/// over the whole table.
std::uint64_t DrawPoints(const Viewport& vp, const PointTable& points,
                         const FilterSet& filters, std::size_t weight_column,
                         Fbo* fbo, gpu::Counters* counters,
                         ThreadPool* pool = nullptr);

/// One target of a point pass (DrawPointsMulti): the target's filters
/// decide which points it sees, its weight column supplies the blended
/// attribute, and its FBO receives the fragments. FBOs of one pass must be
/// distinct and share one canvas size.
struct MultiTarget {
  const FilterSet* filters = nullptr;
  std::size_t weight_column = PointTable::npos;
  Fbo* fbo = nullptr;
};

/// Storage a point pass reuses from one call to the next: the flat
/// fragment buffer of the parallel fragment stage and, for more than one
/// target, the per-target match bytes. Both are written before they are
/// read, so growing them leaves the new elements uninitialised.
struct PointPassBuffers {
  UninitVector<PointFrag> frags;
  UninitVector<std::uint8_t> match;
};

/// The point pass over one view of rows, split into the paper's two shader
/// stages (§4.1, §6.1) and shared by both raster variants.
///
/// Vertex stage (Vertex): a column-at-a-time loop over sub-blocks of at
/// most kVertexBlockRows rows. Each target's filter conjuncts are evaluated
/// one column at a time into a byte mask (FilterSet::Matches stays the
/// scalar definition these masks equal); the rows some target accepts
/// form a branch-free selection vector; only those rows are transformed,
/// by Viewport::ToScreen itself, and clipped in double before any integer
/// conversion, so NaN, ±inf and far-off coordinates are discarded, never
/// converted. On the canvas s ≥ 0, where truncation equals floor, so every
/// finite point lands on exactly the pixel of ToScreen + floor.
///
/// Fragment stage (Blend): adds one fragment into a target's FBO. Draw runs
/// both stages over the whole view: sub-block by sub-block on one worker,
/// or, when `pool` has more than one worker, with the vertex stage split
/// into contiguous chunks writing their fragments once into one flat
/// buffer and each row band's owner replaying the chunks in ascending
/// order (BlendRuns), keeping the fragments in its rows. Every FBO sees its
/// fragments in ascending row order either way, so the result is bitwise
/// independent of the worker count.
class PointPass {
 public:
  /// One contiguous run of fragments in ascending row order, as one chunk
  /// of a parallel vertex stage wrote it.
  struct FragRun {
    const PointFrag* frags = nullptr;
    std::size_t size = 0;
  };

  /// `rows`, `targets` and `buffers` must outlive the pass; the targets'
  /// FBOs share the canvas size of `vp`.
  PointPass(const Viewport& vp, const data::BlockView& rows,
            const std::vector<MultiTarget>& targets,
            PointPassBuffers* buffers);

  /// Weight column of target `t`, or nullptr for a COUNT-only target.
  const float* weights(std::size_t t) const { return weights_[t]; }

  /// Vertex stage over rows [begin, end), at most kVertexBlockRows of
  /// them: writes to `out`, in ascending row order, one fragment per row
  /// that some target accepts and that lands on the canvas, and returns
  /// the count. Safe to run concurrently on disjoint row ranges.
  std::size_t Vertex(std::size_t begin, std::size_t end, PointFrag* out) const;

  /// True when target `t`'s filters accept the fragment's row (always, for
  /// a one-target pass). Valid once Vertex has run over the row.
  bool Matches(std::size_t t, const PointFrag& f) const {
    return match_ == nullptr || match_[t * rows_.size + f.row] != 0;
  }

  /// Fragment stage of target `t`: count += 1 and, with a weight column,
  /// sum += w, min = min(min, w), max = max(max, w) — Fbo::Add,
  /// Fbo::BlendMin and Fbo::BlendMax at the fragment's pixel, whose strip
  /// it marks dirty.
  void Blend(std::size_t t, const PointFrag& f) const {
    Fbo& fbo = *targets_[t].fbo;
    BlendPixel(fbo.unmarked_data(), weights_[t], f);
    fbo.MarkDirty(f.pixel);
  }

  /// Parallel fragment stage: each row band's owner, one per worker of
  /// `pool`, blends for every target the fragments of `runs` inside its
  /// rows that the target accepts, run by run in order. Adds each target's
  /// blended count to `(*drawn)[t]` when `drawn` is non-null.
  void BlendRuns(const std::vector<FragRun>& runs, ThreadPool* pool,
                 std::vector<std::uint64_t>* drawn) const;

  /// Both stages over the whole view; returns the per-target drawn counts.
  std::vector<std::uint64_t> Draw(ThreadPool* pool) const;

 private:
  static void BlendPixel(float* canvas, const float* weights,
                         const PointFrag& f) {
    float* px = canvas + std::size_t{f.pixel} * kChannels;
    px[kChannelCount] += 1.0f;
    if (weights != nullptr) {
      const float v = weights[f.row];
      px[kChannelSum] += v;
      if (v < px[kChannelMin]) px[kChannelMin] = v;
      if (v > px[kChannelMax]) px[kChannelMax] = v;
    }
  }

  /// Blend for target `t` over the fragments of `run` the target accepts
  /// whose pixel lies in [lo, lo + span); returns their count. The
  /// target's pointers live in locals, so the strip marks (byte stores,
  /// which may alias anything) do not make the loop reload them.
  std::uint64_t BlendRun(std::size_t t, const FragRun& run, std::uint32_t lo,
                         std::uint32_t span) const;

  template <bool kAllRows>
  std::size_t Transform(const std::uint16_t* sel, std::size_t count,
                        std::size_t begin, PointFrag* out) const;

  Viewport vp_;
  const data::BlockView& rows_;
  const std::vector<MultiTarget>& targets_;
  PointPassBuffers* buffers_;
  std::vector<const float*> weights_;  ///< per target; null = COUNT only
  std::uint8_t* match_ = nullptr;      ///< targets × rows; null for one
  bool all_rows_ = false;              ///< some target has no filters
};

/// The point pass, the one implementation of Procedure DrawPoints: one
/// scan of `rows` (PointPass::Draw) feeding every target. Per-target FBOs
/// are disjoint, so each target's FBO is bitwise identical to a one-target
/// pass over it, for any worker count. Returns the per-target drawn
/// counts. Counters meter the shared scan once: vertices += rows.size (not
/// once per target), fragments += the sum of per-target drawn counts.
std::vector<std::uint64_t> DrawPointsMulti(
    const Viewport& vp, const data::BlockView& rows,
    const std::vector<MultiTarget>& targets, gpu::Counters* counters,
    ThreadPool* pool = nullptr);

/// Procedure DrawPolygons (§4.1): rasterizes the triangle soup (world
/// coordinates) and, for each fragment of polygon i, adds the point FBO's
/// partial aggregates at that pixel into `result` slot i.
/// If `boundary_fbo` is non-null, fragments on boundary pixels are skipped
/// (Procedure AccuratePolygons, §4.3).
///
/// Only fragments inside `scissor` (clipped to the canvas; the default is
/// the whole canvas) are shaded and metered. A scissor that holds every
/// pixel with a non-zero count changes no result bit: an empty pixel adds
/// nothing. The joins pass the pixels their point scan can have touched
/// (ScanBounds), so the pass costs the scanned region, not the canvas.
///
/// Each triangle row is one covered interval (RasterizeTriangleSpans): the
/// whole interval is metered as fragments, and only its pixels in dirty
/// strips of `point_fbo` are shaded — a clean strip's pixels hold a count
/// of 0 and add nothing, so results, `fragments` and `atomic_adds` equal a
/// pass that shades every covered pixel.
///
/// When `pool` has more than one worker, triangles are split across
/// workers, each accumulating into a private ResultArrays + gpu::Counters
/// merged in chunk order at the end. COUNT/MIN/MAX merge exactly; SUM is
/// merged per worker, so it matches the sequential result exactly whenever
/// the partial sums are exactly representable (e.g. integer weights).
void DrawPolygons(const Viewport& vp, const TriangleSoup& soup,
                  const Fbo& point_fbo, const Fbo* boundary_fbo,
                  ResultArrays* result, gpu::Counters* counters,
                  ThreadPool* pool = nullptr,
                  const PixelRect& scissor = PixelRect());

/// Step 1 of the accurate variant (§4.3): renders all polygon outlines into
/// `boundary_fbo` (channel 0 = 1 marks a boundary pixel). Conservative
/// rasterization guarantees no partially-covered pixel is missed.
///
/// When `pool` has more than one worker, polygons are split across workers,
/// each staging its outline fragments in its own list, and each row band's
/// pixels are set by its owning worker — the marks are idempotent
/// (Set(…, 1)), so the FBO is bitwise identical to the sequential pass and
/// the fragment meter counts every mark exactly as the sequential loop.
void DrawBoundaries(const Viewport& vp, const PolygonSet& polys,
                    bool conservative, Fbo* boundary_fbo,
                    gpu::Counters* counters, ThreadPool* pool = nullptr);

/// True if the boundary FBO marks pixel (x, y) as a polygon boundary.
inline bool IsBoundaryPixel(const Fbo& boundary_fbo, std::int32_t x,
                            std::int32_t y) {
  return boundary_fbo.At(x, y, kChannelCount) != 0.0f;
}

/// IsBoundaryPixel at a packed pixel index (PointFrag::pixel).
inline bool IsBoundaryPixel(const Fbo& boundary_fbo, std::uint32_t pixel) {
  return boundary_fbo.data()[std::size_t{pixel} * kChannels +
                             kChannelCount] != 0.0f;
}

}  // namespace rj::raster
