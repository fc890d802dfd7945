/// \file fbo.h
/// \brief Frame buffer object: the canvas points and polygons are drawn on.
///
/// Mirrors the paper's use of OpenGL FBOs (§3): each pixel holds four
/// 32-bit channels [r,g,b,a]. The raster join stores partial aggregates in
/// those channels — channel 0 counts points, channel 1 sums the aggregated
/// attribute (§5, "Aggregates"). Counts are exact in float32 up to 2^24
/// points per pixel, far above any realistic density; this matches the
/// precision model of the paper's implementation.
///
/// Next to the pixels the canvas keeps a map of dirty strips: runs of
/// 2^kStripShift consecutive packed pixels (y · width + x) that may hold
/// something other than the clear values. Every write marks its strip, so
/// a clean strip is known to hold the clear values — in particular a point
/// count of 0. Clear rewrites only the dirty strips, and the polygon pass
/// shades only them (an empty pixel adds nothing to any aggregate).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/default_init_allocator.h"

namespace rj::raster {

/// Number of channels per pixel, as in an RGBA framebuffer.
inline constexpr int kChannels = 4;

/// Well-known channel roles used by the join algorithms.
inline constexpr int kChannelCount = 0;  ///< number of points in the pixel
inline constexpr int kChannelSum = 1;    ///< sum of the aggregated attribute
inline constexpr int kChannelMin = 2;    ///< running minimum (MIN aggregate)
inline constexpr int kChannelMax = 3;    ///< running maximum (MAX aggregate)

/// Dirty strip s of a canvas covers packed pixels [s << kStripShift,
/// (s + 1) << kStripShift): 64 pixels, 1 KiB of channels. Strips follow the
/// packed order, so on a width that is not a multiple of 64 a strip runs on
/// into the next row.
inline constexpr int kStripShift = 6;

class Fbo {
 public:
  using Pixels = UninitVector<float>;

  /// Creates a width × height framebuffer cleared to the per-channel
  /// identity (0 for count/sum, ±infinity for min/max), writing each
  /// channel once. Every strip starts clean.
  Fbo(std::int32_t width, std::int32_t height);
  Fbo(const Fbo& other);
  Fbo(Fbo&&) noexcept = default;
  Fbo& operator=(const Fbo&) = delete;
  Fbo& operator=(Fbo&&) noexcept = default;

  std::int32_t width() const { return width_; }
  std::int32_t height() const { return height_; }
  std::size_t size_bytes() const { return data_.size() * sizeof(float); }

  /// glClear analogue. Count/sum channels clear to 0; the min channel to
  /// +infinity and the max channel to -infinity so MIN/MAX blending has
  /// the correct identity (a real GL implementation clears to a chosen
  /// clear color; ±inf are valid float32 clear values). Rewrites only the
  /// dirty strips — the clean ones hold these values already — and leaves
  /// every strip clean.
  void Clear();

  bool InBounds(std::int32_t x, std::int32_t y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  /// Channel accessors; no bounds checking (hot path). Every writer marks
  /// the pixel's strip dirty.
  float At(std::int32_t x, std::int32_t y, int channel) const {
    return data_[Index(x, y, channel)];
  }
  void Set(std::int32_t x, std::int32_t y, int channel, float v) {
    data_[Index(x, y, channel)] = v;
    MarkDirty(Pixel(x, y));
  }
  /// Additive blend (glBlendFunc(GL_ONE, GL_ONE) analogue).
  void Add(std::int32_t x, std::int32_t y, int channel, float v) {
    data_[Index(x, y, channel)] += v;
    MarkDirty(Pixel(x, y));
  }
  /// Min/Max blend (glBlendEquation(GL_MIN/GL_MAX) analogue).
  void BlendMin(std::int32_t x, std::int32_t y, int channel, float v) {
    float& cur = data_[Index(x, y, channel)];
    if (v < cur) cur = v;
    MarkDirty(Pixel(x, y));
  }
  void BlendMax(std::int32_t x, std::int32_t y, int channel, float v) {
    float& cur = data_[Index(x, y, channel)];
    if (v > cur) cur = v;
    MarkDirty(Pixel(x, y));
  }

  const Pixels& data() const { return data_; }
  /// Write access to the whole canvas: marks every strip dirty, so the
  /// next Clear rewrites the whole canvas.
  Pixels& mutable_data();

  /// Pixel storage for a writer that marks the strip of every pixel it
  /// writes itself, with MarkDirty — the point pass's fragment stage.
  float* unmarked_data() { return data_.data(); }

  /// Marks the strip of packed pixel `pixel` (y · width + x) dirty. A
  /// relaxed atomic store: writers of disjoint pixels (the point pass's
  /// row-band owners) may share a strip across a band edge.
  void MarkDirty(std::size_t pixel) {
    strips_[pixel >> kStripShift].store(1, std::memory_order_relaxed);
  }

  std::size_t num_strips() const { return strips_.size(); }
  /// False when every pixel of strip `s` holds the clear values.
  bool StripDirty(std::size_t s) const {
    return strips_[s].load(std::memory_order_relaxed) != 0;
  }

 private:
  std::size_t Pixel(std::int32_t x, std::int32_t y) const {
    return static_cast<std::size_t>(y) * width_ + x;
  }
  std::size_t Index(std::int32_t x, std::int32_t y, int channel) const {
    return Pixel(x, y) * kChannels + channel;
  }

  std::int32_t width_;
  std::int32_t height_;
  Pixels data_;
  std::vector<std::atomic<std::uint8_t>> strips_;  ///< 1 = dirty
};

}  // namespace rj::raster
