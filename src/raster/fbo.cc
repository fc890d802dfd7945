#include "raster/fbo.h"

#include <algorithm>
#include <limits>

namespace rj::raster {

namespace {

/// Writes the clear values into pixels [first, last) of `data`.
void FillClear(float* data, std::size_t first, std::size_t last) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::size_t p = first; p < last; ++p) {
    float* px = data + p * kChannels;
    px[kChannelCount] = 0.0f;
    px[kChannelSum] = 0.0f;
    px[kChannelMin] = kInf;
    px[kChannelMax] = -kInf;
  }
}

std::size_t NumStrips(std::size_t pixels) {
  return (pixels + (std::size_t{1} << kStripShift) - 1) >> kStripShift;
}

}  // namespace

Fbo::Fbo(std::int32_t width, std::int32_t height)
    : width_(width),
      height_(height),
      data_(static_cast<std::size_t>(width) * height * kChannels),
      strips_(NumStrips(static_cast<std::size_t>(width) * height)) {
  FillClear(data_.data(), 0, data_.size() / kChannels);
}

Fbo::Fbo(const Fbo& other)
    : width_(other.width_),
      height_(other.height_),
      data_(other.data_),
      strips_(other.strips_.size()) {
  for (std::size_t s = 0; s < strips_.size(); ++s) {
    if (other.StripDirty(s)) strips_[s].store(1, std::memory_order_relaxed);
  }
}

void Fbo::Clear() {
  const std::size_t pixels = data_.size() / kChannels;
  const std::size_t n = strips_.size();
  std::size_t s = 0;
  while (s < n) {
    if (!StripDirty(s)) {
      ++s;
      continue;
    }
    // A run of dirty strips [s, e) is one contiguous fill.
    std::size_t e = s;
    for (; e < n && StripDirty(e); ++e) {
      strips_[e].store(0, std::memory_order_relaxed);
    }
    FillClear(data_.data(), s << kStripShift,
              std::min(pixels, e << kStripShift));
    s = e;
  }
}

Fbo::Pixels& Fbo::mutable_data() {
  for (std::atomic<std::uint8_t>& strip : strips_) {
    strip.store(1, std::memory_order_relaxed);
  }
  return data_;
}

}  // namespace rj::raster
