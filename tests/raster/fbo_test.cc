#include "raster/fbo.h"

#include <gtest/gtest.h>

#include <limits>

namespace rj::raster {
namespace {

TEST(FboTest, StartsClearedToChannelIdentities) {
  Fbo fbo(8, 4);
  EXPECT_EQ(fbo.width(), 8);
  EXPECT_EQ(fbo.height(), 4);
  const float inf = std::numeric_limits<float>::infinity();
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_EQ(fbo.At(x, y, kChannelCount), 0.0f);
      EXPECT_EQ(fbo.At(x, y, kChannelSum), 0.0f);
      EXPECT_EQ(fbo.At(x, y, kChannelMin), inf);
      EXPECT_EQ(fbo.At(x, y, kChannelMax), -inf);
    }
  }
  ASSERT_EQ(fbo.num_strips(), 1u);
  EXPECT_FALSE(fbo.StripDirty(0));
}

TEST(FboTest, SetAndGetChannels) {
  Fbo fbo(4, 4);
  fbo.Set(1, 2, kChannelCount, 5.0f);
  fbo.Set(1, 2, kChannelSum, 7.5f);
  EXPECT_EQ(fbo.At(1, 2, kChannelCount), 5.0f);
  EXPECT_EQ(fbo.At(1, 2, kChannelSum), 7.5f);
  EXPECT_EQ(fbo.At(2, 1, kChannelCount), 0.0f);  // other pixel untouched
}

TEST(FboTest, AdditiveBlend) {
  Fbo fbo(2, 2);
  fbo.Add(0, 0, kChannelCount, 1.0f);
  fbo.Add(0, 0, kChannelCount, 1.0f);
  fbo.Add(0, 0, kChannelCount, 1.0f);
  EXPECT_EQ(fbo.At(0, 0, kChannelCount), 3.0f);
}

TEST(FboTest, MinMaxBlend) {
  Fbo fbo(2, 2);
  fbo.BlendMin(0, 0, kChannelMin, 100.0f);  // identity +inf → 100
  fbo.BlendMin(0, 0, kChannelMin, 5.0f);
  fbo.BlendMin(0, 0, kChannelMin, 8.0f);
  EXPECT_EQ(fbo.At(0, 0, kChannelMin), 5.0f);
  fbo.BlendMax(0, 0, kChannelMax, 5.0f);
  fbo.BlendMax(0, 0, kChannelMax, 3.0f);
  EXPECT_EQ(fbo.At(0, 0, kChannelMax), 5.0f);
}

TEST(FboTest, ClearResets) {
  Fbo fbo(3, 3);
  fbo.Add(2, 2, kChannelCount, 9.0f);
  fbo.BlendMin(2, 2, kChannelMin, 1.0f);
  fbo.Clear();
  EXPECT_EQ(fbo.At(2, 2, kChannelCount), 0.0f);
  EXPECT_EQ(fbo.At(2, 2, kChannelMin),
            std::numeric_limits<float>::infinity());
}

TEST(FboTest, InBounds) {
  Fbo fbo(4, 3);
  EXPECT_TRUE(fbo.InBounds(0, 0));
  EXPECT_TRUE(fbo.InBounds(3, 2));
  EXPECT_FALSE(fbo.InBounds(4, 0));
  EXPECT_FALSE(fbo.InBounds(0, 3));
  EXPECT_FALSE(fbo.InBounds(-1, 0));
}

TEST(FboTest, SizeBytesMatchesLayout) {
  Fbo fbo(10, 5);
  EXPECT_EQ(fbo.size_bytes(), 10u * 5u * kChannels * sizeof(float));
}

TEST(FboTest, CountsExactUpToLargeValues) {
  // float32 counts are exact integers up to 2^24.
  Fbo fbo(1, 1);
  fbo.Set(0, 0, 0, 16777215.0f);  // 2^24 - 1
  fbo.Add(0, 0, 0, 1.0f);
  EXPECT_EQ(fbo.At(0, 0, 0), 16777216.0f);
}

}  // namespace
}  // namespace rj::raster
