/// \file util.h
/// \brief Small helpers shared by the served-traffic benchmark: the clock,
/// order statistics, and bitwise result comparison.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Ratio with a zero base mapped to 0 (every ratio is printed with its base
/// counts, so a 0/0 never hides).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// True when `a` and `b` hold the same doubles bit for bit. NaN (an empty
/// AVG/MIN/MAX group) crosses the wire as null, so any NaN matches any NaN;
/// every other value must match exactly, sign of zero included.
inline bool BitwiseEqual(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, &a[i], sizeof(x));
    std::memcpy(&y, &b[i], sizeof(y));
    if (x != y) return false;
  }
  return true;
}

/// SplitMix64 step: derives independent sub-seeds from the run's seed.
inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
