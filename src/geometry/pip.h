/// \file pip.h
/// \brief Point-in-polygon primitives (the cost the paper eliminates).
///
/// The crossing-number test here is the exact reference semantics for every
/// join variant in the library: a point on a ring edge or vertex is
/// classified kBoundary and treated as *inside* by Polygon::Contains. Fixing
/// the boundary rule globally is what lets the accurate raster join, the
/// index joins, and the brute-force reference return bit-identical results.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/point.h"

namespace rj {

using Ring = std::vector<Point>;

enum class PipResult { kOutside = 0, kInside = 1, kBoundary = 2 };

/// Crossing-number test with explicit boundary detection.
/// O(|ring|); exact for points whose coordinates are representable doubles.
PipResult TestPointInRing(const Ring& ring, const Point& p);

/// Convenience wrapper: boundary counts as inside.
inline bool RingContains(const Ring& ring, const Point& p) {
  return TestPointInRing(ring, p) != PipResult::kOutside;
}

/// This thread's count of PIP tests executed (the work-proportional
/// metric; see DESIGN.md §2). Per-query metering windows take it before
/// and after on the executing thread, plus per-worker deltas inside
/// parallel regions, and add the difference to the device's `pip_tests`
/// counter. A thread-local count keeps concurrent queries out of each
/// other's windows and keeps ring tests off a shared cache line.
std::size_t GetThreadPipTestCount();

}  // namespace rj
