#include "geometry/pip.h"

#include "geometry/segment.h"

namespace rj {

namespace {
thread_local std::size_t t_pip_tests = 0;
}  // namespace

std::size_t GetThreadPipTestCount() { return t_pip_tests; }

PipResult TestPointInRing(const Ring& ring, const Point& p) {
  ++t_pip_tests;
  const std::size_t n = ring.size();
  if (n < 3) return PipResult::kOutside;

  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = ring[j];
    const Point& b = ring[i];

    // Exact boundary check first: degenerate horizontal edges and vertices
    // would otherwise be misclassified by the crossing rule.
    if (PointOnSegment(a, b, p, 0.0)) return PipResult::kBoundary;

    // Half-open edge rule [min_y, max_y): each crossing counted once.
    const bool crosses_y = (b.y > p.y) != (a.y > p.y);
    if (crosses_y) {
      const double x_at_y = b.x + (p.y - b.y) * (a.x - b.x) / (a.y - b.y);
      if (p.x < x_at_y) inside = !inside;
    }
  }
  return inside ? PipResult::kInside : PipResult::kOutside;
}

}  // namespace rj
