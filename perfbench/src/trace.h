/// \file trace.h
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded only in the benchmark's own code, around calls into
/// each layer's public functions (nothing inside the library is
/// instrumented). A span carries its name — "<layer>.<what>", so the layer
/// is the name's first component — start, end, parent span and the id of
/// the request it belongs to. Spans stay in memory until the run ends and
/// are then written out as a Chrome trace-event file.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span now and returns its id. Thread-safe.
  std::size_t Begin(const char* name, std::size_t parent,
                    std::uint64_t request);
  /// Closes span `id` now. Thread-safe.
  void End(std::size_t id);

  /// Per layer: summed span duration minus the part of each span's
  /// interval that its children cover (seconds).
  std::map<std::string, double> SelfSecondsByLayer() const;
  std::size_t size() const;

  /// Writes every span as a Chrome trace-event JSON file; false on I/O
  /// failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::size_t parent;
    std::uint64_t request;
  };
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; a null tracer makes it a no-op, so traced and untraced runs
/// share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::size_t parent,
             std::uint64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, request)
                              : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::size_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::size_t id_;
};

}  // namespace perfbench
