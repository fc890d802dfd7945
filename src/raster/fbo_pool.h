/// \file fbo_pool.h
/// \brief Reusable FBO canvases for per-query draw passes.
///
/// Real GL programs allocate FBOs once and reuse them across frames; the
/// per-query `raster::Fbo` construction here is a multi-megabyte heap
/// allocation whose cost explodes under a concurrent QueryService — each
/// dispatch lands on a different thread, so glibc's per-thread malloc
/// arenas re-fault the canvas pages on every query. The pool keeps
/// released canvases (keyed by exact dimensions) and hands them back
/// cleared, so steady-state queries touch warm, resident memory. The clear
/// rewrites only the canvas's dirty strips (Fbo::Clear): a shard's point
/// pass touches a few strips of a canvas sized for the whole query, so a
/// reacquired canvas costs what the last lease wrote, not its size.
///
/// Thread-safe. Leases are move-only RAII handles; destruction returns the
/// canvas to the pool. The pool caps retained bytes and evicts the least
/// recently released canvases beyond the cap.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "raster/fbo.h"

namespace rj::raster {

class FboPool;

/// Move-only handle to a pooled canvas; returns it on destruction.
class FboLease {
 public:
  FboLease() = default;
  FboLease(FboLease&& other) noexcept
      : pool_(other.pool_), fbo_(std::move(other.fbo_)) {
    other.pool_ = nullptr;
  }
  FboLease& operator=(FboLease&& other) noexcept;
  FboLease(const FboLease&) = delete;
  FboLease& operator=(const FboLease&) = delete;
  ~FboLease();

  Fbo* get() { return fbo_.get(); }
  Fbo& operator*() { return *fbo_; }
  Fbo* operator->() { return fbo_.get(); }
  const Fbo& operator*() const { return *fbo_; }
  const Fbo* operator->() const { return fbo_.get(); }

 private:
  friend class FboPool;
  FboLease(FboPool* pool, std::unique_ptr<Fbo> fbo)
      : pool_(pool), fbo_(std::move(fbo)) {}

  FboPool* pool_ = nullptr;
  std::unique_ptr<Fbo> fbo_;
};

/// A bounded cache of released canvases.
class FboPool {
 public:
  /// `max_retained_bytes` bounds the memory parked in the pool (in-flight
  /// leases are not counted — they are the queries' working sets, already
  /// governed by the admission layer).
  explicit FboPool(std::size_t max_retained_bytes = 256ull << 20)
      : max_retained_bytes_(max_retained_bytes) {}

  /// A cleared width × height canvas, every strip clean — reused (with
  /// only its dirty strips cleared) when one of the exact dimensions is
  /// parked, freshly constructed otherwise. Discarding the lease
  /// immediately parks the canvas again, so the call is pointless.
  [[nodiscard]] FboLease Acquire(std::int32_t width, std::int32_t height)
      RJ_EXCLUDES(mutex_);

  /// Process-wide pool shared by every join / device (canvas dimensions,
  /// not devices, are the reuse key).
  static FboPool& Shared();

  std::size_t retained_bytes() const RJ_EXCLUDES(mutex_);
  std::uint64_t hits() const RJ_EXCLUDES(mutex_);
  std::uint64_t misses() const RJ_EXCLUDES(mutex_);

 private:
  friend class FboLease;
  void Release(std::unique_ptr<Fbo> fbo) RJ_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  /// Most recent at the back.
  std::deque<std::unique_ptr<Fbo>> parked_ RJ_GUARDED_BY(mutex_);
  std::size_t max_retained_bytes_;  ///< immutable after construction
  std::size_t retained_bytes_ RJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ RJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ RJ_GUARDED_BY(mutex_) = 0;
};

}  // namespace rj::raster
