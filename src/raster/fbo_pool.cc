#include "raster/fbo_pool.h"

namespace rj::raster {

FboLease& FboLease::operator=(FboLease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr && fbo_ != nullptr) pool_->Release(std::move(fbo_));
    pool_ = other.pool_;
    fbo_ = std::move(other.fbo_);
    other.pool_ = nullptr;
  }
  return *this;
}

FboLease::~FboLease() {
  if (pool_ != nullptr && fbo_ != nullptr) pool_->Release(std::move(fbo_));
}

FboLease FboPool::Acquire(std::int32_t width, std::int32_t height) {
  std::unique_ptr<Fbo> reused;
  {
    MutexLock lock(mutex_);
    // Scan newest-first: the most recently released canvas has the warmest
    // pages. Exact dimension match only — resizing would reallocate anyway.
    for (auto it = parked_.rbegin(); it != parked_.rend(); ++it) {
      if ((*it)->width() == width && (*it)->height() == height) {
        reused = std::move(*it);
        parked_.erase(std::next(it).base());
        retained_bytes_ -= reused->size_bytes();
        ++hits_;
        break;
      }
    }
    if (reused == nullptr) ++misses_;
  }
  // The clear (of the dirty strips) or construction happens outside the
  // lock.
  if (reused != nullptr) {
    reused->Clear();
    return FboLease(this, std::move(reused));
  }
  return FboLease(this, std::make_unique<Fbo>(width, height));
}

void FboPool::Release(std::unique_ptr<Fbo> fbo) {
  MutexLock lock(mutex_);
  retained_bytes_ += fbo->size_bytes();
  parked_.push_back(std::move(fbo));
  // Evict least recently released canvases beyond the cap.
  while (retained_bytes_ > max_retained_bytes_ && !parked_.empty()) {
    retained_bytes_ -= parked_.front()->size_bytes();
    parked_.pop_front();
  }
}

FboPool& FboPool::Shared() {
  static FboPool pool;
  return pool;
}

std::size_t FboPool::retained_bytes() const {
  MutexLock lock(mutex_);
  return retained_bytes_;
}

std::uint64_t FboPool::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t FboPool::misses() const {
  MutexLock lock(mutex_);
  return misses_;
}

}  // namespace rj::raster
