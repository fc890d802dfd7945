#include "join/batch_pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace rj::join {

namespace {
// Retry budget for capacity pressure none of our own buffers can relieve
// (a concurrent query on a shared device): one immediate retry, then
// sleeps of 2/4/8/16/32 ms before latching CapacityError.
constexpr int kMaxTransientRetries = 6;
}  // namespace

BatchPipeline::BatchPipeline(gpu::Device* device,
                             const data::PointBlockSource* source,
                             std::vector<std::size_t> blocks,
                             std::vector<std::size_t> columns,
                             BatchPipelineOptions options)
    : device_(device),
      source_(source),
      blocks_(std::move(blocks)),
      columns_(std::move(columns)) {
  num_batches_ = blocks_.size();
  // A single batch has nothing to prefetch behind it; stay serialized and
  // keep the working set at one buffer (full_bytes in the admission plan).
  overlap_ = options.overlap_transfers && num_batches_ > 1;
  slots_.resize(overlap_ ? 2 : 1);
  if (overlap_) {
    thread_ = std::thread([this] { TransferLoop(); });
  }
}

BatchPipeline::BatchPipeline(gpu::Device* device, const PointTable* points,
                             std::vector<std::size_t> columns,
                             std::size_t batch_size,
                             BatchPipelineOptions options)
    : device_(device), columns_(std::move(columns)) {
  // The table path is the block path over an in-memory adapter whose
  // blocks are the fixed-size slices: one core loop.
  owned_source_ = std::make_unique<data::TableBlockSource>(
      points, std::max<std::size_t>(batch_size, 1));
  source_ = owned_source_.get();
  blocks_.resize(source_->num_blocks());
  for (std::size_t b = 0; b < blocks_.size(); ++b) blocks_[b] = b;
  num_batches_ = blocks_.size();
  overlap_ = options.overlap_transfers && num_batches_ > 1;
  slots_.resize(overlap_ ? 2 : 1);
  if (overlap_) {
    thread_ = std::thread([this] { TransferLoop(); });
  }
}

BatchPipeline::~BatchPipeline() {
  // Destructor cannot propagate the drain status; callers that care call
  // Drain() themselves first (the executor paths all do).
  (void)Drain(nullptr);
}

Result<std::shared_ptr<gpu::Buffer>> BatchPipeline::AllocateWithBackoff(
    const Slot* slot, std::size_t bytes) {
  int transient_retries = 0;
  for (;;) {
    Result<std::shared_ptr<gpu::Buffer>> vbo =
        device_->Allocate(gpu::BufferKind::kVertexBuffer, bytes);
    if (vbo.ok() || vbo.status().code() != StatusCode::kCapacityError) {
      return vbo;
    }
    if (bytes > device_->memory_budget_bytes()) {
      return vbo;  // can never fit, no matter what gets freed
    }
    // Memory pressure while the previously uploaded batch is still
    // resident (double-buffering needs 2× the batch bytes): degrade to
    // serialized — wait for the consumer to draw and free that batch,
    // then retry. Progress beats prefetch.
    {
      MutexLock lock(mutex_);
      if (canceled_) return vbo;
      bool ours_resident = false;
      for (const Slot& s : slots_) {
        if (&s != slot && s.state == Slot::State::kReady) {
          ours_resident = true;
          break;
        }
      }
      if (ours_resident) {
        // Wait on the free *generation*, not on the neighbor slot reaching
        // kFree: a state predicate could miss a kFree window the slot has
        // already left again. The counter only moves forward, so the freed
        // buffer is observed no matter how far the state has moved on.
        const std::uint64_t observed = frees_;
        while (!canceled_ && frees_ <= observed) cv_producer_.Wait(lock);
        if (canceled_) return vbo;
        transient_retries = 0;
        continue;
      }
      // None of our buffers is resident — the neighbor slot is empty — so
      // no consumer progress can return memory to us.
      // The pressure is a concurrent query on a shared device: retry with
      // a bounded backoff so a transient neighbor allocation degrades
      // throughput instead of failing the
      // stream.
      if (transient_retries >= kMaxTransientRetries) return vbo;
      ++transient_retries;
    }
    if (transient_retries > 1) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1u << (transient_retries - 1)));
    }
  }
}

Status BatchPipeline::LoadSlot(Slot* slot, std::size_t ordinal) {
  Timer timer;
  Result<data::BlockView> view =
      source_->ViewBlock(blocks_[ordinal], &slot->scratch);
  if (source_->disk_resident()) {
    MutexLock lock(mutex_);
    disk_seconds_ += timer.ElapsedSeconds();
  }
  if (!view.ok()) return view.status();
  slot->rows = std::move(view).MoveValueUnsafe();
  // Every block but the last is full, so block b starts at row b·capacity.
  slot->begin = blocks_[ordinal] * source_->block_capacity();
  slot->end = slot->begin + slot->rows.size;

  timer.Restart();
  // Stride from the layout's single definition, so the packed/metered
  // bytes can never drift from what PlanUpload/PlanAdmission reserve.
  const data::BlockView& rows = slot->rows;
  const std::size_t stride = UploadStrideBytes(columns_) / sizeof(float);
  slot->staging.resize(rows.size * stride);
  float* out = slot->staging.data();
  for (std::size_t i = 0; i < rows.size; ++i) {
    *out++ = static_cast<float>(rows.xs[i]);
    *out++ = static_cast<float>(rows.ys[i]);
    for (const std::size_t c : columns_) *out++ = rows.attrs[c][i];
  }

  Status status = Status::OK();
  const std::size_t bytes = slot->staging.size() * sizeof(float);
  if (bytes > 0) {
    Result<std::shared_ptr<gpu::Buffer>> vbo =
        AllocateWithBackoff(slot, bytes);
    if (vbo.ok()) {
      slot->vbo = std::move(vbo).MoveValueUnsafe();
      status = device_->CopyToDevice(slot->vbo.get(), 0,
                                     slot->staging.data(), bytes);
      if (!status.ok()) {
        device_->Free(slot->vbo);
        slot->vbo.reset();
      }
    } else {
      status = vbo.status();
    }
  }
  {
    MutexLock lock(mutex_);
    transfer_seconds_ += timer.ElapsedSeconds();
  }
  return status;
}

void BatchPipeline::TransferLoop() {
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t b = 0; b < num_batches_; ++b) {
      Slot& slot = slots_[b % slots_.size()];
      {
        MutexLock lock(mutex_);
        while (!canceled_ && slot.state != Slot::State::kFree) {
          cv_producer_.Wait(lock);
        }
        if (canceled_) return;
      }
      const Status status = LoadSlot(&slot, b);
      MutexLock lock(mutex_);
      if (!status.ok()) {
        error_ = status;
        cv_consumer_.NotifyAll();
        return;
      }
      slot.batch_index = b;
      slot.state = Slot::State::kReady;
      cv_consumer_.NotifyAll();
    }
    // Pass complete. Park until the consumer rewinds for the next tile
    // pass (or drains) — the thread and the slots' staging buffers stay
    // warm across passes.
    MutexLock lock(mutex_);
    while (!canceled_ && rewinds_ <= pass) cv_producer_.Wait(lock);
    if (canceled_) return;
  }
}

Result<std::optional<BatchPipeline::BatchView>> BatchPipeline::Acquire() {
  // Holding a view starves AllocateWithBackoff when the budget fits only
  // one batch: the prefetcher waits for a free only Release can produce.
  assert(!view_outstanding_ && "Release the previous batch before Acquire");
  if (next_acquire_ >= num_batches_) {
    return std::optional<BatchView>();
  }
  Slot& slot = slots_[next_acquire_ % slots_.size()];
  if (!overlap_) {
    assert(slot.state == Slot::State::kFree && "Release the previous batch");
    RJ_RETURN_NOT_OK(LoadSlot(&slot, next_acquire_));
    slot.batch_index = next_acquire_;
    slot.state = Slot::State::kReady;
    view_outstanding_ = true;
    const BatchView view{next_acquire_++, slot.begin, slot.end, slot.rows};
    return std::optional<BatchView>(view);
  }
  MutexLock lock(mutex_);
  while (error_.ok() && !(slot.state == Slot::State::kReady &&
                          slot.batch_index == next_acquire_)) {
    cv_consumer_.Wait(lock);
  }
  // A batch that made it to the device is consumable even when a *later*
  // prefetch already failed; the error surfaces when the consumer reaches
  // the batch that never became ready.
  if (slot.state == Slot::State::kReady &&
      slot.batch_index == next_acquire_) {
    const BatchView view{slot.batch_index, slot.begin, slot.end, slot.rows};
    ++next_acquire_;
    view_outstanding_ = true;
    return std::optional<BatchView>(view);
  }
  return error_;
}

void BatchPipeline::Release(const BatchView& view) {
  view_outstanding_ = false;
  Slot& slot = slots_[view.index % slots_.size()];
  // Free before flipping the state: the prefetcher touches the slot only
  // after observing kFree under the mutex.
  if (slot.vbo != nullptr) {
    device_->Free(slot.vbo);
    slot.vbo.reset();
  }
  if (overlap_) {
    MutexLock lock(mutex_);
    slot.state = Slot::State::kFree;
    ++frees_;
    cv_producer_.NotifyAll();
  } else {
    slot.state = Slot::State::kFree;
  }
}

Status BatchPipeline::Rewind() {
  assert(next_acquire_ >= num_batches_ && "Rewind mid-pass");
  assert(!view_outstanding_ && "Release the final batch before Rewind");
  next_acquire_ = 0;
  if (!overlap_) return Status::OK();  // serialized: uploads happen inline
  MutexLock lock(mutex_);
  if (!error_.ok()) return error_;
  ++rewinds_;
  cv_producer_.NotifyAll();
  return Status::OK();
}

Status BatchPipeline::Drain(PhaseTimer* timing) {
  {
    MutexLock lock(mutex_);
    canceled_ = true;
    cv_producer_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  // Free whatever is still resident: a prefetched-but-unconsumed batch, or
  // the buffer of a batch the consumer abandoned mid-draw.
  for (Slot& slot : slots_) {
    if (slot.vbo != nullptr) {
      device_->Free(slot.vbo);
      slot.vbo.reset();
    }
    slot.scratch = PointTable();
    slot.rows = data::BlockView();
    slot.state = Slot::State::kFree;
  }
  MutexLock lock(mutex_);
  if (timing != nullptr && !drained_) {
    timing->Add(phase::kTransfer, transfer_seconds_);
    if (disk_seconds_ > 0.0) {
      timing->Add(phase::kDiskRead, disk_seconds_);
    }
  }
  drained_ = true;
  return error_;
}

}  // namespace rj::join
