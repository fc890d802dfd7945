/// \file batch_pipeline.h
/// \brief Double-buffered host→device upload pipeline for the out-of-core
/// regime (§5, Figures 9/13).
///
/// The paper's out-of-core analysis assumes the host→device transfer of
/// point batch b+1 is hidden behind the draw of batch b. BatchPipeline
/// implements that overlap for the simulated device: a dedicated transfer
/// thread packs the interleaved [x, y, col...] VBO image of the next batch
/// into a persistent staging buffer and uploads it through
/// Device::CopyToDevice — which meters the bytes and spends the simulated
/// PCIe wait — while the caller's draw workers rasterize the current
/// batch. Two device VBO slots bound the look-ahead: at most batches b and
/// b+1 are resident at once, which is why admission plans
/// (Executor::PlanAdmission) reserve 2× the upload stride when overlap is
/// enabled.
///
/// Results are bitwise independent of the overlap: batches are handed to
/// the consumer strictly in order and every draw runs on the consumer's
/// thread(s) exactly as in the serialized path — the pipeline only moves
/// the transfer wait off the critical path. `overlap_transfers = false`
/// reproduces today's serialized transfer→draw timing (one buffer in
/// flight, uploads inline), which the paper-shape breakdown benches use as
/// the comparison baseline.
///
/// The pipeline streams the selected blocks of a data::PointBlockSource —
/// one device batch per block — and the consumer loops Acquire()/Release()
/// until Acquire returns nullopt, then calls Rewind() to re-stream every
/// block for the next tile pass (the thread and the staging buffers
/// survive across passes) or Drain() when done. The PointTable convenience
/// ctor wraps the table in an in-memory adapter (data::TableBlockSource)
/// whose blocks are fixed-size slices.
///
/// Two stages, views not copies. Every batch is the zero-copy
/// data::BlockView PointBlockSource::ViewBlock returns — a window of the
/// parent table for in-memory sources, column pointers into the mapping
/// for a block file — so no stage copies a block's rows. The transfer
/// thread's VBO pack is the first touch of each block (for a block file,
/// that is where its pages fault in, timed as transfer, not disk read),
/// one block ahead of the consumer's draw. Two slots cover the two stages,
/// so at most two VBOs are resident: the 2× stride the admission plan
/// reserves.
///
/// Error handling: the first failure (device allocation, upload) is
/// latched; batches that already made it to the device are still handed
/// out in order, and the error surfaces from Acquire when the consumer
/// reaches the batch that never became ready (and from Drain).
/// Memory pressure is not an error: when the budget cannot hold two
/// batches, the prefetcher waits for the in-flight batch to be drawn and
/// freed before allocating (AllocateWithBackoff) — double-buffering
/// degrades to serialized instead of failing a query that fits one batch.
/// The destructor always cancels and joins the transfer thread and frees
/// any slot buffers, so an error — or a consumer that stops mid-stream —
/// can never leak the thread or device memory.
///
/// Transfer time accounting: the wall time of pack + upload is accumulated
/// internally (the PhaseTimer API is not thread-safe) and folded into
/// phase::kTransfer by Drain(). With overlap on, that phase reports the
/// time *spent* transferring, which no longer adds to end-to-end latency —
/// exactly the paper's "transfer is hidden" claim the Fig. 9 bench checks.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "data/point_block_source.h"
#include "data/point_table.h"
#include "gpu/device.h"
#include "join/join_common.h"

namespace rj::join {

struct BatchPipelineOptions {
  /// Prefetch batch b+1 on the transfer thread while batch b draws. Off
  /// reproduces the serialized transfer→draw loop (and halves the device
  /// working set: one buffer in flight instead of two).
  bool overlap_transfers = true;
};

class BatchPipeline {
 public:
  /// One uploaded batch, resident on the device until Release()d. Its
  /// rows are rows [begin, end) of the source's row order, and `rows` is
  /// the zero-copy view of exactly those rows (row i of the view is source
  /// row begin + i): into the parent table for an in-memory source, into
  /// the mapping for a block file. The view outlives Release() as long as
  /// the source does; the device buffer does not.
  struct BatchView {
    std::size_t index = 0;  ///< batch ordinal (ascending)
    std::size_t begin = 0;  ///< first point row
    std::size_t end = 0;    ///< one past the last point row
    data::BlockView rows;   ///< the batch's columns
  };

  /// Streams blocks `blocks` (ordinals into `source`, ascending — the
  /// zone-map-selected scan list) as one device batch each. Neither is
  /// copied; `source` must outlive the pipeline.
  /// Starts the transfer thread when overlap is enabled and there is more
  /// than one batch.
  BatchPipeline(gpu::Device* device, const data::PointBlockSource* source,
                std::vector<std::size_t> blocks,
                std::vector<std::size_t> columns,
                BatchPipelineOptions options);

  /// Over a resident table: scans `points` (not copied; must outlive the
  /// pipeline) in `batch_size`-point slices via an internal in-memory
  /// adapter. BatchView row ranges are global indices into
  /// `*points`.
  BatchPipeline(gpu::Device* device, const PointTable* points,
                std::vector<std::size_t> columns, std::size_t batch_size,
                BatchPipelineOptions options);

  /// Cancels and joins the transfer thread, freeing any slot buffers.
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// Planned batch count.
  std::size_t num_batches() const { return num_batches_; }

  /// Blocks until the next batch is resident on the device and returns
  /// its row range; nullopt once every batch has been consumed.
  /// The caller must Release() the previous batch before the next
  /// Acquire(): under memory pressure the prefetcher waits for that free
  /// (AllocateWithBackoff), so holding a view while acquiring the next
  /// batch would deadlock when the budget fits only one batch. Asserted.
  [[nodiscard]] Result<std::optional<BatchView>> Acquire()
      RJ_EXCLUDES(mutex_);

  /// Marks the batch drawn; its slot becomes available to the prefetcher.
  void Release(const BatchView& view) RJ_EXCLUDES(mutex_);

  /// Restarts the scan from batch 0 for the next tile pass,
  /// once every batch of the current pass has been consumed and released.
  /// Keeps the transfer thread and the slots' staging buffers alive —
  /// multi-tile joins re-stream the points without paying a thread spawn
  /// and two batch-sized staging allocations per tile. Returns the
  /// latched pipeline error, if any.
  Status Rewind() RJ_EXCLUDES(mutex_);

  /// Joins the transfer thread, folds the accumulated transfer wall time
  /// into `timing` under phase::kTransfer (once; pass nullptr to skip),
  /// and returns the first pipeline error. Idempotent.
  Status Drain(PhaseTimer* timing) RJ_EXCLUDES(mutex_);

 private:
  struct Slot {
    /// Persistent staging buffer: resized per batch but never reallocated
    /// once it has reached the steady-state batch size (the same
    /// transient-allocation fix FboPool applies to canvases).
    std::vector<float> staging;
    std::shared_ptr<gpu::Buffer> vbo;
    /// Scratch for a source whose ViewBlock copies (the base
    /// implementation over a copying ReadBlock); the in-memory adapter and
    /// the block-file reader never touch it.
    PointTable scratch;
    data::BlockView rows;
    std::size_t batch_index = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    enum class State {
      kFree,   ///< available to the prefetcher
      kReady,  ///< upload complete, awaiting the consumer
    } state = State::kFree;
  };

  /// Allocates a slot's device buffer, backing off under memory pressure:
  /// when the budget cannot hold this batch *and* the previously uploaded
  /// one, waits for the consumer to draw and free that batch instead of
  /// failing — double-buffering degrades to serialized, it never turns a
  /// query that fits one batch into an error.
  Result<std::shared_ptr<gpu::Buffer>> AllocateWithBackoff(const Slot* slot,
                                                           std::size_t bytes)
      RJ_EXCLUDES(mutex_);

  /// Views block ordinal `ordinal` of the scan list into `slot` (setting
  /// rows/begin/end), packs the view into the slot's staging buffer and
  /// uploads it. The view lookup is timed as disk read for disk-resident
  /// sources, the pack and upload as transfer. Runs on the transfer thread
  /// (overlap) or the caller (serialized).
  Status LoadSlot(Slot* slot, std::size_t ordinal) RJ_EXCLUDES(mutex_);

  void TransferLoop() RJ_EXCLUDES(mutex_);

  gpu::Device* device_;
  const data::PointBlockSource* source_ = nullptr;
  std::vector<std::size_t> blocks_;  ///< scan list (block ordinals)
  /// Backing adapter for the PointTable convenience ctor; source_ points
  /// at it.
  std::unique_ptr<data::TableBlockSource> owned_source_;
  std::vector<std::size_t> columns_;
  std::size_t num_batches_ = 0;
  bool overlap_ = false;

  /// 2 with overlap, 1 serialized. NOT guarded by mutex_ —
  /// slot *payloads* (staging/vbo/scratch/rows/begin/end) move between
  /// threads by ownership handoff: exactly one stage owns a slot at a time,
  /// determined by its `state`, and every state transition happens under
  /// mutex_ (overlap mode), so the mutex acquisition orders the previous
  /// owner's payload writes before the next owner's reads. Serialized mode
  /// has a single thread and touches slots lock-free. The analysis cannot
  /// express per-element ownership, so the protocol is enforced by the
  /// asserts in the .cc and TSan instead.
  std::vector<Slot> slots_;
  std::size_t next_acquire_ = 0;              ///< consumer cursor
  bool view_outstanding_ = false;  ///< consumer-private: unreleased view
  /// Free generation: bumped (under mutex_) whenever the consumer returns
  /// a slot's device buffer (Release). AllocateWithBackoff waits for this
  /// to advance rather than for a slot to *be* kFree — a counter advance
  /// can never be un-observed, whatever the slot's state has moved on to.
  std::uint64_t frees_ RJ_GUARDED_BY(mutex_) = 0;
  /// Completed-pass rewind count.
  std::size_t rewinds_ RJ_GUARDED_BY(mutex_) = 0;
  bool canceled_ RJ_GUARDED_BY(mutex_) = false;
  bool drained_ RJ_GUARDED_BY(mutex_) = false;

  mutable Mutex mutex_;
  CondVar cv_producer_;  ///< transfer thread: slot freed/queued
  CondVar cv_consumer_;  ///< consumer: upload finished/error
  Status error_ RJ_GUARDED_BY(mutex_) = Status::OK();
  double transfer_seconds_ RJ_GUARDED_BY(mutex_) = 0.0;
  /// Accumulated block view wall time (disk-resident sources).
  double disk_seconds_ RJ_GUARDED_BY(mutex_) = 0.0;

  std::thread thread_;
};

}  // namespace rj::join
