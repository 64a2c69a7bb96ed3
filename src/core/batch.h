#ifndef E2NVM_CORE_BATCH_H_
#define E2NVM_CORE_BATCH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitvec.h"
#include "common/status.h"
#include "index/value_placer.h"

namespace e2nvm::core {

/// Write batching for small key-value pairs (§4.1.4: "To overcome the
/// overhead incurred due to small key-value pairs, batching can be
/// applied so that small writes are grouped together to form larger
/// writes to memory segments. This way, E2-NVM needs to map the free
/// memory locations based on the batch size rather than the key-value
/// pair size").
///
/// Small values accumulate in a DRAM staging buffer; when the buffer
/// reaches the segment payload, it is placed as one segment-sized write
/// through the underlying ValuePlacer (E2-NVM or arbitrary). The writer
/// keeps a key -> (segment address, offset, width) map, serves reads by
/// slicing the stored batch, and reclaims a segment once every pair in
/// it has been deleted or superseded.
class BatchWriter {
 public:
  /// `batch_bits` is the grouped-write width — at most the placer's
  /// segment width. A full buffer is placed at once with one
  /// ValuePlacer::Place; `Flush()` places a partial one.
  BatchWriter(index::ValuePlacer* placer, size_t batch_bits)
      : placer_(placer), batch_bits_(batch_bits) {}

  ~BatchWriter() = default;
  BatchWriter(const BatchWriter&) = delete;
  BatchWriter& operator=(const BatchWriter&) = delete;

  /// Stages (or restages) a small value; flushes automatically when the
  /// staging buffer cannot take the pair. Values wider than batch_bits
  /// are rejected.
  Status Put(uint64_t key, const BitVector& value);

  /// Reads a value from the staging buffer or from NVM.
  StatusOr<BitVector> Get(uint64_t key);

  /// Removes a key. The slot becomes garbage; when the last live pair of
  /// a placed batch dies, the segment address is released to the placer.
  Status Delete(uint64_t key);

  /// Forces everything staged out: places the staging buffer, if any
  /// pair in it is still live.
  Status Flush();

  size_t size() const { return locations_.size() + staged_pairs(); }
  size_t staged_pairs() const { return current_.order.size(); }
  uint64_t batches_placed() const { return batches_placed_; }
  uint64_t segments_reclaimed() const { return segments_reclaimed_; }

 private:
  struct Location {
    uint64_t addr;    // Segment the batch was placed at.
    size_t offset;    // Bit offset within the batch.
    size_t bits;      // Value width.
  };
  struct BatchInfo {
    size_t live = 0;  // Live pairs still referencing the segment.
  };
  /// The staging buffer: the packed bits plus the key -> (offset, bits)
  /// spans staged into it, in staging order.
  struct Staged {
    BitVector bits;
    std::vector<std::pair<uint64_t, std::pair<size_t, size_t>>> order;
    size_t used = 0;
  };

  Status PutStaged(uint64_t key, const BitVector& value);
  void DropPlaced(uint64_t key);
  /// Removes a staged occurrence of `key`; its bytes become dead space
  /// that flushes as padding.
  void DropStaged(uint64_t key);

  index::ValuePlacer* placer_;
  size_t batch_bits_;

  // The staging buffer (DRAM) being filled.
  Staged current_;

  std::unordered_map<uint64_t, Location> locations_;
  std::unordered_map<uint64_t, BatchInfo> batches_;
  uint64_t batches_placed_ = 0;
  uint64_t segments_reclaimed_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_BATCH_H_
