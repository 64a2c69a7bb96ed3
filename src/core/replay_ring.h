#ifndef E2NVM_CORE_REPLAY_RING_H_
#define E2NVM_CORE_REPLAY_RING_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/bitvec.h"
#include "ml/bit_matrix.h"

namespace e2nvm::core {

/// Fixed-capacity ring of recently written segment images — the training
/// data source of the incremental learning pipeline (DESIGN.md §16).
///
/// One ring per PlacementEngine (so one per shard): the PUT path appends
/// the committed segment image of every placement, and refinement steps
/// read the most recent rows back as mini-batches. Rows are packed bits
/// (ml::BitMatrix), so an append copies the image's words and a refine
/// step expands only the rows it reads. The backing matrix is
/// allocated once by Reset, Append only copies into a slot (overwriting
/// the oldest row once full), so the steady-state write path stays
/// allocation-free. Rows are stored in append order and addressed
/// newest-first via RecentRow — a deterministic function of the write
/// stream alone, which is what makes refinement mini-batches (and
/// therefore the refined model) seed-deterministic and pool-size
/// invariant.
///
/// Single-caller like the engine that owns it: appends and reads are
/// serialized by the engine's external-locking contract.
class ReplayRing {
 public:
  /// Sizes the ring to `capacity` rows of `dim` bits (one allocation;
  /// contents cleared). capacity 0 disables the ring.
  void Reset(size_t capacity, size_t dim) {
    rows_ = ml::BitMatrix(capacity, dim);
    head_ = 0;
    count_ = 0;
    appends_ = 0;
  }

  /// Copies `row` (dim() bits) into the next slot, overwriting the
  /// oldest row once the ring is full. Never allocates.
  void Append(const BitVector& row) {
    assert(capacity() > 0 && row.size() == dim());
    rows_.SetRow(head_, row.words().data());
    head_ = (head_ + 1) % capacity();
    if (count_ < capacity()) ++count_;
    ++appends_;
  }

  /// The i-th most recent row's words (i = 0 is the newest append).
  const uint64_t* RecentRow(size_t i) const {
    assert(i < count_);
    size_t idx = (head_ + capacity() - 1 - i) % capacity();
    return rows_.Row(idx);
  }

  size_t size() const { return count_; }
  size_t capacity() const { return rows_.rows(); }
  size_t dim() const { return rows_.cols(); }
  /// Lifetime appends (diagnostics and determinism tests).
  uint64_t total_appends() const { return appends_; }
  /// Raw backing matrix, for word-level determinism comparisons.
  const ml::BitMatrix& raw() const { return rows_; }

 private:
  ml::BitMatrix rows_;
  size_t head_ = 0;
  size_t count_ = 0;
  uint64_t appends_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_REPLAY_RING_H_
