#ifndef E2NVM_CORE_ADDRESS_POOL_H_
#define E2NVM_CORE_ADDRESS_POOL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitvec.h"

namespace e2nvm::core {

/// Grow-only circular FIFO of segment addresses. Free lists see a
/// push_back/pop_front on every PUT; a deque releases and reacquires
/// block storage as elements cycle through, which shows up as steady-
/// state heap churn on the write path. This ring only ever allocates to
/// grow (power-of-two capacity, kept by clear()).
class FreeList {
 public:
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  size_t capacity() const { return buf_.size(); }

  /// i-th element in FIFO order (0 = oldest). No bounds check.
  uint64_t operator[](size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  uint64_t front() const { return buf_[head_]; }

  void push_back(uint64_t addr) {
    if (count_ == buf_.size()) Grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = addr;
    ++count_;
  }

  uint64_t pop_front() {
    uint64_t addr = buf_[head_];
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
    return addr;
  }

  /// Removes the i-th element, preserving FIFO order of the rest
  /// (AcquireBest picks from the middle). O(size - i).
  void erase_at(size_t i) {
    const size_t mask = buf_.size() - 1;
    for (size_t j = i + 1; j < count_; ++j) {
      buf_[(head_ + j - 1) & mask] = buf_[(head_ + j) & mask];
    }
    --count_;
  }

  /// Empties the list but keeps the ring storage (retraining clears and
  /// repopulates the pool on every rebuild).
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  void Grow() {
    const size_t cap = buf_.size();
    std::vector<uint64_t> grown(cap == 0 ? 8 : cap * 2);
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = buf_[(head_ + i) & (cap - 1)];
    }
    buf_ = std::move(grown);
    head_ = 0;
  }

  std::vector<uint64_t> buf_;  // Power-of-two sized (or empty).
  size_t head_ = 0;
  size_t count_ = 0;
};

/// The Cluster-to-Memory Dynamic Address Pool (DAP, §3.3.1): a map from
/// cluster id to the list of free segment addresses predicted to belong to
/// that cluster.
///
///  - PUT pops an address from the predicted cluster (the paper takes the
///    *first* available address — "we just take the first available
///    address in the cluster knowing that it will have a very similar
///    content"; see AcquireBest for the search-within-cluster ablation);
///  - DELETE recycles the freed address into the cluster its content now
///    belongs to;
///  - when a cluster's free list drains below a threshold the store
///    triggers background retraining (§4.1.4).
///
/// Serialized by its owner, with no lock of its own. The owner is the
/// PlacementEngine, whose single-caller contract covers every pool call;
/// in a ShardedStore that caller holds the shard lock, so each shard's
/// DAP is segment-range-local and no other shard ever contends on it.
/// (The paper's "thread-safe methods ... for the data structures that
/// maintain address pools" are that shard lock.)
class DynamicAddressPool {
 public:
  explicit DynamicAddressPool(size_t num_clusters) : lists_(num_clusters) {}

  size_t num_clusters() const { return lists_.size(); }

  /// Adds a free address to `cluster` (initial population and DELETE
  /// recycling). An out-of-range cluster id (a buggy or degraded
  /// clusterer) is clamped to the last cluster rather than losing the
  /// address or corrupting memory.
  void Insert(size_t cluster, uint64_t addr);

  /// Pops the first free address of `cluster`. If the cluster is empty
  /// (or the id is out of range), falls back to the non-empty cluster
  /// with the most free addresses (so the pool never fails while any
  /// address is free). Returns nullopt only when the whole pool is empty.
  std::optional<uint64_t> Acquire(size_t cluster);

  /// Pops a free address from the fullest cluster, ignoring the model —
  /// first-free placement for degraded mode (model/DAP unhealthy).
  std::optional<uint64_t> AcquireAny();

  /// Ablation of the paper's first-available decision: scans the cluster's
  /// free list for the address whose current content (provided by `peek`)
  /// minimizes Hamming distance to `data`, at O(cluster size) cost.
  /// `peek(addr)` must return the segment's logical content.
  template <typename PeekFn>
  std::optional<uint64_t> AcquireBest(size_t cluster, const BitVector& data,
                                      PeekFn&& peek) {
    if (lists_.empty()) return std::nullopt;
    size_t c = ClampCluster(cluster);
    if (lists_[c].empty()) {
      c = LargestCluster();
      if (lists_[c].empty()) return std::nullopt;
    }
    size_t best_i = 0;
    size_t best_d = SIZE_MAX;
    for (size_t i = 0; i < lists_[c].size(); ++i) {
      size_t d = peek(lists_[c][i]).HammingDistance(data);
      if (d < best_d) {
        best_d = d;
        best_i = i;
      }
    }
    uint64_t addr = lists_[c][best_i];
    lists_[c].erase_at(best_i);
    --total_free_;
    return addr;
  }

  /// Free addresses in `cluster`; 0 for an out-of-range id.
  size_t FreeCount(size_t cluster) const;
  /// The free list of `cluster` (< num_clusters()), in acquire order.
  const FreeList& free_list(size_t cluster) const { return lists_[cluster]; }
  size_t TotalFree() const;
  /// Times a caller passed an out-of-range cluster id (diagnostics).
  uint64_t clamped_ids() const;
  /// Smallest free-list size across clusters — the retrain trigger input.
  size_t MinClusterFree() const;

  /// Approximate DRAM footprint of the pool (Fig 7): per-address entry
  /// plus per-cluster list overhead.
  size_t MemoryFootprintBytes() const;

  /// Snapshot of every free address across clusters (used to gather the
  /// training set for re-training).
  std::vector<uint64_t> AllFree() const;

  /// Drops all lists (before re-population after retraining).
  void Clear();

 private:
  size_t LargestCluster() const;
  /// Maps an out-of-range cluster id into range, counting the incident.
  size_t ClampCluster(size_t cluster) const;

  std::vector<FreeList> lists_;
  size_t total_free_ = 0;
  mutable uint64_t clamped_ids_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_ADDRESS_POOL_H_
