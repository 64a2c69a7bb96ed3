#ifndef E2NVM_CORE_ADDRESS_POOL_H_
#define E2NVM_CORE_ADDRESS_POOL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace e2nvm::core {

/// Acquire's scan width for a search of the whole free list.
inline constexpr size_t kWholeCluster = SIZE_MAX;

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

  void push_back(uint64_t addr) {
    if (count_ == buf_.size()) Grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = addr;
    ++count_;
  }

  /// Removes and returns the i-th element, preserving FIFO order of the
  /// rest: the i elements before it shift one slot back and the head
  /// advances, so it costs O(i) and erase_at(0) is a pop_front.
  uint64_t erase_at(size_t i) {
    const size_t mask = buf_.size() - 1;
    const uint64_t addr = buf_[(head_ + i) & mask];
    for (size_t j = i; j > 0; --j) {
      buf_[(head_ + j) & mask] = buf_[(head_ + j - 1) & mask];
    }
    head_ = (head_ + 1) & mask;
    --count_;
    return addr;
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
///    content"; Acquire's scan width generalizes that choice);
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

  /// An acquired address; `fallback` when the cluster asked for was out
  /// of range or empty, so it came from another.
  struct Acquired {
    uint64_t addr;
    bool fallback;
  };

  /// Pops the nearest of the first `width` free addresses of `cluster`:
  /// the smallest `distance(addr)`, the earliest on a tie. Width 1 takes
  /// the first, the paper's choice, without calling `distance`;
  /// kWholeCluster scans the whole list. An out-of-range id clamps to
  /// the last cluster and an empty cluster falls back to
  /// LargestCluster(), so the pool never fails while any address is
  /// free. Returns nullopt only when the whole pool is empty.
  template <typename DistanceFn>
  std::optional<Acquired> Acquire(size_t cluster, size_t width,
                                  DistanceFn&& distance) {
    if (lists_.empty()) return std::nullopt;
    bool fallback = cluster >= lists_.size();
    size_t c = ClampCluster(cluster);
    if (lists_[c].empty()) {
      fallback = true;
      c = LargestCluster();
      if (lists_[c].empty()) return std::nullopt;
    }
    FreeList& list = lists_[c];
    const size_t scan = std::min(width, list.size());
    size_t best_i = 0;
    if (scan > 1) {
      size_t best_d = distance(list[0]);
      for (size_t i = 1; i < scan; ++i) {
        const size_t d = distance(list[i]);
        if (d < best_d) {
          best_d = d;
          best_i = i;
        }
      }
    }
    --total_free_;
    return Acquired{list.erase_at(best_i), fallback};
  }

  /// The cluster with the most free addresses, the first on a tie (0
  /// when the pool is empty).
  size_t LargestCluster() const;
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
  /// Maps an out-of-range cluster id into range, counting the incident.
  size_t ClampCluster(size_t cluster) const;

  std::vector<FreeList> lists_;
  size_t total_free_ = 0;
  mutable uint64_t clamped_ids_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_ADDRESS_POOL_H_
