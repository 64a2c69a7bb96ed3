#include "core/address_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace e2nvm::core {

size_t DynamicAddressPool::ClampCluster(size_t cluster) const {
  if (cluster < lists_.size()) return cluster;
  // A degraded or buggy clusterer handed us an id we have no list for.
  // Clamp instead of indexing out of bounds; the caller still gets a
  // valid (if arbitrary) cluster, and the incident is observable.
  ++clamped_ids_;
  return lists_.size() - 1;
}

void DynamicAddressPool::Insert(size_t cluster, uint64_t addr) {
  if (lists_.empty()) {
    E2_LOG(kWarning, "dropping address %llu: pool has no clusters",
           static_cast<unsigned long long>(addr));
    return;
  }
  lists_[ClampCluster(cluster)].push_back(addr);
  ++total_free_;
}

size_t DynamicAddressPool::LargestCluster() const {
  size_t best = 0;
  size_t best_size = 0;
  for (size_t c = 0; c < lists_.size(); ++c) {
    if (lists_[c].size() > best_size) {
      best_size = lists_[c].size();
      best = c;
    }
  }
  return best;
}

size_t DynamicAddressPool::TotalFree() const {
  return total_free_;
}

uint64_t DynamicAddressPool::clamped_ids() const {
  return clamped_ids_;
}

size_t DynamicAddressPool::MinClusterFree() const {
  size_t mn = SIZE_MAX;
  for (const auto& l : lists_) mn = std::min(mn, l.size());
  return mn == SIZE_MAX ? 0 : mn;
}

size_t DynamicAddressPool::MemoryFootprintBytes() const {
  // Ring capacity per cluster (>= stored addresses) plus list headers.
  size_t bytes = lists_.size() * sizeof(FreeList);
  for (const auto& l : lists_) bytes += l.capacity() * sizeof(uint64_t);
  return bytes;
}

std::vector<uint64_t> DynamicAddressPool::AllFree() const {
  std::vector<uint64_t> out;
  out.reserve(total_free_);
  for (const auto& l : lists_) {
    for (size_t i = 0; i < l.size(); ++i) out.push_back(l[i]);
  }
  return out;
}

void DynamicAddressPool::Clear() {
  for (auto& l : lists_) l.clear();
  total_free_ = 0;
}

}  // namespace e2nvm::core
