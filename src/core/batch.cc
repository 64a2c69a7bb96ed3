#include "core/batch.h"

#include <algorithm>

namespace e2nvm::core {

Status BatchWriter::Put(uint64_t key, const BitVector& value) {
  if (value.size() > batch_bits_) {
    return Status::InvalidArgument("value wider than the batch");
  }
  if (value.empty()) {
    return Status::InvalidArgument("empty value");
  }
  // Supersede any previous version.
  DropPlaced(key);
  DropStaged(key);
  if (current_.used + value.size() > batch_bits_) {
    E2_RETURN_IF_ERROR(Flush());
  }
  return PutStaged(key, value);
}

Status BatchWriter::PutStaged(uint64_t key, const BitVector& value) {
  if (current_.bits.size() != batch_bits_) {
    current_.bits = BitVector(batch_bits_);
    current_.used = 0;
  }
  current_.bits.Overlay(current_.used, value);
  current_.order.emplace_back(key,
                              std::make_pair(current_.used, value.size()));
  current_.used += value.size();
  return Status::Ok();
}

Status BatchWriter::Flush() {
  if (!current_.order.empty()) {
    // A failed placement keeps the pairs staged (and readable).
    E2_ASSIGN_OR_RETURN(uint64_t addr, placer_->Place(current_.bits));
    ++batches_placed_;
    BatchInfo& info = batches_[addr];
    for (const auto& [key, span] : current_.order) {
      locations_[key] = Location{addr, span.first, span.second};
      ++info.live;
    }
  }
  // A buffer of dead space only is dropped unwritten.
  current_ = Staged{};
  return Status::Ok();
}

StatusOr<BitVector> BatchWriter::Get(uint64_t key) {
  for (auto& [k, span] : current_.order) {
    if (k == key) {
      return current_.bits.Slice(span.first, span.second);
    }
  }
  auto it = locations_.find(key);
  if (it == locations_.end()) return Status::NotFound("key not found");
  const Location& loc = it->second;
  BitVector batch = placer_->Read(loc.addr, loc.offset + loc.bits);
  return batch.Slice(loc.offset, loc.bits);
}

void BatchWriter::DropPlaced(uint64_t key) {
  auto it = locations_.find(key);
  if (it == locations_.end()) return;
  uint64_t addr = it->second.addr;
  locations_.erase(it);
  auto bit = batches_.find(addr);
  if (bit != batches_.end() && --bit->second.live == 0) {
    batches_.erase(bit);
    (void)placer_->Release(addr);
    ++segments_reclaimed_;
  }
}

void BatchWriter::DropStaged(uint64_t key) {
  for (auto it = current_.order.begin(); it != current_.order.end(); ++it) {
    if (it->first == key) {
      // Restage: old staged bytes become dead space in the buffer (they
      // flush as padding and are never referenced again).
      current_.order.erase(it);
      return;
    }
  }
}

Status BatchWriter::Delete(uint64_t key) {
  for (auto it = current_.order.begin(); it != current_.order.end(); ++it) {
    if (it->first == key) {
      current_.order.erase(it);
      return Status::Ok();
    }
  }
  if (locations_.find(key) == locations_.end()) {
    return Status::NotFound("key not found");
  }
  DropPlaced(key);
  return Status::Ok();
}

}  // namespace e2nvm::core
