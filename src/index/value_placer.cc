#include "index/value_placer.h"

#include "common/logging.h"

namespace e2nvm::index {

nvm::WriteResult MergeWrite(nvm::MemoryController& ctrl, uint64_t addr,
                            const BitVector& value) {
  nvm::WriteResult r;
  MergeWriteInto(ctrl, addr, value, &r);
  return r;
}

void MergeWriteInto(nvm::MemoryController& ctrl, uint64_t addr,
                    const BitVector& value, nvm::WriteResult* out) {
  E2_CHECK(value.size() <= ctrl.segment_bits(),
           "value wider than a segment");
  if (value.size() == ctrl.segment_bits()) {
    ctrl.WriteInto(addr, value, out);
    return;
  }
  BitVector full = ctrl.Peek(addr);
  full.Overlay(0, value);
  ctrl.WriteInto(addr, full, out);
}

ArbitraryPlacer::ArbitraryPlacer(nvm::MemoryController* ctrl,
                                 uint64_t first_segment,
                                 size_t num_segments)
    : ctrl_(ctrl) {
  for (size_t i = 0; i < num_segments; ++i) {
    free_.push_back(first_segment + i);
  }
}

StatusOr<uint64_t> ArbitraryPlacer::Place(const BitVector& value) {
  if (free_.empty()) {
    return Status::ResourceExhausted("no free segments");
  }
  uint64_t addr = free_.front();
  free_.pop_front();
  MergeWrite(*ctrl_, addr, value);
  return addr;
}

Status ArbitraryPlacer::Release(uint64_t addr) {
  free_.push_back(addr);
  return Status::Ok();
}

BitVector ArbitraryPlacer::Read(uint64_t addr, size_t bits) {
  return ctrl_->Read(addr).Slice(0, bits);
}

}  // namespace e2nvm::index
