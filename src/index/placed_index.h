#ifndef E2NVM_INDEX_PLACED_INDEX_H_
#define E2NVM_INDEX_PLACED_INDEX_H_

#include <string>

#include "index/nvm_index.h"
#include "index/rbtree.h"
#include "index/value_placer.h"

namespace e2nvm::index {

/// The "plugged into E2-NVM" mode of any index structure (Fig 12): the
/// key structure lives in DRAM (here an RbTree of key -> NVM address) and
/// every value write is delegated to a ValuePlacer. Because structural
/// maintenance then moves only DRAM pointers, the NVM write pattern is
/// entirely determined by the placer — arbitrary (ArbitraryPlacer) or
/// memory-aware (core::PlacementEngine).
///
/// Updates follow the E2-NVM write algorithm: acquire a fresh
/// similar-content address, then recycle the old one. Every value has
/// one width, fixed at construction, so Get reads back exactly the bits
/// Put wrote.
class PlacedKvIndex : public NvmKvIndex {
 public:
  /// `label` names the augmented structure in reports ("B+Tree+E2", ...);
  /// every value is `value_bits` wide.
  PlacedKvIndex(std::string label, ValuePlacer* placer, size_t value_bits)
      : label_(std::move(label)), placer_(placer), value_bits_(value_bits) {}

  std::string_view name() const override { return label_; }

  /// InvalidArgument, placing nothing, for a value of another width.
  Status Put(uint64_t key, const BitVector& value) override {
    if (value.size() != value_bits_) {
      return Status::InvalidArgument("value width differs from the index's");
    }
    E2_ASSIGN_OR_RETURN(uint64_t addr, placer_->Place(value));
    auto old = map_.Get(key);
    map_.Put(key, addr);
    if (old.has_value()) {
      E2_RETURN_IF_ERROR(placer_->Release(*old));
    }
    return Status::Ok();
  }

  StatusOr<BitVector> Get(uint64_t key) override {
    auto addr = map_.Get(key);
    if (!addr.has_value()) return Status::NotFound("key not found");
    return placer_->Read(*addr, value_bits_);
  }

  Status Delete(uint64_t key) override {
    auto addr = map_.Erase(key);
    if (!addr.has_value()) return Status::NotFound("key not found");
    return placer_->Release(*addr);
  }

  size_t size() const override { return map_.size(); }

 private:
  std::string label_;
  ValuePlacer* placer_;
  size_t value_bits_;
  RbTree map_;
};

}  // namespace e2nvm::index

#endif  // E2NVM_INDEX_PLACED_INDEX_H_
