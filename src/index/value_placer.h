#ifndef E2NVM_INDEX_VALUE_PLACER_H_
#define E2NVM_INDEX_VALUE_PLACER_H_

#include <cstdint>
#include <deque>
#include <string_view>

#include "common/bitvec.h"
#include "common/status.h"
#include "nvm/controller.h"

namespace e2nvm::index {

/// The seam through which a data structure's *value writes* reach NVM.
/// Native structures write the slots they own through MergeWrite;
/// structures that delegate placement call Place/Release and keep only
/// the returned address. E2-NVM augmentation (Fig 12) is implemented by
/// handing an index a placer backed by core::PlacementEngine instead of
/// the arbitrary one.
class ValuePlacer {
 public:
  virtual ~ValuePlacer() = default;

  virtual std::string_view name() const = 0;

  /// Writes `value` to a free segment of the placer's choosing and
  /// returns its logical address.
  virtual StatusOr<uint64_t> Place(const BitVector& value) = 0;

  /// Returns an address to the free pool (its stale content remains in
  /// the cells, as on a real device).
  virtual Status Release(uint64_t addr) = 0;

  /// Reads the first `bits` bits of the value stored at `addr`.
  virtual BitVector Read(uint64_t addr, size_t bits) = 0;

  /// Addresses still available for Place.
  virtual size_t FreeCount() const = 0;
};

/// First-free placement over a MemoryController — models the "arbitrary
/// location" behavior of prior systems (§1: "new data items select an
/// arbitrary location in memory").
class ArbitraryPlacer : public ValuePlacer {
 public:
  /// All logical segments of `ctrl` in [first_segment, first_segment +
  /// num_segments) start free.
  ArbitraryPlacer(nvm::MemoryController* ctrl, uint64_t first_segment,
                  size_t num_segments);

  std::string_view name() const override { return "arbitrary"; }
  StatusOr<uint64_t> Place(const BitVector& value) override;
  Status Release(uint64_t addr) override;
  BitVector Read(uint64_t addr, size_t bits) override;
  size_t FreeCount() const override { return free_.size(); }

 private:
  nvm::MemoryController* ctrl_;
  std::deque<uint64_t> free_;
};

/// Merges `value` into the logical content at `addr` (bits [0,
/// value.size()) replaced, the rest preserved) and writes it through the
/// controller. Shared by every placer and native index.
nvm::WriteResult MergeWrite(nvm::MemoryController& ctrl, uint64_t addr,
                            const BitVector& value);

/// MergeWrite into a caller-owned scratch result: the full-width case —
/// the PUT fast path — runs allocation-free (WriteScheme::WriteInto
/// reuse contract); the narrow case still peeks/overlays a temporary.
void MergeWriteInto(nvm::MemoryController& ctrl, uint64_t addr,
                    const BitVector& value, nvm::WriteResult* out);

}  // namespace e2nvm::index

#endif  // E2NVM_INDEX_VALUE_PLACER_H_
