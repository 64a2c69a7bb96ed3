#ifndef E2NVM_CORE_SHARD_JOURNAL_H_
#define E2NVM_CORE_SHARD_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bitvec.h"
#include "common/status.h"
#include "pmem/allocator.h"
#include "pmem/pool.h"

namespace e2nvm::core {

/// A per-shard persistent redo journal of logical operations, the durable
/// companion to a ShardedStore shard (the simulated NVM device itself is
/// volatile state of the simulator; the journal is what a crash leaves
/// behind, in the style of MCAS/FlatStore per-core logs).
///
/// Layout: one pmem::Pool per journal holding TWO fixed-capacity slot
/// halves preallocated at creation time — appends never touch allocator
/// state, so a crash mid-append can only be about the record itself, never
/// heap metadata. Only the half named by `Header::active_half` is live;
/// the other is the staging area for checkpoint-and-truncate. Each Append
/// is one undo-log transaction:
///
///   1. write the record into active[count], CRC32C-stamped
///                                          (dead bytes until step 3)
///   2. AddRange(header.count)              (undo image of the old count)
///   3. header.count++                      (the commit point)
///   4. Commit                              (log back to idle)
///
/// A crash at any persist ordinal inside Append leaves either the old count
/// (record invisible; partial slot bytes are dead) or, after recovery rolls
/// back an active transaction, exactly the pre-append state. Replay of a
/// crash image therefore yields a prefix of the appended operations —
/// asserted per-persist-ordinal by tests/crash_recovery_test.cc and
/// continuously by tests/recovery_fuzz_test.cc.
///
/// Checkpoint(records) writes a fresh generation into the inactive half
/// and flips {count, active_half, generation} in one transaction, so a
/// crash during a checkpoint replays either the full old history or
/// exactly the new checkpoint — never a mix.
///
/// Integrity: every committed slot carries a CRC32C over its header
/// fields and value words, and the journal geometry carries its own CRC.
/// Replay verifies both; see ReplayResult for the torn-tail vs. mid-log
/// corruption semantics.
///
/// Thread-compatibility: not synchronized; the owning shard serializes
/// appends behind its shard mutex.
class ShardJournal {
 public:
  enum class Op : uint64_t { kPut = 1, kDelete = 2 };

  /// One replayed logical operation. `value` is empty for kDelete.
  struct Record {
    Op op;
    uint64_t key;
    BitVector value;
  };

  /// Outcome of a checksum-verified replay. `records` is always a clean
  /// prefix of the journaled history:
  ///  - !torn_tail && !corrupted: every committed record was valid.
  ///  - torn_tail: the LAST committed record failed its CRC — the record
  ///    bytes tore on media after the count bump. Replay truncates it
  ///    cleanly; the prefix before it is intact.
  ///  - corrupted: a record strictly before the last failed its CRC
  ///    (mid-log bit rot). `records` holds the valid prefix before
  ///    `first_bad_slot`; everything at and after it is untrusted and the
  ///    caller should quarantine the journal's tail, not replay it.
  struct ReplayResult {
    std::vector<Record> records;
    size_t committed_count = 0;  // Header count at the crash.
    uint64_t generation = 0;     // Checkpoint generation replayed.
    bool torn_tail = false;
    bool corrupted = false;
    size_t first_bad_slot = 0;   // Meaningful when torn_tail || corrupted.
  };

  /// Creates an anonymous-pool journal with room for `capacity` records of
  /// up to `max_value_bits` bits each (per half).
  static StatusOr<std::unique_ptr<ShardJournal>> Create(
      size_t capacity, size_t max_value_bits);

  /// Appends one record transactionally. `value` must be empty for
  /// kDelete and at most max_value_bits wide for kPut. Fails with
  /// kResourceExhausted on a full journal — the owner is expected to
  /// Checkpoint() live state and retry (ShardedStore does).
  Status Append(Op op, uint64_t key, const BitVector& value);

  /// Retracts the last `n` committed records (n <= count()), for rows the
  /// owner journaled but could not apply. The count drop is one undo-
  /// logged transaction, Append's bump in reverse (AddRange, lower,
  /// commit), so a crash at any persist ordinal replays either every
  /// record or the prefix without the last `n`; the retracted slots are
  /// dead bytes until appends reuse them.
  Status Rewind(size_t n);

  /// Atomically replaces the journal contents with `records` as a fresh
  /// generation: the records are staged into the inactive half (dead
  /// bytes), then one undo-logged transaction flips {count, active_half,
  /// generation}. `records.size()` must be <= capacity; the caller
  /// passes the live state of the shard, whose replay is equivalent to
  /// replaying the full retired history.
  Status Checkpoint(const std::vector<Record>& records);

  /// Records appended so far (the persistent count).
  size_t count() const;
  size_t capacity() const { return capacity_; }
  size_t max_value_bits() const { return max_value_bits_; }
  /// Checkpoint generations completed (0 until the first Checkpoint).
  uint64_t generation() const;

  /// The backing pool, for CrashPoint attachment and snapshots.
  pmem::Pool& pool() { return *pool_; }

  /// Byte image of the journal as a power loss right now would leave it.
  std::vector<uint8_t> SnapshotImage() const {
    return pool_->SnapshotImage();
  }

  /// Latest committed, CRC-valid value for `key` in the live journal:
  /// scans the active half backward and returns the newest kPut value,
  /// or nullopt if the key's latest valid record is a delete (or it was
  /// never journaled). The scrubber's redundant copy for repair.
  std::optional<BitVector> FindLatestPut(uint64_t key) const;

  /// Verifies the CRC of every committed slot in the live journal.
  /// Returns the number of slots whose checksum failed; `slots_scanned`
  /// (optional) receives the committed count.
  size_t VerifySlots(size_t* slots_scanned = nullptr) const;

  /// Reopens `image` (running crash recovery) and returns every committed
  /// record in append order. A torn tail is truncated silently; mid-log
  /// corruption fails with kDataLoss. Use ReplayImageVerified when the
  /// recovered prefix of a corrupt journal is still wanted.
  static StatusOr<std::vector<Record>> ReplayImage(
      const std::vector<uint8_t>& image);

  /// Checksum-verified replay with the full torn-tail / mid-log report.
  /// Fails only when the image's pool or journal geometry is unusable;
  /// record-level corruption is reported in the result, with the valid
  /// prefix recovered.
  static StatusOr<ReplayResult> ReplayImageVerified(
      const std::vector<uint8_t>& image);

 private:
  /// Persistent journal header, stored at the pool root offset, followed
  /// immediately by the two slot halves.
  struct Header {
    static constexpr uint64_t kMagic = 0x5A4A4E414C4C5A31ull;
    uint64_t magic;
    uint64_t capacity;
    uint64_t slot_bytes;
    uint64_t max_value_bits;
    uint64_t geometry_crc;  // CRC32C of the four fields above.
    // Mutable state: `count` is flipped under the undo log (and together
    // with `active_half`/`generation` during a checkpoint, so the trio
    // must stay contiguous for one AddRange).
    uint64_t count;
    uint64_t active_half;   // 0 or 1: which slot half replay reads.
    uint64_t generation;    // Checkpoints completed.
  };

  /// Per-slot record header, followed by the value words.
  struct SlotHeader {
    uint64_t op;
    uint64_t key;
    uint64_t value_bits;
    uint64_t crc;  // CRC32C of op/key/value_bits + value words (low 32).
  };

  ShardJournal() = default;

  static size_t SlotBytes(size_t max_value_bits) {
    return sizeof(SlotHeader) + ((max_value_bits + 63) / 64) * 8;
  }

  /// Offset of slot `i` of half `half`.
  pmem::PoolOffset SlotOff(uint64_t half, uint64_t i) const {
    return header_off_ + sizeof(Header) +
           (half * capacity_ + i) * slot_bytes_;
  }

  /// Fills one slot (record bytes + CRC stamp) and persists it.
  void FillSlot(pmem::PoolOffset slot_off, Op op, uint64_t key,
                const BitVector& value);

  std::unique_ptr<pmem::Pool> pool_;
  pmem::PoolOffset header_off_ = pmem::kNullOffset;
  size_t capacity_ = 0;
  size_t max_value_bits_ = 0;
  size_t slot_bytes_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_SHARD_JOURNAL_H_
