#include "core/shard_journal.h"

#include <cstring>

#include "common/kernels.h"
#include "pmem/tx.h"

namespace e2nvm::core {

namespace {

/// CRC32C of one slot: the header fields before the crc, chained with the
/// value words named by the slot's own value_bits. The caller has already
/// range-checked value_bits against the journal geometry.
uint32_t SlotCrc(const void* slot_base, uint64_t value_bits) {
  const auto* bytes = static_cast<const uint8_t*>(slot_base);
  constexpr size_t kCrcField = 3 * sizeof(uint64_t);  // op, key, value_bits.
  uint32_t crc = Ops().crc32c(0, bytes, kCrcField);
  const size_t value_bytes = ((value_bits + 63) / 64) * 8;
  return Ops().crc32c(crc, bytes + kCrcField + sizeof(uint64_t),
                      value_bytes);
}

}  // namespace

StatusOr<std::unique_ptr<ShardJournal>> ShardJournal::Create(
    size_t capacity, size_t max_value_bits) {
  if (capacity == 0 || max_value_bits == 0) {
    return Status::InvalidArgument("empty journal geometry");
  }
  const size_t slot_bytes = SlotBytes(max_value_bits);
  // Two halves: the active log and the checkpoint staging area.
  const size_t region_bytes = sizeof(Header) + 2 * capacity * slot_bytes;
  // Header + undo log + heap metadata + the slot region (with allocator
  // rounding headroom), rounded up to pages.
  size_t pool_bytes = pmem::Pool::kHeaderBytes + pmem::TxLog::kLogBytes +
                      8192 + 2 * region_bytes;
  pool_bytes = (pool_bytes + 4095) & ~size_t{4095};

  std::unique_ptr<ShardJournal> j(new ShardJournal());
  E2_ASSIGN_OR_RETURN(j->pool_,
                      pmem::Pool::CreateAnonymous("shard-journal",
                                                  pool_bytes));
  pmem::Allocator alloc(j->pool_.get());
  E2_ASSIGN_OR_RETURN(j->header_off_, alloc.Alloc(region_bytes));

  auto* h = j->pool_->As<Header>(j->header_off_);
  h->magic = Header::kMagic;
  h->capacity = capacity;
  h->slot_bytes = slot_bytes;
  h->max_value_bits = max_value_bits;
  h->geometry_crc = Crc32c(h, offsetof(Header, geometry_crc));
  h->count = 0;
  h->active_half = 0;
  h->generation = 0;
  j->pool_->Persist(j->header_off_, sizeof(Header));
  // The root offset is how ReplayImage finds the journal after recovery.
  j->pool_->set_root(j->header_off_);

  j->capacity_ = capacity;
  j->max_value_bits_ = max_value_bits;
  j->slot_bytes_ = slot_bytes;
  return j;
}

size_t ShardJournal::count() const {
  return pool_->As<Header>(header_off_)->count;
}

uint64_t ShardJournal::generation() const {
  return pool_->As<Header>(header_off_)->generation;
}

void ShardJournal::FillSlot(pmem::PoolOffset slot_off, Op op, uint64_t key,
                            const BitVector& value) {
  auto* slot = pool_->As<SlotHeader>(slot_off);
  slot->op = static_cast<uint64_t>(op);
  slot->key = key;
  slot->value_bits = value.size();
  auto* words = reinterpret_cast<uint8_t*>(slot + 1);
  std::memset(words, 0, slot_bytes_ - sizeof(SlotHeader));
  if (!value.empty()) {
    std::memcpy(words, value.words().data(), value.num_words() * 8);
  }
  slot->crc = SlotCrc(slot, slot->value_bits);
  pool_->Persist(slot_off, slot_bytes_);
}

Status ShardJournal::Append(Op op, uint64_t key, const BitVector& value) {
  auto* h = pool_->As<Header>(header_off_);
  if (h->count >= capacity_) {
    return Status::ResourceExhausted("journal full");
  }
  if (op == Op::kPut && value.size() > max_value_bits_) {
    return Status::InvalidArgument("value wider than the journal slot");
  }

  pmem::Transaction tx(pool_.get());
  E2_RETURN_IF_ERROR(tx.Begin());

  // Step 1: fill the slot. These bytes are dead until the count bump, so
  // they need no undo image; a crash here leaves them invisible.
  FillSlot(SlotOff(h->active_half, h->count), op, key, value);

  // Steps 2-4: undo-image the count, bump it (the commit point), commit.
  const pmem::PoolOffset count_off =
      header_off_ + offsetof(Header, count);
  E2_RETURN_IF_ERROR(tx.AddRange(count_off, sizeof(uint64_t)));
  ++h->count;
  pool_->Persist(count_off, sizeof(uint64_t));
  tx.Commit();
  return Status::Ok();
}

Status ShardJournal::Rewind(size_t n) {
  auto* h = pool_->As<Header>(header_off_);
  if (n > h->count) {
    return Status::InvalidArgument("rewind past the journal start");
  }
  if (n == 0) return Status::Ok();
  pmem::Transaction tx(pool_.get());
  E2_RETURN_IF_ERROR(tx.Begin());
  const pmem::PoolOffset count_off =
      header_off_ + offsetof(Header, count);
  E2_RETURN_IF_ERROR(tx.AddRange(count_off, sizeof(uint64_t)));
  h->count -= n;
  pool_->Persist(count_off, sizeof(uint64_t));
  tx.Commit();
  return Status::Ok();
}

Status ShardJournal::Checkpoint(const std::vector<Record>& records) {
  auto* h = pool_->As<Header>(header_off_);
  if (records.size() > capacity_) {
    return Status::ResourceExhausted(
        "checkpoint does not fit the journal capacity");
  }
  for (const auto& r : records) {
    if (r.op == Op::kPut && r.value.size() > max_value_bits_) {
      return Status::InvalidArgument("value wider than the journal slot");
    }
  }

  // Stage the new generation into the inactive half: dead bytes until the
  // flip below, so no undo images are needed and a crash anywhere in this
  // loop replays the untouched old generation.
  const uint64_t spare = 1 - h->active_half;
  for (size_t i = 0; i < records.size(); ++i) {
    FillSlot(SlotOff(spare, i), records[i].op, records[i].key,
             records[i].value);
  }

  // One transaction flips the contiguous {count, active_half, generation}
  // trio: after recovery a crash image holds either the complete old
  // state or the complete new one.
  pmem::Transaction tx(pool_.get());
  E2_RETURN_IF_ERROR(tx.Begin());
  const pmem::PoolOffset state_off =
      header_off_ + offsetof(Header, count);
  E2_RETURN_IF_ERROR(tx.AddRange(state_off, 3 * sizeof(uint64_t)));
  h->count = records.size();
  h->active_half = spare;
  ++h->generation;
  pool_->Persist(state_off, 3 * sizeof(uint64_t));
  tx.Commit();
  return Status::Ok();
}

std::optional<BitVector> ShardJournal::FindLatestPut(uint64_t key) const {
  const auto* h = pool_->As<Header>(header_off_);
  for (uint64_t i = h->count; i > 0; --i) {
    const auto* slot =
        pool_->As<SlotHeader>(SlotOff(h->active_half, i - 1));
    if (slot->key != key) continue;
    if (slot->value_bits > max_value_bits_ ||
        static_cast<uint32_t>(slot->crc) !=
            SlotCrc(slot, slot->value_bits)) {
      continue;  // Corrupt slot: not a trustworthy copy, keep scanning.
    }
    if (static_cast<Op>(slot->op) == Op::kDelete) return std::nullopt;
    const auto* bytes = reinterpret_cast<const uint8_t*>(slot + 1);
    const size_t nwords = (slot->value_bits + 63) / 64;
    return BitVector::FromBytes(bytes, nwords * 8)
        .Slice(0, slot->value_bits);
  }
  return std::nullopt;
}

size_t ShardJournal::VerifySlots(size_t* slots_scanned) const {
  const auto* h = pool_->As<Header>(header_off_);
  size_t bad = 0;
  for (uint64_t i = 0; i < h->count; ++i) {
    const auto* slot = pool_->As<SlotHeader>(SlotOff(h->active_half, i));
    if (slot->value_bits > max_value_bits_ ||
        static_cast<uint32_t>(slot->crc) !=
            SlotCrc(slot, slot->value_bits)) {
      ++bad;
    }
  }
  if (slots_scanned != nullptr) *slots_scanned = h->count;
  return bad;
}

StatusOr<std::vector<ShardJournal::Record>> ShardJournal::ReplayImage(
    const std::vector<uint8_t>& image) {
  E2_ASSIGN_OR_RETURN(ReplayResult result, ReplayImageVerified(image));
  if (result.corrupted) {
    return Status::DataLoss("journal corrupt at slot " +
                            std::to_string(result.first_bad_slot) + " of " +
                            std::to_string(result.committed_count));
  }
  return std::move(result.records);
}

StatusOr<ShardJournal::ReplayResult> ShardJournal::ReplayImageVerified(
    const std::vector<uint8_t>& image) {
  E2_ASSIGN_OR_RETURN(auto pool,
                      pmem::Pool::OpenFromImage(image, "shard-journal"));
  const pmem::PoolOffset root = pool->root();
  if (root == pmem::kNullOffset) {
    return Status::DataLoss("journal image has no root");
  }
  const auto* h = pool->As<Header>(root);
  if (h->magic != Header::kMagic) {
    return Status::DataLoss("bad journal magic");
  }
  if (h->geometry_crc != Crc32c(h, offsetof(Header, geometry_crc))) {
    return Status::DataLoss("journal geometry checksum mismatch");
  }
  if (h->count > h->capacity) {
    return Status::DataLoss("journal count exceeds capacity");
  }
  if (h->active_half > 1) {
    return Status::DataLoss("journal active half out of range");
  }

  ReplayResult result;
  result.committed_count = h->count;
  result.generation = h->generation;
  result.records.reserve(h->count);
  for (uint64_t i = 0; i < h->count; ++i) {
    const pmem::PoolOffset slot_off =
        root + sizeof(Header) +
        (h->active_half * h->capacity + i) * h->slot_bytes;
    const auto* slot = pool->As<SlotHeader>(slot_off);
    const bool valid =
        slot->value_bits <= h->max_value_bits &&
        static_cast<uint32_t>(slot->crc) == SlotCrc(slot, slot->value_bits);
    if (!valid) {
      // The committed-count protocol persists a slot before its count
      // bump, so an invalid *last* record means its bytes tore on media
      // after commit (clean truncation); an invalid earlier record is
      // mid-log rot — the tail after it is untrusted.
      result.first_bad_slot = i;
      if (i + 1 == h->count) {
        result.torn_tail = true;
      } else {
        result.corrupted = true;
      }
      break;
    }
    Record r;
    r.op = static_cast<Op>(slot->op);
    r.key = slot->key;
    if (slot->value_bits > 0) {
      const auto* bytes = reinterpret_cast<const uint8_t*>(slot + 1);
      const size_t nwords = (slot->value_bits + 63) / 64;
      r.value = BitVector::FromBytes(bytes, nwords * 8)
                    .Slice(0, slot->value_bits);
    }
    result.records.push_back(std::move(r));
  }
  return result;
}

}  // namespace e2nvm::core
