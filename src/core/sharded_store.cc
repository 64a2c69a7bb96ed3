#include "core/sharded_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace e2nvm::core {

ShardedStore::ShardedStore(const ShardedStoreConfig& config)
    : config_(config), num_shards_(config.num_shards) {}

ShardedStore::~ShardedStore() {
  // Park the scrubber before the shards it walks go away.
  StopBackgroundScrub();
  // Shard engines join their background retrainers; do that while the
  // per-shard lanes are still alive (lanes_ is declared before shards_,
  // so it destructs after them).
  shards_.clear();
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::Create(
    const ShardedStoreConfig& config) {
  if (config.num_shards == 0) {
    return Status::InvalidArgument("need at least one shard");
  }
  if (config.shard.num_segments == 0 || config.shard.segment_bits == 0) {
    return Status::InvalidArgument("empty shard geometry");
  }
  if (config.shard.psi != 0) {
    return Status::InvalidArgument(
        "Start-Gap wear leveling is per-device and cannot run under "
        "sharding; set shard.psi = 0");
  }

  std::unique_ptr<ShardedStore> store(new ShardedStore(config));

  if (config.pool_threads > 0) {
    // Partition the thread budget into one private lane per shard (at
    // least one worker each): a shard's retrains only ever run on its
    // own lane, so no shard waits on another's.
    const size_t per_lane =
        std::max<size_t>(1, config.pool_threads / config.num_shards);
    store->lanes_.reserve(config.num_shards);
    for (size_t s = 0; s < config.num_shards; ++s) {
      store->lanes_.push_back(std::make_unique<ThreadPool>(per_lane));
    }
  }

  nvm::DeviceConfig dc;
  dc.num_segments = config.num_shards * config.shard.num_segments;
  dc.segment_bits = config.shard.segment_bits;
  dc.track_bit_wear = config.shard.track_bit_wear;
  dc.pcm = config.shard.pcm;
  dc.verify_writes = config.shard.verify_writes;
  dc.max_write_retries = config.shard.max_write_retries;
  store->device_ = std::make_unique<nvm::NvmDevice>(dc, &store->meter_);
  // Stripe the device counters and the meter into one accounting lane
  // per shard BEFORE engines are built (each engine caches its lane id
  // at construction). Lane s covers exactly shard s's segment range.
  store->device_->ConfigureAccountingLanes(config.num_shards,
                                           config.shard.num_segments);

  store->shard_mu_ = std::make_unique<std::mutex[]>(config.num_shards);
  store->shards_.reserve(config.num_shards);
  store->journals_.resize(config.num_shards);
  store->scrub_stats_.resize(config.num_shards);
  store->scrub_cursor_.assign(config.num_shards, 0);
  store->checkpoints_.assign(config.num_shards, 0);
  for (size_t s = 0; s < config.num_shards; ++s) {
    E2KvStore::ShardAttachment attach;
    attach.device = store->device_.get();
    attach.first_segment = s * config.shard.num_segments;
    attach.retrain_pool = store->shard_lane(s);
    E2_ASSIGN_OR_RETURN(auto shard,
                        E2KvStore::CreateShard(config.shard, attach));
    store->shards_.push_back(std::move(shard));
    if (config.journal) {
      E2_ASSIGN_OR_RETURN(
          store->journals_[s],
          ShardJournal::Create(config.journal_capacity,
                               config.shard.segment_bits));
    }
  }
  return store;
}

void ShardedStore::Seed(const workload::BitDataset& contents) {
  for (auto& shard : shards_) shard->Seed(contents);
}

Status ShardedStore::Bootstrap() {
  // Shards that trained a model of their own: one per distinct image.
  std::vector<size_t> trained;
  for (size_t s = 0; s < num_shards_; ++s) {
    // Every shard runs config_.shard, and training is a pure function of
    // the config and the contents, so a shard seeded like an earlier one
    // would train that shard's model bit for bit: serve that instead.
    auto twin = std::find_if(trained.begin(), trained.end(),
                             [&](size_t t) { return SameImage(s, t); });
    if (twin != trained.end()) {
      E2_RETURN_IF_ERROR(shards_[s]->BootstrapFrom(*shards_[*twin]));
    } else {
      E2_RETURN_IF_ERROR(shards_[s]->Bootstrap());
      trained.push_back(s);
    }
  }
  return Status::Ok();
}

bool ShardedStore::SameImage(size_t a, size_t b) {
  BitVector x, y;
  for (size_t i = 0; i < config_.shard.num_segments; ++i) {
    shards_[a]->controller().PeekInto(shards_[a]->first_segment() + i, &x);
    shards_[b]->controller().PeekInto(shards_[b]->first_segment() + i, &y);
    if (!(x == y)) return false;
  }
  return true;
}

Status ShardedStore::Put(uint64_t key, const BitVector& value) {
  const size_t s = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard_mu_[s]);
  if (journals_[s] == nullptr) return shards_[s]->Put(key, value);
  E2_RETURN_IF_ERROR(JournalAppend(s, ShardJournal::Op::kPut, key, value));
  size_t landed = 0;
  const Status applied = shards_[s]->Put(key, value, &landed);
  // A row the shard refused must not replay.
  if (landed == 0) E2_RETURN_IF_ERROR(journals_[s]->Rewind(1));
  return applied;
}

Status ShardedStore::JournalAppend(size_t s, ShardJournal::Op op,
                                   uint64_t key, const BitVector& value) {
  Status st = journals_[s]->Append(op, key, value);
  if (st.code() != StatusCode::kResourceExhausted) return st;
  // Full journal: fold the retired history into a live-state checkpoint
  // (fresh generation) and retry. Fails only if the live state itself
  // no longer fits the capacity.
  E2_RETURN_IF_ERROR(CheckpointShardJournal(s));
  return journals_[s]->Append(op, key, value);
}

Status ShardedStore::CheckpointShardJournal(size_t s) {
  std::vector<ShardJournal::Record> live;
  live.reserve(shards_[s]->size());
  Status peek_status = Status::Ok();
  shards_[s]->tree().ForEach([&](uint64_t key, uint64_t) {
    auto value = shards_[s]->PeekValue(key);
    if (!value.ok()) {
      if (peek_status.ok()) peek_status = value.status();
      return;
    }
    live.push_back({ShardJournal::Op::kPut, key, std::move(*value)});
  });
  E2_RETURN_IF_ERROR(peek_status);
  E2_RETURN_IF_ERROR(journals_[s]->Checkpoint(live));
  ++checkpoints_[s];
  return Status::Ok();
}

Status ShardedStore::MultiPutShardUnchecked(
    size_t s, const std::pair<uint64_t, BitVector>* kvs, size_t n) {
  std::lock_guard<std::mutex> lock(shard_mu_[s]);
  ShardJournal* journal = journals_[s].get();
  if (journal == nullptr) return shards_[s]->MultiPut(kvs, n);
  // A checkpoint snapshots the shard's tree, so it must never fire
  // between journaling a row and applying it: make room before a chunk
  // is journaled, and split a batch that does not fit even a freshly
  // checkpointed journal.
  for (size_t done = 0; done < n;) {
    if (journal->capacity() - journal->count() < n - done) {
      E2_RETURN_IF_ERROR(CheckpointShardJournal(s));
      if (journal->count() == journal->capacity()) {
        return Status::ResourceExhausted(
            "journal full: the live state fills it");
      }
    }
    const std::pair<uint64_t, BitVector>* rows = kvs + done;
    const size_t chunk =
        std::min(n - done, journal->capacity() - journal->count());
    // A row the journal refuses (a value wider than its slot) stops the
    // batch: the rows before it are applied, it and the rest are not.
    size_t journaled = 0;
    Status logged = Status::Ok();
    while (journaled < chunk) {
      logged = journal->Append(ShardJournal::Op::kPut, rows[journaled].first,
                               rows[journaled].second);
      if (!logged.ok()) break;
      ++journaled;
    }
    size_t landed = 0;
    const Status applied = shards_[s]->MultiPut(rows, journaled, &landed);
    // Rows the shard refused must not replay.
    E2_RETURN_IF_ERROR(journal->Rewind(journaled - landed));
    E2_RETURN_IF_ERROR(applied);
    E2_RETURN_IF_ERROR(logged);
    done += chunk;
  }
  return Status::Ok();
}

Status ShardedStore::MultiPutShard(size_t s,
                                   const std::pair<uint64_t, BitVector>* kvs,
                                   size_t n) {
  if (s >= num_shards_) {
    return Status::InvalidArgument("shard index out of range");
  }
  for (size_t i = 0; i < n; ++i) {
    if (ShardOf(kvs[i].first) != s) {
      return Status::InvalidArgument("key not owned by this shard");
    }
  }
  return MultiPutShardUnchecked(s, kvs, n);
}

Status ShardedStore::MultiPut(
    const std::vector<std::pair<uint64_t, BitVector>>& kvs) {
  if (kvs.empty()) return Status::Ok();
  // A batch that lands entirely on one shard — the natural shape for
  // clients that batch per partition for locality — goes straight to the
  // owning shard with the caller's vector, no value copies.
  const size_t s0 = ShardOf(kvs.front().first);
  bool uniform = true;
  for (const auto& kv : kvs) {
    if (ShardOf(kv.first) != s0) {
      uniform = false;
      break;
    }
  }
  if (uniform) return MultiPutShardUnchecked(s0, kvs.data(), kvs.size());

  // Split by owning shard, preserving each shard's arrival order so the
  // per-shard placement stream matches sequential Puts.
  std::vector<std::vector<std::pair<uint64_t, BitVector>>> by_shard(
      num_shards_);
  for (const auto& kv : kvs) by_shard[ShardOf(kv.first)].push_back(kv);

  Status first_error = Status::Ok();
  for (size_t s = 0; s < num_shards_; ++s) {
    if (by_shard[s].empty()) continue;
    Status st =
        MultiPutShardUnchecked(s, by_shard[s].data(), by_shard[s].size());
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

StatusOr<BitVector> ShardedStore::Get(uint64_t key) {
  const size_t s = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard_mu_[s]);
  return shards_[s]->Get(key);
}

Status ShardedStore::GetInto(uint64_t key, BitVector* out) {
  const size_t s = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard_mu_[s]);
  return shards_[s]->GetInto(key, out);
}

Status ShardedStore::Delete(uint64_t key) {
  const size_t s = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard_mu_[s]);
  if (journals_[s] != nullptr) {
    // A delete the shard would refuse must not replay (nor, on a full
    // journal, force a checkpoint), so it is never journaled.
    if (!shards_[s]->tree().Contains(key)) {
      return Status::NotFound("key not found");
    }
    E2_RETURN_IF_ERROR(
        JournalAppend(s, ShardJournal::Op::kDelete, key, BitVector()));
  }
  return shards_[s]->Delete(key);
}

size_t ShardedStore::size() const {
  size_t total = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shard_mu_[s]);
    total += shards_[s]->size();
  }
  return total;
}

ShardedStore::Snapshot ShardedStore::TakeSnapshot() {
  // Lock every shard (index order, so concurrent snapshots can't
  // deadlock) for a cut consistent with in-flight operations.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    locks.emplace_back(shard_mu_[s]);
  }
  Snapshot snap;
  for (size_t s = 0; s < num_shards_; ++s) {
    snap.engine.MergeFrom(shards_[s]->engine().stats());
    snap.keys += shards_[s]->size();
    snap.scrub.MergeFrom(scrub_stats_[s]);
    snap.journal_checkpoints += checkpoints_[s];
  }
  snap.device = device_->stats();
  snap.total_pj = meter_.TotalPj();
  return snap;
}

void ShardedStore::ScrubShard(size_t s, size_t budget) {
  std::lock_guard<std::mutex> lock(shard_mu_[s]);
  ScrubShardLocked(s, budget);
}

void ShardedStore::ScrubShardLocked(size_t s, size_t budget) {
  auto& ctrl = shards_[s]->controller();
  if (!ctrl.integrity_tracking()) return;
  ScrubStats& st = scrub_stats_[s];
  const size_t n = config_.shard.num_segments;
  const uint64_t first = shards_[s]->first_segment();
  for (size_t i = 0; i < budget; ++i) {
    const size_t off = scrub_cursor_[s];
    scrub_cursor_[s] = (off + 1) % n;
    const size_t logical = first + off;
    ++st.segments_scanned;
    if (ctrl.VerifySegment(logical) ==
        nvm::MemoryController::SegmentCheck::kMismatch) {
      ++st.mismatches;
      // Reverse-lookup which live key (if any) maps to the segment.
      // O(keys), but only on the detected-corruption path.
      std::optional<uint64_t> owner;
      shards_[s]->tree().ForEach([&](uint64_t key, uint64_t addr) {
        if (addr == logical) owner = key;
      });
      if (owner.has_value()) {
        std::optional<BitVector> copy;
        if (journals_[s] != nullptr) {
          copy = journals_[s]->FindLatestPut(*owner);
        }
        if (copy.has_value() && shards_[s]->Put(*owner, *copy).ok()) {
          // Re-placement: the key now lives on a freshly verified
          // segment; the corrupt one was recycled into the free pool.
          ++st.repaired;
        } else {
          // No clean redundant copy — all we can do is stop placing
          // fresh data there.
          ctrl.Quarantine(logical);
          ++st.quarantined;
        }
      } else {
        // Free segment drift: its content only feeds model training.
        ++st.restamped;
      }
      // Adopt the current cells either way so the same damage is not
      // re-flagged every pass.
      ctrl.RestampSegment(logical);
    }
    if (scrub_cursor_[s] == 0) {
      ++st.passes;
      if (journals_[s] != nullptr) {
        size_t scanned = 0;
        st.journal_bad_slots += journals_[s]->VerifySlots(&scanned);
        st.journal_slots_scanned += scanned;
      }
    }
  }
}

void ShardedStore::ScrubTick() {
  for (size_t s = 0; s < num_shards_; ++s) {
    ScrubShard(s, kScrubSegmentsPerTick);
  }
}

void ShardedStore::ScrubLoop() {
  if (scrub_stop_.load(std::memory_order_acquire)) {
    scrub_running_.store(false, std::memory_order_release);
    return;
  }
  ScrubTick();
  lanes_[0]->Submit([this] { ScrubLoop(); });
}

bool ShardedStore::StartBackgroundScrub() {
  if (lanes_.empty() || scrub_running_.load(std::memory_order_acquire)) {
    return false;
  }
  scrub_stop_.store(false, std::memory_order_relaxed);
  scrub_running_.store(true, std::memory_order_release);
  lanes_[0]->Submit([this] { ScrubLoop(); });
  return true;
}

void ShardedStore::StopBackgroundScrub() {
  if (!scrub_running_.load(std::memory_order_acquire)) return;
  scrub_stop_.store(true, std::memory_order_release);
  // The loop re-queues itself between ticks, so it observes the stop
  // within one tick; spin-wait for the park (ticks are short).
  while (scrub_running_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

ShardedStore::ScrubStats ShardedStore::TakeScrubStats() {
  ScrubStats total;
  for (size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shard_mu_[s]);
    total.MergeFrom(scrub_stats_[s]);
  }
  return total;
}

void ShardedStore::InjectBitRot(size_t s, size_t seg_off, size_t bit) {
  std::lock_guard<std::mutex> lock(shard_mu_[s]);
  device_->FlipCellRaw(shards_[s]->first_segment() + seg_off, bit);
}

size_t ShardedStore::PumpRetrains() {
  size_t swapped = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    // The training may sit on lane 0 behind the scrubber, which needs
    // this shard's lock: wait on the retrainer's flag without it.
    while (shards_[s]->engine().RetrainInFlight()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    std::lock_guard<std::mutex> lock(shard_mu_[s]);
    if (shards_[s]->engine().PumpBackgroundRetrain()) ++swapped;
  }
  return swapped;
}

}  // namespace e2nvm::core
