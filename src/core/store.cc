#include "core/store.h"

namespace e2nvm::core {

namespace {

/// Model + engine construction shared by the standalone and shard
/// factories (the stack above the device/controller is identical).
void BuildModelAndEngine(const StoreConfig& config, uint64_t first_segment,
                         nvm::MemoryController* ctrl,
                         std::unique_ptr<PlacementEngine>* engine,
                         ThreadPool* retrain_pool) {
  E2ModelConfig mc = config.model;
  mc.input_dim = config.segment_bits;

  PlacementEngine::Config ec;
  ec.first_segment = first_segment;
  ec.num_segments = config.num_segments;
  ec.search_best_in_cluster = config.search_best_in_cluster;
  ec.auto_retrain = config.auto_retrain || config.background_retrain;
  ec.retrain = config.retrain;
  ec.incremental.enabled = config.incremental_learning;
  ec.incremental.ring_capacity = config.replay_ring_capacity;
  ec.incremental.refine_batch = config.refine_batch;
  *engine = std::make_unique<PlacementEngine>(
      ctrl, std::make_unique<E2Model>(mc), ec);
  if (config.background_retrain) {
    (*engine)->EnableBackgroundRetrain(retrain_pool);
  }
}

}  // namespace

E2KvStore::E2KvStore(const StoreConfig& config)
    : config_(config), value_bits_(config.num_segments, 0) {}

StatusOr<std::unique_ptr<E2KvStore>> E2KvStore::Create(
    const StoreConfig& config) {
  if (config.num_segments == 0 || config.segment_bits == 0) {
    return Status::InvalidArgument("empty store geometry");
  }
  std::unique_ptr<E2KvStore> store(new E2KvStore(config));

  nvm::DeviceConfig dc;
  dc.num_segments = config.num_segments + (config.psi > 0 ? 1 : 0);
  dc.segment_bits = config.segment_bits;
  dc.track_bit_wear = config.track_bit_wear;
  dc.pcm = config.pcm;
  dc.verify_writes = config.verify_writes;
  dc.max_write_retries = config.max_write_retries;
  store->device_ =
      std::make_unique<nvm::NvmDevice>(dc, &store->meter_);
  store->dev_ = store->device_.get();
  store->ctrl_ = std::make_unique<nvm::MemoryController>(
      store->device_.get(), &store->scheme_, config.num_segments,
      config.psi);
  if (config.integrity_tracking) store->ctrl_->EnableIntegrityTracking();

  BuildModelAndEngine(config, /*first_segment=*/0, store->ctrl_.get(),
                      &store->engine_, /*retrain_pool=*/nullptr);
  return store;
}

StatusOr<std::unique_ptr<E2KvStore>> E2KvStore::CreateShard(
    const StoreConfig& config, const ShardAttachment& attach) {
  if (config.num_segments == 0 || config.segment_bits == 0) {
    return Status::InvalidArgument("empty shard geometry");
  }
  if (attach.device == nullptr) {
    return Status::InvalidArgument("shard needs a shared device");
  }
  if (config.psi != 0) {
    return Status::InvalidArgument(
        "Start-Gap wear leveling cannot run under a shard (gap moves "
        "would migrate cells across shard ranges)");
  }
  if (config.segment_bits != attach.device->segment_bits()) {
    return Status::InvalidArgument(
        "shard segment_bits does not match the shared device");
  }
  if (attach.first_segment + config.num_segments >
      attach.device->num_segments()) {
    return Status::OutOfRange("shard range exceeds the shared device");
  }
  std::unique_ptr<E2KvStore> store(new E2KvStore(config));
  store->dev_ = attach.device;
  store->first_segment_ = attach.first_segment;
  // The controller spans the whole shared device (identity mapping, no
  // leveler); this shard's engine only ever addresses its own range.
  store->ctrl_ = std::make_unique<nvm::MemoryController>(
      attach.device, &store->scheme_, attach.device->num_segments(),
      /*psi=*/0);
  if (config.integrity_tracking) store->ctrl_->EnableIntegrityTracking();

  BuildModelAndEngine(config, attach.first_segment, store->ctrl_.get(),
                      &store->engine_, attach.retrain_pool);
  return store;
}

void E2KvStore::Seed(const workload::BitDataset& contents) {
  workload::BitDataset sized =
      workload::ResizeItems(contents, config_.segment_bits);
  for (size_t i = 0; i < config_.num_segments; ++i) {
    ctrl_->Seed(first_segment_ + i, sized.items[i % sized.items.size()]);
  }
}

Status E2KvStore::Bootstrap() { return engine_->Bootstrap(); }

Status E2KvStore::BootstrapFrom(const E2KvStore& source) {
  return engine_->BootstrapFrom(*source.engine_);
}

Status E2KvStore::Put(uint64_t key, const BitVector& value,
                      size_t* landed) {
  const BitVector* row = &value;
  return PutRows(&key, &row, 1, landed);
}

Status E2KvStore::MultiPut(
    const std::vector<std::pair<uint64_t, BitVector>>& kvs) {
  return MultiPut(kvs.data(), kvs.size());
}

Status E2KvStore::MultiPut(const std::pair<uint64_t, BitVector>* kvs,
                           size_t n, size_t* landed) {
  mp_keys_.clear();
  mp_values_.clear();
  for (size_t i = 0; i < n; ++i) {
    mp_keys_.push_back(kvs[i].first);
    mp_values_.push_back(&kvs[i].second);
  }
  return PutRows(mp_keys_.data(), mp_values_.data(), n, landed);
}

Status E2KvStore::PutRows(const uint64_t* keys,
                          const BitVector* const* values, size_t n,
                          size_t* landed) {
  struct Rows {
    E2KvStore* store;
    const uint64_t* keys;
    const BitVector* const* values;
    size_t landed;
  } rows{this, keys, values, 0};
  // Index each row as it lands: an UPDATE recycles the superseded
  // address by content (Alg. 2) before the next row is placed.
  auto index_row = [](void* ctx, size_t i, uint64_t addr) {
    Rows& r = *static_cast<Rows*>(ctx);
    auto old = r.store->tree_.Get(r.keys[i]);
    r.store->tree_.Put(r.keys[i], addr);
    r.store->value_bits_[addr - r.store->first_segment_] =
        static_cast<uint32_t>(r.values[i]->size());
    ++r.landed;
    return old ? r.store->engine_->Release(*old) : Status::Ok();
  };
  const Status st =
      n == 0 ? Status::Ok() : engine_->PlaceRows(values, n, index_row, &rows);
  if (landed != nullptr) *landed = rows.landed;
  return st;
}

StatusOr<BitVector> E2KvStore::Get(uint64_t key) {
  auto addr = tree_.Get(key);
  if (!addr.has_value()) return Status::NotFound("key not found");
  return engine_->Read(*addr, ValueBitsAt(*addr));
}

Status E2KvStore::GetInto(uint64_t key, BitVector* out) {
  auto addr = tree_.Get(key);
  if (!addr.has_value()) return Status::NotFound("key not found");
  engine_->ReadInto(*addr, ValueBitsAt(*addr), out);
  return Status::Ok();
}

StatusOr<BitVector> E2KvStore::PeekValue(uint64_t key) const {
  auto addr = tree_.Get(key);
  if (!addr.has_value()) return Status::NotFound("key not found");
  return ctrl_->Peek(*addr).Slice(0, ValueBitsAt(*addr));
}

Status E2KvStore::Delete(uint64_t key) {
  auto addr = tree_.Erase(key);
  if (!addr.has_value()) return Status::NotFound("key not found");
  return engine_->Release(*addr);
}

std::vector<std::pair<uint64_t, BitVector>> E2KvStore::Scan(uint64_t start,
                                                            size_t count) {
  std::vector<std::pair<uint64_t, BitVector>> out;
  for (auto& [key, addr] : tree_.Scan(start, count)) {
    out.emplace_back(key, engine_->Read(addr, ValueBitsAt(addr)));
  }
  return out;
}

}  // namespace e2nvm::core
