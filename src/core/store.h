#ifndef E2NVM_CORE_STORE_H_
#define E2NVM_CORE_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/e2_model.h"
#include "core/placement_engine.h"
#include "index/rbtree.h"
#include "nvm/controller.h"
#include "nvm/device.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

namespace e2nvm::core {

/// Configuration of a full E2-NVM key-value store instance. A store runs
/// every ML kernel on the thread that calls it (a background retrain on
/// the thread that trains it), so it has no thread setting of its own.
struct StoreConfig {
  /// NVM geometry.
  size_t num_segments = 1024;
  size_t segment_bits = 2048;
  /// Wear-leveling period of the underlying controller (0 = disabled;
  /// the device then gets one extra physical segment for the gap).
  uint64_t psi = 0;
  bool track_bit_wear = false;
  nvm::PcmParams pcm;

  /// Model configuration (input_dim is forced to segment_bits).
  E2ModelConfig model;

  /// Placement engine knobs (see PlacementEngine::Config).
  size_t scan_width = 1;
  bool auto_retrain = false;
  /// Train replacement models on a background thread and swap them in
  /// atomically instead of stalling a PUT for the whole rebuild (implies
  /// auto_retrain; see PlacementEngine::EnableBackgroundRetrain).
  bool background_retrain = false;
  /// Retrain triggers (capacity + flip-efficiency) and, when
  /// `incremental_learning` is on, the drift-escalation thresholds
  /// (refine_interval, max_refine_rounds). A failed auto-retrain backs
  /// off PlacementEngine::kRetrainBackoffWrites placements, doubling per
  /// consecutive failure.
  RetrainPolicy::Config retrain;

  /// --- Incremental online learning (DESIGN.md §16) ---
  /// Feed a per-shard replay ring with every committed segment image and
  /// answer model drift with inline mini-batch PartialFit refinement
  /// steps (warm VAE SGD + warm-started k-means) instead of launching a
  /// full retrain, escalating to one only on persistent degradation or
  /// the capacity trigger. Off by default: placements, flips, and the
  /// retrain schedule stay bit-identical to the full-retrain-only store.
  /// Needs auto_retrain: with it off nothing refines, so the store keeps
  /// no ring and places exactly as with this flag off.
  bool incremental_learning = false;
  /// Replay-ring rows per engine/shard (one allocation at build time;
  /// the PUT-path append never allocates).
  size_t replay_ring_capacity = 256;
  /// Rows per refinement step (the most recent writes, oldest first),
  /// 1 to replay_ring_capacity.
  size_t refine_batch = 16;

  /// Fault tolerance: read-back verify of every segment write, with up to
  /// `max_write_retries` reprogram attempts before spare-cell repair and,
  /// failing that, quarantine. Only meaningful when a FaultInjector is
  /// attached to the device.
  bool verify_writes = false;
  size_t max_write_retries = 3;
  /// Record a CRC32C of every committed segment image in the controller
  /// so an integrity scrubber can detect silent in-array corruption
  /// (see MemoryController::VerifySegment). ~5 bytes/segment.
  bool integrity_tracking = false;
};

/// The persistent key-value store of Fig 3: an RB-tree data index in DRAM,
/// an NVM device behind a memory controller (DCW write scheme, optional
/// Start-Gap wear leveling), and the E2-NVM placement engine in between.
///
/// Operations implement Algorithms 1 and 2:
///   PUT/UPDATE: predict cluster -> pop address from DAP -> differential
///               write -> index update (old address recycled on update);
///   DELETE:     index lookup -> flag reset -> recycle address by content;
///   GET/SCAN:   index lookup -> device read.
class E2KvStore {
 public:
  /// Builds the device/controller/model/engine stack. Seed() +
  /// Bootstrap() must run before operations.
  static StatusOr<std::unique_ptr<E2KvStore>> Create(
      const StoreConfig& config);

  /// How a shard attaches to resources owned by a ShardedStore.
  struct ShardAttachment {
    /// The shared device, already sized to cover every shard. Must
    /// outlive the store.
    nvm::NvmDevice* device = nullptr;
    /// First logical segment of this shard's range; the shard manages
    /// [first_segment, first_segment + config.num_segments).
    uint64_t first_segment = 0;
    /// The shard's lane: each background retrain is one job there, its
    /// kernels on the worker that runs it. nullptr keeps the
    /// dedicated-thread retrainer. Must outlive the store.
    ThreadPool* retrain_pool = nullptr;
  };

  /// Builds one shard of a ShardedStore: the same model/engine/index
  /// stack as Create, but over a borrowed device and a segment range
  /// instead of an owned device. `config.num_segments` is the *shard's*
  /// segment count; `config.psi` must be 0 (Start-Gap would migrate
  /// cells across shard ranges). With first_segment 0
  /// and a device covering exactly config.num_segments, behavior is
  /// bit-identical to Create (the shards=1 determinism contract,
  /// pinned by tests/sharded_store_test.cc).
  static StatusOr<std::unique_ptr<E2KvStore>> CreateShard(
      const StoreConfig& config, const ShardAttachment& attach);

  /// Seeds device segments with initial content ("old data"), cycling
  /// through `contents` items resized to the segment width.
  void Seed(const workload::BitDataset& contents);

  /// Trains the model on the seeded contents and populates the DAP.
  Status Bootstrap();

  /// Bootstrap's adoption form (ShardedStore::Bootstrap): `source` is a
  /// bootstrapped store with this store's config whose seeded segments
  /// are byte-identical to this store's, so Bootstrap would train its
  /// model bit for bit. Adopts source's trained model instead (one shared
  /// instance, or a copy when either store can refine), releases this
  /// store's untrained one and copies source's DAP
  /// (PlacementEngine::BootstrapFrom), so `source` must not have served
  /// an operation since its own bootstrap. Either store may be destroyed
  /// first.
  Status BootstrapFrom(const E2KvStore& source);

  /// Inserts or updates `key`: a one-row MultiPut. The value may be
  /// narrower than a segment. `landed` as for MultiPut.
  Status Put(uint64_t key, const BitVector& value, size_t* landed = nullptr);

  /// Batched insert/update (§4.1.4): runs the placement model once over
  /// the batch (one encoder GEMV per value + one fused assignment), then
  /// writes, indexes and recycles row by row (PlacementEngine::PlaceRows).
  /// Addresses, flips, energy and retrains equal those of a loop of Puts.
  /// Stops at the first failing row; the rows before it stay indexed.
  Status MultiPut(const std::vector<std::pair<uint64_t, BitVector>>& kvs);

  /// Span form of MultiPut — the entry point for callers that stage
  /// batches in reusable scratch (the network front-end's per-connection
  /// shard batches) instead of materializing a vector per batch.
  /// Identical semantics; steady-state (every key already inserted,
  /// scratch at working size) it allocates nothing. `landed` (optional)
  /// receives how many leading rows landed (were written and indexed),
  /// on success and failure alike: a journaling owner retracts the rest.
  Status MultiPut(const std::pair<uint64_t, BitVector>* kvs, size_t n,
                  size_t* landed = nullptr);

  StatusOr<BitVector> Get(uint64_t key);

  /// Allocation-free Get: decodes the key's value into `out` (capacity
  /// reused across calls). `out` is untouched when the key is missing.
  Status GetInto(uint64_t key, BitVector* out);

  /// Zero-cost Get (no read energy, no read disturb): decodes the key's
  /// committed cells as they are. Software bookkeeping for checkpoints
  /// and scrub repair, not a datapath read.
  StatusOr<BitVector> PeekValue(uint64_t key) const;

  Status Delete(uint64_t key);

  /// Up to `count` key-value pairs with key >= `start`, in key order.
  std::vector<std::pair<uint64_t, BitVector>> Scan(uint64_t start,
                                                   size_t count);

  size_t size() const { return tree_.size(); }

  // --- Introspection for experiments ---
  nvm::NvmDevice& device() { return *dev_; }
  /// First logical segment this store manages (0 unless a shard).
  uint64_t first_segment() const { return first_segment_; }
  nvm::MemoryController& controller() { return *ctrl_; }
  PlacementEngine& engine() { return *engine_; }
  nvm::EnergyMeter& meter() { return meter_; }
  const index::RbTree& tree() const { return tree_; }
  const StoreConfig& config() const { return config_; }

 private:
  explicit E2KvStore(const StoreConfig& config);

  /// Put and MultiPut's one body: PlaceRows, indexing keys[i] (and
  /// recycling the address it supersedes) as row i lands, and counting
  /// the rows that landed into `*landed` (optional).
  Status PutRows(const uint64_t* keys, const BitVector* const* values,
                 size_t n, size_t* landed);

  /// The width of the value indexed at `addr`.
  size_t ValueBitsAt(uint64_t addr) const {
    return value_bits_[addr - first_segment_];
  }

  StoreConfig config_;
  nvm::EnergyMeter meter_;
  std::unique_ptr<nvm::NvmDevice> device_;  // Owned (standalone mode).
  nvm::NvmDevice* dev_ = nullptr;  // The device in use (owned or shared).
  uint64_t first_segment_ = 0;
  schemes::Dcw scheme_;
  std::unique_ptr<nvm::MemoryController> ctrl_;
  std::unique_ptr<PlacementEngine> engine_;
  index::RbTree tree_;
  // The width of the value each segment holds, at addr - first_segment_:
  // written when a value lands there, read by the lookups that found the
  // address. The engine's addresses never leave the store's range.
  std::vector<uint32_t> value_bits_;
  // MultiPut staging scratch, reused across batches so steady-state
  // batched PUTs stay off the heap (safe under the store's single-caller
  // contract; MultiPut is not reentrant).
  std::vector<uint64_t> mp_keys_;
  std::vector<const BitVector*> mp_values_;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_STORE_H_
