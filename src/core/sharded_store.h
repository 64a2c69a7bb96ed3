#ifndef E2NVM_CORE_SHARDED_STORE_H_
#define E2NVM_CORE_SHARDED_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "core/shard_journal.h"
#include "core/store.h"
#include "nvm/device.h"
#include "nvm/energy.h"

namespace e2nvm::core {

struct ShardedStoreConfig {
  /// Number of independent shards. Keys are hash-partitioned; each shard
  /// owns `shard.num_segments` segments of the one shared device, so the
  /// device holds num_shards * shard.num_segments segments total.
  size_t num_shards = 1;

  /// Per-shard configuration (geometry, model, retraining, fault knobs).
  /// `shard.psi` must be 0 (Start-Gap would migrate cells across shard
  /// ranges).
  StoreConfig shard;

  /// Total worker-thread budget for background jobs, split into one
  /// private lane (ThreadPool) per shard — each lane gets max(1,
  /// pool_threads / num_shards) workers. A lane runs its shard's shadow
  /// trainings (each one job, every kernel on the worker that runs it)
  /// and, on lane 0, the background scrubber, so one shard's training
  /// never queues behind another's. 0 = no lanes: dedicated retrain
  /// threads when `shard.background_retrain` is set, and no background
  /// scrubber. Any value gives the same models, placements and energy
  /// bit for bit; it changes only speed.
  size_t pool_threads = 0;

  /// Attach a persistent redo journal (ShardJournal) to every shard:
  /// PUT/DELETE is appended durably before it touches the shard, so a
  /// crash image replays to a prefix of the applied operations.
  bool journal = false;
  /// Slots per shard journal. A shard whose journal fills checkpoints
  /// its live state into a fresh journal generation and retries, so
  /// capacity bounds journal size, not operation count — but it must be
  /// >= the shard's live key count for the checkpoint to fit.
  size_t journal_capacity = 4096;
};

/// A sharded concurrent front-end over N independent E2KvStore shards
/// (MCAS-style hash partitioning): every key is owned by exactly one
/// shard, each shard runs the full E2-NVM pipeline — its own placement
/// engine, DAP, index and segment range — behind its own mutex, and all
/// shards share one NvmDevice and one EnergyMeter. Shards whose seeded
/// images are identical train once (see Bootstrap) and, unless they can
/// refine, serve that one model until a retrain replaces a shard's.
///
/// Concurrency model (DESIGN.md §13): the steady-state PUT/GET/DELETE
/// path acquires NO lock outside the owning shard.
///  - Client threads: any number; operations lock only the owning shard,
///    so operations on different shards proceed concurrently.
///  - Shared device: per-segment state is touched only by the owning
///    shard (ranges are disjoint); the aggregate counters and the energy
///    meter are striped into per-shard relaxed-atomic lanes
///    (ConfigureAccountingLanes / EnergyMeter::SetLanes) merged only at
///    snapshot time — no device or meter mutex exists.
///  - Compute: every ML kernel runs on the thread that calls it — a
///    client's for placements and synchronous retrains, a lane worker's
///    for a shadow training. Each shard owns a private ThreadPool lane
///    for its background jobs, so one shard's retrain can never queue
///    behind (or stall) another shard's.
///  - DAP: each engine's pool has no lock of its own; the shard lock
///    serializes it, so Acquire/Release take no further mutex.
///  - Background retraining: each shard's engine hands training to its
///    own lane (BackgroundRetrainer pool mode) as one job; the swap
///    happens under that shard's mutex on its next Place.
///  - Shared bootstrap model: read by several shards under their own
///    locks and written by none; only shards that cannot refine share
///    it, and a retrain installs a fresh model instead of changing it
///    (PlacementEngine::BootstrapFrom).
///
/// Determinism contract: with num_shards == 1 every placement decision,
/// bit flip and retrain trigger is bit-identical to a plain E2KvStore
/// with the same StoreConfig, and with one client thread runs are
/// reproducible at any shard count (pinned by
/// tests/sharded_store_test.cc). Accounting totals are additionally
/// independent of the *client thread count*: per-shard charge streams
/// land on per-shard lanes merged in lane order, so a concurrent run
/// reports byte-identical energy/flip/wear totals to a serial replay of
/// the same per-shard operation streams (tests/energy_accounting_test.cc).
class ShardedStore {
 public:
  static StatusOr<std::unique_ptr<ShardedStore>> Create(
      const ShardedStoreConfig& config);

  /// Joins all background retraining, then tears down shards before the
  /// shared pool/device.
  ~ShardedStore();

  /// Seeds every shard's segment range with initial content. Each shard
  /// cycles the dataset from its start, so a 1-shard store seeds exactly
  /// like E2KvStore::Seed.
  void Seed(const workload::BitDataset& contents);

  /// Trains every shard's model on its seeded contents and populates its
  /// DAP, one shard after another on the calling thread. A shard whose
  /// seeded segments are byte-identical to an earlier shard's would train
  /// that shard's model bit for bit, so it adopts that one instead and
  /// copies that shard's DAP (E2KvStore::BootstrapFrom): each distinct
  /// image trains and is classified once. After Seed every shard serves one
  /// model instance, or, when shards can refine, a copy of it each.
  /// Placements, stats and energy equal those of one training per shard.
  Status Bootstrap();

  /// Inserts or updates `key` on its owning shard. With journaling on,
  /// the row is journaled first and rewound out of the journal if the
  /// shard refuses it.
  Status Put(uint64_t key, const BitVector& value);

  /// Batched insert/update: splits the batch by owning shard (preserving
  /// per-shard order) and runs one E2KvStore::MultiPut per shard, so each
  /// shard's placement model runs once over its sub-batch. A batch whose
  /// keys all hash to one shard is forwarded copy-free. Returns the
  /// first per-shard error, after attempting every shard.
  Status MultiPut(const std::vector<std::pair<uint64_t, BitVector>>& kvs);

  /// Shard-grouped batch entry point: applies a batch already grouped by
  /// owning shard (every key must hash to shard `s`; rejected with
  /// kInvalidArgument otherwise) through one E2KvStore::MultiPut under
  /// shard `s`'s lock. This is the natural path for front-ends that
  /// group requests by destination themselves — net/server's
  /// per-connection ingest stages decoded PUTs into per-shard scratch
  /// and submits each group here, so the zero-allocation MultiPut batch
  /// path *is* the network write path, with no per-batch vector
  /// materialization in between. With journaling on, the journal is
  /// checkpointed before a batch that does not fit it, never in the
  /// middle of one, and a batch larger than a fresh checkpoint leaves
  /// room for is journaled and applied in chunks. A row the journal
  /// refuses stops the batch: only the rows before it are journaled and
  /// handed to the shard. Rows the shard then refuses are rewound out of
  /// the journal (ShardJournal::Rewind), so a replay holds exactly the
  /// rows that landed.
  Status MultiPutShard(size_t s, const std::pair<uint64_t, BitVector>* kvs,
                       size_t n);

  StatusOr<BitVector> Get(uint64_t key);

  /// Allocation-free Get: decodes the value into `out` (capacity reused
  /// across calls); `out` is untouched when the key is missing.
  Status GetInto(uint64_t key, BitVector* out);

  /// Deletes `key` from its owning shard; NotFound when the shard does
  /// not hold it. With journaling on, only a delete of a held key is
  /// journaled.
  Status Delete(uint64_t key);

  /// Total keys across all shards.
  size_t size() const;

  /// Which shard owns `key` (splitmix-style mix, then mod num_shards).
  size_t ShardOf(uint64_t key) const {
    uint64_t x = key * 0x9E3779B97F4A7C15ull;
    x ^= x >> 32;
    return static_cast<size_t>(x % num_shards_);
  }

  /// What the integrity scrubber did so far (per shard, mergeable).
  /// Requires shard.integrity_tracking; all zero otherwise.
  struct ScrubStats {
    uint64_t segments_scanned = 0;   // Segment checksum verifications run.
    uint64_t mismatches = 0;         // Silent corruption detected.
    uint64_t repaired = 0;           // Live keys re-placed from a journal copy.
    uint64_t quarantined = 0;        // Corrupt segments with no clean copy.
    uint64_t restamped = 0;          // Drifted free segments adopted.
    uint64_t passes = 0;             // Full shard sweeps completed.
    uint64_t journal_slots_scanned = 0;  // Journal slot CRCs verified.
    uint64_t journal_bad_slots = 0;      // Journal slots that failed CRC.

    void MergeFrom(const ScrubStats& o) {
      segments_scanned += o.segments_scanned;
      mismatches += o.mismatches;
      repaired += o.repaired;
      quarantined += o.quarantined;
      restamped += o.restamped;
      passes += o.passes;
      journal_slots_scanned += o.journal_slots_scanned;
      journal_bad_slots += o.journal_bad_slots;
    }
  };

  /// Merged view across shards for experiments and benchmarks: summed
  /// engine stats, the shared device counters and the total energy.
  struct Snapshot {
    EngineStats engine;       // Summed across shards (EngineStats::MergeFrom).
    nvm::DeviceStats device;  // The one shared device.
    ScrubStats scrub;         // Summed across shards.
    uint64_t journal_checkpoints = 0;  // Checkpoint-and-truncate events.
    double total_pj = 0.0;
    size_t keys = 0;
  };
  /// Takes every shard lock (in index order), so the snapshot is
  /// consistent with respect to in-flight operations.
  Snapshot TakeSnapshot();

  /// Waits out every shard's in-flight shadow training, then adopts each
  /// finished one under that shard's lock (PlacementEngine::
  /// PumpBackgroundRetrain), so a retrain launched by operation i serves
  /// from operation i+1 on when one thread drives the store. The wait
  /// holds no shard lock. Returns the number of shards that swapped.
  size_t PumpRetrains();

  // --- Integrity scrubbing (DESIGN.md §12) ---

  /// Verifies up to `budget` of shard `s`'s segments against the
  /// controller's integrity map (under the shard lock). A mismatched
  /// segment holding a live key is repaired by re-placing the key from
  /// its latest CRC-valid journal copy (going through write-verify /
  /// spare-cell repair / quarantine); a corrupt segment with no clean
  /// copy is quarantined; a drifted free segment is adopted (its content
  /// only feeds model training). Completing a sweep also verifies every
  /// committed journal slot. No-op without shard.integrity_tracking.
  void ScrubShard(size_t s, size_t budget);

  /// Segments each shard verifies per ScrubTick.
  static constexpr size_t kScrubSegmentsPerTick = 32;

  /// One scrub round: kScrubSegmentsPerTick segments of every shard.
  void ScrubTick();

  /// Starts the background scrubber: a low-priority self-requeueing task
  /// on shard 0's lane running ScrubTick between client
  /// operations. Returns false when there are no lanes (pool_threads ==
  /// 0) or the scrubber is already running.
  bool StartBackgroundScrub();

  /// Stops the background scrubber and waits for it to park. Safe to
  /// call when it never started.
  void StopBackgroundScrub();

  /// Summed scrub counters (takes the shard locks).
  ScrubStats TakeScrubStats();

  /// Flips one raw cell of shard `s`'s segment `seg_off` (silent bit
  /// rot — no stats, no energy; only a scrub can notice). Test hook.
  void InjectBitRot(size_t s, size_t seg_off, size_t bit);

  size_t num_shards() const { return num_shards_; }
  nvm::NvmDevice& device() { return *device_; }
  nvm::EnergyMeter& meter() { return meter_; }
  /// Shard `s`'s private lane, or nullptr when pool_threads == 0.
  ThreadPool* shard_lane(size_t s) {
    return lanes_.empty() ? nullptr : lanes_[s].get();
  }
  /// Direct shard access for tests; the caller owns synchronization.
  E2KvStore& shard(size_t i) { return *shards_[i]; }
  /// This shard's journal, or nullptr when journaling is off.
  ShardJournal* journal(size_t i) { return journals_[i].get(); }
  const ShardedStoreConfig& config() const { return config_; }

 private:
  explicit ShardedStore(const ShardedStoreConfig& config);

  /// Journals (if enabled) and applies one shard's sub-batch under its
  /// shard lock; keys are trusted to hash to shard `s` (the public span
  /// entry point validates, MultiPut groups correctly by construction).
  Status MultiPutShardUnchecked(size_t s,
                                const std::pair<uint64_t, BitVector>* kvs,
                                size_t n);

  /// Appends to shard `s`'s journal; on a full journal, checkpoints the
  /// shard's live state into a fresh generation and retries once.
  /// Caller holds the shard lock.
  Status JournalAppend(size_t s, ShardJournal::Op op, uint64_t key,
                       const BitVector& value);

  /// Checkpoint-and-truncate: replaces shard `s`'s journal contents with
  /// one kPut per live key (key order, values peeked from the device),
  /// whose replay is equivalent to the full retired history. Caller
  /// holds the shard lock.
  Status CheckpointShardJournal(size_t s);

  /// ScrubShard body; caller holds the shard lock.
  void ScrubShardLocked(size_t s, size_t budget);

  /// True when shards `a` and `b` hold the same content, segment for
  /// segment (Bootstrap's test for adopting a model).
  bool SameImage(size_t a, size_t b);

  /// Self-requeueing pool task driving ScrubTick until stopped.
  void ScrubLoop();

  ShardedStoreConfig config_;
  size_t num_shards_ = 1;
  nvm::EnergyMeter meter_;
  /// One lane per shard (empty when pool_threads == 0). Declared
  /// before shards_ so lanes outlive the engines whose retrains run on
  /// them.
  std::vector<std::unique_ptr<ThreadPool>> lanes_;
  std::unique_ptr<nvm::NvmDevice> device_;
  std::vector<std::unique_ptr<ShardJournal>> journals_;
  // Per-shard scrub state, guarded by the owning shard's mutex.
  std::vector<ScrubStats> scrub_stats_;
  std::vector<size_t> scrub_cursor_;
  std::vector<uint64_t> checkpoints_;  // Checkpoint-and-truncate events.
  // Background scrubber handshake: the loop parks (running_ -> false)
  // once it observes stop_; StopBackgroundScrub waits for the park.
  std::atomic<bool> scrub_stop_{false};
  std::atomic<bool> scrub_running_{false};
  // Shards destruct first (declared last): their engines may still hold
  // background-retrain jobs on lanes_ and addresses on device_.
  std::unique_ptr<std::mutex[]> shard_mu_;
  std::vector<std::unique_ptr<E2KvStore>> shards_;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_SHARDED_STORE_H_
