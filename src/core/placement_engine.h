#ifndef E2NVM_CORE_PLACEMENT_ENGINE_H_
#define E2NVM_CORE_PLACEMENT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/address_pool.h"
#include "core/background_retrainer.h"
#include "core/padding.h"
#include "core/replay_ring.h"
#include "core/retrain.h"
#include "index/value_placer.h"
#include "ml/inference.h"
#include "nvm/controller.h"
#include "placement/clusterer.h"

namespace e2nvm::core {

/// Statistics of a placement engine's lifetime.
///
/// Plain counters, mutated by the engine under the caller's external
/// serialization (see the PlacementEngine threading contract below) and
/// read through stats(). Merge per-shard instances with MergeFrom.
struct EngineStats {
  uint64_t placements = 0;
  uint64_t releases = 0;
  uint64_t retrains = 0;
  uint64_t fallback_acquires = 0;  // Cluster empty, fell back.
  double predict_flops = 0;
  double train_flops = 0;

  // --- Degradation counters (all zero on a healthy run) ---
  /// Placements not served by the model's first pick: cluster-empty
  /// fallbacks, re-acquires after a quarantine, and model fallbacks.
  uint64_t fallback_placements = 0;
  /// Addresses dropped (not placed on / not recycled) because the
  /// controller had quarantined them.
  uint64_t quarantine_skips = 0;
  /// Segments this engine watched enter quarantine (write-verify failed
  /// mid-placement; the value was re-placed elsewhere).
  uint64_t quarantined_segments = 0;
  /// Device-level verify retries accumulated across placements.
  uint64_t write_retries = 0;
  /// Featurize/predict failed; first-free placement used instead.
  uint64_t model_fallbacks = 0;
  /// Auto-retrains that failed (each starts/extends the backoff).
  uint64_t failed_retrains = 0;

  // --- Background-retrain counters ---
  /// Shadow trainings launched off the write path.
  uint64_t background_retrains = 0;
  /// Full retrains (synchronous ones that succeeded, and shadow launches)
  /// the capacity trigger fired: some cluster's free list fell below
  /// min_free_per_cluster. The rest of `retrains` came from the
  /// efficiency trigger or a refinement escalation.
  uint64_t capacity_retrains = 0;
  /// Free addresses that needed a fresh on-swap prediction because they
  /// were released after the training snapshot was taken.
  uint64_t swap_repredictions = 0;

  // --- Incremental-learning counters (§16) ---
  /// Inline replay-ring PartialFit refinement steps.
  uint64_t refine_steps = 0;
  /// Flops those steps spent (a subset of train_flops).
  double refine_flops = 0;

  // --- Write-path fast-path counters ---
  /// Releases that reused the cluster memoized at placement time instead
  /// of re-encoding the segment content (full-width values whose model
  /// has not changed since the write).
  uint64_t release_cluster_hits = 0;

  /// Accumulates `other` into this instance (ShardedStore's merged
  /// snapshot: every field is a sum, so shard stats add freely).
  void MergeFrom(const EngineStats& other);

  bool operator==(const EngineStats&) const = default;
};

/// The heart of E2-NVM (§3.3): content-aware placement of value writes.
///
///   Place(value):  pad -> encode -> cluster -> pop a free address of that
///                  cluster from the DAP -> differential write (Alg. 1)
///   Release(addr): re-encode the address's current content and recycle it
///                  into the matching cluster's free list (Alg. 2)
///
/// The engine implements index::ValuePlacer so any data structure can be
/// "plugged into" it (Fig 12). It owns the DAP, the retraining policy and
/// its model (E2Model or a PNW baseline); the controller is borrowed.
/// CPU costs of prediction and training are charged to the device's
/// energy meter so software overhead shows up in the energy experiments
/// (Figs 8, 16, 18).
///
/// ## Threading contract (external locking)
///
/// The engine is **single-caller**: PlaceRows/Place/Release/WriteAt/
/// Retrain/ExtendRegion/PumpBackgroundRetrain and the stats()/pool()
/// accessors must be serialized by the caller — they mutate and read
/// unsynchronized state (`stats_` counters, the `placed_cluster_` memo,
/// the inference scratch, the padding RNG and running 1-ratios, and the
/// DynamicAddressPool, which has no lock of its own) that a concurrent
/// second caller would race on. The one sanctioned cross-thread actor
/// is the BackgroundRetrainer worker, which touches nothing of the
/// engine (the handoff is its own release/acquire pair).
///
/// Concurrency across *engines* is free: ShardedStore runs one engine
/// per shard, each behind that shard's mutex, over disjoint segment
/// ranges of one shared device (tests/sharded_stress_test.cc runs this
/// contract under TSan; store_model_test.cc pins the single-caller
/// invariants the contract protects).
class PlacementEngine : public index::ValuePlacer {
 public:
  struct Config {
    /// Segment range [first_segment, first_segment + num_segments) the
    /// engine manages; all of it starts free.
    uint64_t first_segment = 0;
    size_t num_segments = 0;
    /// Ablation: search the predicted cluster's list for the
    /// minimum-Hamming address instead of taking the first (§3.3.1).
    bool search_best_in_cluster = false;
    /// Retrain inside Place when the policy fires. By default the
    /// retrain runs synchronously (stalling that Place for the whole
    /// rebuild, but keeping the simulation single-threaded and
    /// deterministic — equivalent for energy/flip accounting); call
    /// EnableBackgroundRetrain() to move the training to a shadow model
    /// on a background thread as the paper specifies (§4.1.4).
    bool auto_retrain = false;
    RetrainPolicy::Config retrain;

    /// --- Incremental online learning (DESIGN.md §16) ---
    /// When enabled with auto_retrain (and the clusterer supports
    /// PartialFit), the engine keeps a fixed-capacity replay ring of
    /// recently committed segment images, fed for pennies on the PUT
    /// path, and the retrain policy's drift detector answers efficiency
    /// degradation with cheap inline PartialFit refinement steps over
    /// that ring — escalating to a full retrain only when refinement
    /// fails to recover efficiency (retrain.max_refine_rounds) or the
    /// capacity trigger fires. Off by default: placements, flips, and
    /// the retrain schedule are bit-identical to the pre-incremental
    /// engine.
    struct Incremental {
      bool enabled = false;
      /// Replay-ring rows (recently written segment images), allocated
      /// once at construction; appends never allocate.
      size_t ring_capacity = 256;
      /// Rows per refinement step — the most recent writes, oldest
      /// first. Steps are skipped until the ring holds this many.
      size_t refine_batch = 16;
    };
    Incremental incremental;
  };

  /// Backoff after a failed auto-retrain or refine step: retrain checks
  /// are skipped for this many placements, doubling on consecutive
  /// failures (up to 64x), so a broken retrain cannot re-run and re-log
  /// on every write.
  static constexpr uint64_t kRetrainBackoffWrites = 64;

  /// The engine owns `clusterer` from here on. Bootstrap and every
  /// retrain train a CloneUntrained of it and serve that (Train is a
  /// pure function of the config and the contents).
  PlacementEngine(nvm::MemoryController* ctrl,
                  std::unique_ptr<placement::ContentClusterer> clusterer,
                  const Config& config);

  /// Trains a model on the current contents of every managed (free)
  /// segment and populates the DAP. Must be called once before Place.
  Status Bootstrap();

  /// Bootstrap's adoption form, for an engine whose managed segments are
  /// byte-identical to those `source` bootstrapped on, under a clusterer
  /// of the same configuration: Train is a pure function of the two, so
  /// this engine adopts source's trained model instead of training an
  /// identical one, and releases its own. Classifying its segments with
  /// that model would rebuild source's DAP, so it copies source's free
  /// lists, offset to its own range, and charges its lane the training
  /// flops, energy and clock its own Bootstrap would have: stats, energy
  /// and every later placement equal Bootstrap's. Only a refine step
  /// changes a model in place (a retrain serves a fresh one), so when
  /// neither engine can refine (auto_retrain with refinement enabled)
  /// the two serve one instance; otherwise this engine serves a Clone,
  /// which refines bit for bit as the original would. Requires a
  /// bootstrapped source whose stats have not moved since its bootstrap
  /// (no placement, release, retrain, refine step or prediction), so
  /// that its DAP is still the one its bootstrap built. An engine that
  /// can refine also requires a source model that can (a retrain-off
  /// source serves one without its training state; see Adopt):
  /// FailedPrecondition otherwise.
  Status BootstrapFrom(const PlacementEngine& source);

  /// Re-trains on the contents of the currently free segments and rebuilds
  /// the DAP. Callable any time after Bootstrap.
  Status Retrain();

  /// Incremental indexing (§4.1.4: "instead of indexing the whole NVM
  /// device at the beginning, a dynamic incremental approach can be
  /// adopted, which starts by indexing a portion of the memory, and as
  /// time progresses, more addresses ... are added incrementally to
  /// DAP"). Extends the managed region by `extra` free segments directly
  /// above the current one, classifying each with the existing model (no
  /// retraining). Requires a prior Bootstrap; the extension must stay in
  /// the controller's space and in this engine's accounting lane (on a
  /// sharded device, the segments above a shard are the next shard's).
  Status ExtendRegion(size_t extra);

  /// Switches auto-retraining to the background path: when the policy
  /// fires, Place snapshots the free segments, trains a shadow clusterer
  /// on a dedicated thread (every kernel on that thread), and a later
  /// Place adopts the trained model — a generation-counted double buffer
  /// in which foreground traffic keeps serving from the old model during
  /// training. The shadow is the same
  /// model update a synchronous retrain trains, installed the same way;
  /// only its charges differ (energy, no clock). Requires
  /// config.auto_retrain for the policy to fire.
  /// With `pool`, each training is one job on that ThreadPool instead of
  /// a dedicated thread per training (the ShardedStore mode), its
  /// kernels on the worker that runs it; the pool must outlive the
  /// engine.
  void EnableBackgroundRetrain(ThreadPool* pool = nullptr);
  bool background_retrain_enabled() const { return bg_ != nullptr; }

  /// True while a shadow model is training off the write path.
  bool RetrainInFlight() const { return bg_ != nullptr && bg_->running(); }

  /// Generation of the serving model: 0 until the first background swap,
  /// then incremented per adopted shadow.
  uint64_t model_generation() const { return model_generation_; }

  /// Collects and adopts a finished shadow model immediately (tests and
  /// harnesses that want the swap without issuing another Place); no-op
  /// when none is ready. Returns true when a swap happened.
  bool PumpBackgroundRetrain();

  /// Optional padding for values narrower than the model input
  /// (§4: the padded bits are used only for prediction). The padder and
  /// LSTM must outlive the engine.
  void SetPadder(const Padder* padder, ml::Lstm* lstm);

  /// Called by PlaceRows right after row `row` lands at `addr`, before
  /// the next row is placed. A non-OK status stops the batch.
  using RowPlaced = Status (*)(void* ctx, size_t row, uint64_t addr);

  /// The engine's one write path: places values[0..n) in order, handing
  /// each row's address to `on_row(ctx, row, addr)`. Runs of rows share
  /// one featurize + encode + fused assignment pass (§4.1.4's batching),
  /// and the result equals n one-row calls with the same `on_row` work
  /// between them: rows left after a mid-run retrain, refine step or
  /// shadow swap are re-assigned, and a narrow value under a padder
  /// (whose features sample the memory image) is staged alone when its
  /// turn comes. Stops at the first failing row; the rows before it were
  /// handed to `on_row`. Allocation-free once warm.
  Status PlaceRows(const BitVector* const* values, size_t n,
                   RowPlaced on_row, void* ctx);

  // --- index::ValuePlacer ---
  std::string_view name() const override;
  /// A one-row PlaceRows.
  StatusOr<uint64_t> Place(const BitVector& value) override;
  Status Release(uint64_t addr) override;
  BitVector Read(uint64_t addr, size_t bits) override;
  /// Allocation-free Read: decodes the segment into `out` (capacity
  /// reused across calls) and truncates to `bits` — the serving path of
  /// the network front-end's GET.
  void ReadInto(uint64_t addr, size_t bits, BitVector* out);
  Status WriteAt(uint64_t addr, const BitVector& value) override;
  size_t FreeCount() const override { return pool_.TotalFree(); }

  /// Cluster the engine would choose for `value`: featurizes it (which
  /// advances the padding 1-ratios), charges one prediction and assigns
  /// it, as PlaceRows does for a one-row run. A probe for tests. Fails
  /// before Bootstrap (there is no trained model to ask) and when the
  /// value cannot be featurized (padder failure).
  StatusOr<size_t> PredictClusterFor(const BitVector& value);

  /// Replay ring of recently written segment images — exposed for the
  /// determinism tests and diagnostics. Only a refine step reads it, so
  /// its capacity is 0 unless the engine can refine (auto_retrain and
  /// incremental learning on, with a clusterer that supports PartialFit).
  const ReplayRing& replay_ring() const { return ring_; }

  /// What a training on `addrs` reads: row i holds the decoded content
  /// of addrs[i] (Peek's bits, through the wear-leveling map and the
  /// scheme's decode), packed, one word copy per segment. Every full
  /// training (TrainOn) snapshots through here.
  ml::BitMatrix SnapshotContents(const std::vector<uint64_t>& addrs) const;

  /// Cluster memoized for the value last placed at `addr` (the id a
  /// later Release recycles it into without re-encoding), or -1 when
  /// none is held — exposed for the equivalence tests, which check every
  /// entry against a fresh prediction of the segment's content.
  int32_t placed_cluster(uint64_t addr) const {
    return addr >= config_.first_segment &&
                   addr - config_.first_segment < placed_cluster_.size()
               ? placed_cluster_[addr - config_.first_segment]
               : -1;
  }

  const DynamicAddressPool& pool() const { return pool_; }
  /// Mutable pool access for harnesses that drive the acquire/write steps
  /// themselves (e.g. the Fig 15 oracle control).
  DynamicAddressPool& mutable_pool() { return pool_; }
  const EngineStats& stats() const { return stats_; }
  const RetrainPolicy& policy() const { return policy_; }
  nvm::MemoryController& ctrl() { return *ctrl_; }
  /// The serving model, which may also be other engines' (see
  /// BootstrapFrom). A retrain or shadow swap replaces it: do not hold
  /// the reference across an operation that can retrain (a placement,
  /// Retrain, PumpBackgroundRetrain).
  const placement::ContentClusterer& clusterer() const {
    return *clusterer_;
  }

  /// Placements to go before the next auto-retrain attempt (0 when not
  /// backing off).
  uint64_t retrain_cooldown() const { return retrain_cooldown_; }

 private:
  /// Pads (if configured) and featurizes a value for the model into
  /// `out` (segment_bits floats), advancing the running 1-ratios; the
  /// full-width and zero-extend paths write the floats directly.
  Status FeaturizeInto(const BitVector& value, float* out);
  /// The padding slow path of FeaturizeInto: builds the PaddingContext
  /// (dataset/memory 1-ratios, LSTM, RNG) and pads.
  StatusOr<BitVector> PadForModel(const BitVector& value);
  /// Classifies the stored content of segment `addr` with the serving
  /// model (Alg. 2's re-encode), charging one prediction: the memo-miss
  /// Release, Adopt's re-predictions and ExtendRegion. Runs on
  /// peek_scratch_ and segment_scratch_, so it is allocation-free once
  /// warm and leaves a batch staged in scratch_ intact.
  size_t ClassifySegment(uint64_t addr);
  /// Hamming distance between `value` and the first value.size() bits
  /// of segment `addr`'s logical content: AcquireBest's score. Peeks
  /// into peek_scratch_ and counts whole words with the hamming kernel
  /// plus a masked tail word, so it allocates nothing once warm.
  size_t PrefixDistance(uint64_t addr, const BitVector& value);
  /// The acquire/write step of one PlaceRows row: pops addresses (of
  /// `cluster` when model_ok) until a healthy write lands, then updates
  /// stats, the placed-cluster memo, and the retrain policy.
  StatusOr<uint64_t> PlaceAt(const BitVector& value, size_t cluster,
                             bool model_ok);
  /// Forgets every memoized placed cluster (model changed).
  void InvalidateClusterCache();
  void ChargePrediction();
  /// Runs the auto-retrain policy after a placement, honoring the
  /// failure backoff.
  void MaybeAutoRetrain();
  /// Every full training: Bootstrap, Retrain and a shadow launch.
  /// Refuses a snapshot with fewer segments than clusters, then builds
  /// the model update (BackgroundRetrainer::Train on a CloneUntrained)
  /// from the packed contents of `snapshot` (SnapshotContents): inline,
  /// adopting it on the write path, or (`background`) launched on the
  /// retrainer, counted in background_retrains, for
  /// PumpBackgroundRetrain to adopt.
  Status TrainOn(std::vector<uint64_t> snapshot, bool background);
  /// Installs a model update, the one place a trained model starts
  /// serving: with retraining off, drops its training state
  /// (ContentClusterer::DropTrainingState) first; swaps it in, charges
  /// it through OnModelChanged (on the write path its training flops,
  /// clock included; a shadow's training and classification flops,
  /// energy only), resets the policy, and rebuilds the DAP from
  /// `free_set`: snapshot segments keep the update's cluster, segments
  /// released since are classified again, and quarantined ones are
  /// dropped. Takes the model out of `update`.
  void Adopt(BackgroundRetrainer::Result& update,
             const std::vector<uint64_t>& free_set, bool on_write_path);
  /// The tail of every model change (Adopt, BootstrapFrom, RefineStep):
  /// charges `flops` to train_flops, CPU energy and, on the write path,
  /// the clock; forgets the placement memo; ends the failure streak; and
  /// bumps model_changes_. The caller tells the policy.
  void OnModelChanged(double flops, bool on_write_path);
  /// True when the policy can answer drift with a refine step, the one
  /// operation that changes the serving model in place.
  bool CanRefine() const;
  /// Starts/extends the exponential retrain-failure backoff.
  void OnRetrainFailure(const Status& s);
  /// One inline incremental refinement step (§16): copies the most
  /// recent refine_batch ring rows (oldest first) into scratch, runs the
  /// clusterer's PartialFit in place and finishes through
  /// OnModelChanged. Skipped while the ring is still filling.
  void RefineStep();

  nvm::MemoryController* ctrl_;
  /// The serving model. Shared with other engines only when none of
  /// them can refine (BootstrapFrom); each Adopt replaces it.
  std::shared_ptr<placement::ContentClusterer> clusterer_;
  Config config_;
  DynamicAddressPool pool_;
  RetrainPolicy policy_;
  /// Device accounting lane of this engine's segment range, cached at
  /// construction (ConfigureAccountingLanes must run before engines are
  /// built). Every meter charge routes here so the energy slab stays
  /// single-writer under the shard lock.
  size_t lane_ = 0;
  EngineStats stats_;
  const Padder* padder_ = nullptr;
  ml::Lstm* pad_lstm_ = nullptr;
  Rng pad_rng_{0xBADC0DEDull};
  // Running 1-bit ratios feeding DB and MB padding.
  uint64_t seen_ones_ = 0;
  uint64_t seen_bits_ = 0;
  bool bootstrapped_ = false;
  // Retrain-failure backoff state.
  uint64_t retrain_cooldown_ = 0;
  uint32_t retrain_failures_in_row_ = 0;
  // Background retraining: the retrainer trains a shadow model that
  // PumpBackgroundRetrain adopts as clusterer_.
  std::unique_ptr<BackgroundRetrainer> bg_;
  uint64_t model_generation_ = 0;
  // Write-path inference scratch (see ml/inference.h): owned by the
  // engine, reused across every PlaceRows run, allocation-free once
  // warm. A DAP fill classifies through a short-lived local scratch
  // instead, so no region-sized matrix stays alive here.
  ml::InferenceScratch scratch_;
  // ClassifySegment's one-row scratch, and the reused buffer its and
  // PrefixDistance's content peeks decode into (same single-caller
  // contract).
  ml::InferenceScratch segment_scratch_;
  BitVector peek_scratch_;
  // Scratch write outcome for PlaceAt/WriteAt: its stored image reuses
  // its heap capacity, so steady-state placements never allocate
  // (guarded by the engine's single-caller contract above).
  nvm::WriteResult write_scratch_;
  // Incremental learning (§16): the replay ring of committed segment
  // images (capacity 0 unless the engine can refine) and the reused
  // mini-batch staging matrix RefineStep expands ring rows into.
  ReplayRing ring_;
  ml::Matrix refine_in_;
  // placed_cluster_[addr - first_segment]: cluster the serving model
  // assigned to the full-width value most recently placed at addr, or -1
  // when unknown. Lets Release recycle the address without re-encoding
  // the content (the content IS that value, and the model is unchanged).
  // Invalidated wholesale on any model change (OnModelChanged) and
  // per-address on WriteAt and narrow placements.
  std::vector<int32_t> placed_cluster_;
  // The members below come after the write path's, so those keep their
  // offsets.
  // stats_ as Bootstrap or BootstrapFrom left them: while they still
  // match, the DAP is the one the bootstrap built (BootstrapFrom's test).
  EngineStats bootstrap_stats_;
  // Model changes (adoptions, refine steps, BootstrapFrom) so far:
  // PlaceRows re-assigns the rest of a run when this moves under it.
  uint64_t model_changes_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_PLACEMENT_ENGINE_H_
