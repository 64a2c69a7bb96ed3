#include "core/placement_engine.h"

#include <bit>
#include <cstring>

#include "common/kernels.h"
#include "common/logging.h"
#include "nvm/energy.h"

namespace e2nvm::core {

void EngineStats::MergeFrom(const EngineStats& other) {
  placements += other.placements;
  releases += other.releases;
  retrains += other.retrains;
  fallback_acquires += other.fallback_acquires;
  predict_flops += other.predict_flops;
  train_flops += other.train_flops;
  fallback_placements += other.fallback_placements;
  quarantine_skips += other.quarantine_skips;
  quarantined_segments += other.quarantined_segments;
  write_retries += other.write_retries;
  model_fallbacks += other.model_fallbacks;
  failed_retrains += other.failed_retrains;
  background_retrains += other.background_retrains;
  capacity_retrains += other.capacity_retrains;
  swap_repredictions += other.swap_repredictions;
  refine_steps += other.refine_steps;
  refine_flops += other.refine_flops;
  release_cluster_hits += other.release_cluster_hits;
}

PlacementEngine::PlacementEngine(
    nvm::MemoryController* ctrl,
    std::unique_ptr<placement::ContentClusterer> clusterer,
    const Config& config)
    : ctrl_(ctrl),
      clusterer_(std::move(clusterer)),
      config_(config),
      pool_(clusterer_->num_clusters()),
      policy_(config.retrain,
              config.incremental.enabled && clusterer_->SupportsPartialFit()),
      // All of this engine's segments live in one accounting lane (the
      // shard's); cache the id so every charge routes without a divide.
      lane_(ctrl->device().LaneOfSegment(config.first_segment)),
      placed_cluster_(config.num_segments, -1) {
  if (CanRefine()) {
    // Only a refine step reads the ring. Its one allocation happens
    // here; every append reuses it.
    ring_.Reset(config_.incremental.ring_capacity, ctrl_->segment_bits());
  }
}

std::string_view PlacementEngine::name() const {
  return clusterer_->name();
}

void PlacementEngine::SetPadder(const Padder* padder, ml::Lstm* lstm) {
  padder_ = padder;
  pad_lstm_ = lstm;
}

ml::BitMatrix PlacementEngine::SnapshotContents(
    const std::vector<uint64_t>& addrs) const {
  ml::BitMatrix contents(addrs.size(), ctrl_->segment_bits());
  BitVector decoded;  // One decode buffer for every row.
  for (size_t i = 0; i < addrs.size(); ++i) {
    ctrl_->PeekInto(addrs[i], &decoded);
    contents.SetRow(i, decoded.words().data());
  }
  return contents;
}

Status PlacementEngine::TrainOn(std::vector<uint64_t> snapshot,
                                bool background) {
  if (snapshot.size() < clusterer_->num_clusters()) {
    return Status::FailedPrecondition("too few free segments to train on");
  }
  ml::BitMatrix contents = SnapshotContents(snapshot);
  // A fresh model serves only once it trained: the serving one may be
  // other engines' too, and keeps serving here if training fails. Train
  // is a pure function of the config and the contents, so at bootstrap
  // this equals training the engine's untrained model in place.
  std::unique_ptr<placement::ContentClusterer> fresh =
      clusterer_->CloneUntrained();
  if (background) {
    bg_->Start(std::move(fresh), std::move(contents), std::move(snapshot));
    ++stats_.background_retrains;
    return Status::Ok();
  }
  BackgroundRetrainer::Result update = BackgroundRetrainer::Train(
      std::move(fresh), std::move(contents), std::move(snapshot));
  E2_RETURN_IF_ERROR(update.status);
  // Nothing ran since the snapshot, so it is still the free set.
  Adopt(update, update.addrs, /*on_write_path=*/true);
  return Status::Ok();
}

void PlacementEngine::Adopt(BackgroundRetrainer::Result& update,
                            const std::vector<uint64_t>& free_set,
                            bool on_write_path) {
  // With retraining off nothing trains this model again (every update
  // trains a CloneUntrained), so it serves without its training state.
  // Stripped before it serves: twins may share it from then on.
  if (!config_.auto_retrain) update.model->DropTrainingState();
  // Predictions only ever run on this (foreground) thread, so a plain
  // pointer swap is race-free; engines that share the old model keep it
  // alive.
  clusterer_ = std::move(update.model);
  // A shadow trained concurrently with foreground traffic: its training
  // and snapshot classification cost energy but no write-path time (the
  // whole point of §4.1.4). On the write path the training stalled this
  // operation. Charged before the DAP rebuild's re-predictions.
  OnModelChanged(on_write_path
                     ? update.train_flops
                     : update.train_flops + update.predict_flops,
                 on_write_path);
  policy_.OnRetrain();
  // snapshot_cluster[addr - first_segment]: the update's cluster for a
  // snapshot address, -1 for the rest.
  std::vector<int32_t> snapshot_cluster(config_.num_segments, -1);
  for (size_t i = 0; i < update.addrs.size(); ++i) {
    snapshot_cluster[update.addrs[i] - config_.first_segment] =
        static_cast<int32_t>(update.clusters[i]);
  }
  pool_.Clear();
  for (uint64_t addr : free_set) {
    if (ctrl_->IsQuarantined(addr)) {
      ++stats_.quarantine_skips;
      continue;
    }
    const int32_t cluster = snapshot_cluster[addr - config_.first_segment];
    if (cluster >= 0) {
      pool_.Insert(static_cast<size_t>(cluster), addr);
    } else {
      ++stats_.swap_repredictions;
      pool_.Insert(ClassifySegment(addr), addr);
    }
  }
}

void PlacementEngine::OnModelChanged(double flops, bool on_write_path) {
  stats_.train_flops += flops;
  const nvm::EnergyModel& em = ctrl_->device().energy_model();
  ctrl_->device().meter().ChargeLane(lane_, nvm::EnergyDomain::kCpuModel,
                                     em.CpuPj(flops));
  if (on_write_path) {
    ctrl_->device().meter().AdvanceTimeLane(lane_, em.CpuNs(flops));
  }
  InvalidateClusterCache();
  retrain_failures_in_row_ = 0;
  ++model_changes_;
}

Status PlacementEngine::Bootstrap() {
  const size_t n = config_.num_segments;
  if (n == 0) return Status::InvalidArgument("engine manages no segments");
  std::vector<uint64_t> addrs(n);
  for (size_t i = 0; i < n; ++i) addrs[i] = config_.first_segment + i;
  E2_RETURN_IF_ERROR(TrainOn(std::move(addrs), /*background=*/false));
  bootstrapped_ = true;
  bootstrap_stats_ = stats_;
  return Status::Ok();
}

bool PlacementEngine::CanRefine() const {
  return config_.auto_retrain && policy_.refine_enabled();
}

Status PlacementEngine::BootstrapFrom(const PlacementEngine& source) {
  const size_t n = config_.num_segments;
  if (!source.bootstrapped_ || source.config_.num_segments != n ||
      source.ctrl_->segment_bits() != ctrl_->segment_bits() ||
      source.clusterer_->num_clusters() != clusterer_->num_clusters()) {
    return Status::FailedPrecondition(
        "source engine is not a bootstrapped twin of this one");
  }
  if (!(source.stats_ == source.bootstrap_stats_)) {
    return Status::FailedPrecondition(
        "source engine has run operations since its bootstrap");
  }
  // An engine that refines trains its copy in place, so it needs the
  // training state a retrain-off source dropped.
  if (CanRefine() && !source.clusterer_->SupportsPartialFit()) {
    return Status::FailedPrecondition(
        "source engine serves a model without its training state");
  }
  // Only a refine step changes a model in place (a retrain installs a
  // fresh one), so engines that cannot refine serve one instance, and
  // otherwise this one takes its own copy now.
  if (CanRefine() || source.CanRefine()) {
    clusterer_ = source.clusterer_->Clone();
  } else {
    clusterer_ = source.clusterer_;
  }
  // Classifying this engine's segments with the model would reproduce
  // source's free lists cluster for cluster, offset to this range and in
  // the same order, since the contents are byte-identical: copy them.
  pool_.Clear();
  for (size_t c = 0; c < pool_.num_clusters(); ++c) {
    const FreeList& list = source.pool_.free_list(c);
    for (size_t i = 0; i < list.size(); ++i) {
      pool_.Insert(c, list[i] - source.config_.first_segment +
                          config_.first_segment);
    }
  }
  OnModelChanged(clusterer_->LastTrainFlops(), /*on_write_path=*/true);
  policy_.OnRetrain();
  bootstrapped_ = true;
  bootstrap_stats_ = stats_;
  return Status::Ok();
}

Status PlacementEngine::Retrain() {
  E2_RETURN_IF_ERROR(TrainOn(pool_.AllFree(), /*background=*/false));
  ++stats_.retrains;
  return Status::Ok();
}

Status PlacementEngine::ExtendRegion(size_t extra) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("engine not bootstrapped");
  }
  uint64_t start = config_.first_segment + config_.num_segments;
  if (start + extra > ctrl_->num_logical()) {
    return Status::OutOfRange("extension exceeds the controller's space");
  }
  // On a shared device the next segments may be another shard's.
  if (ctrl_->device().LaneOfSegment(start + extra - 1) != lane_) {
    return Status::OutOfRange("extension leaves the engine's lane");
  }
  for (size_t i = 0; i < extra; ++i) {
    pool_.Insert(ClassifySegment(start + i), start + i);
  }
  config_.num_segments += extra;
  placed_cluster_.resize(config_.num_segments, -1);
  return Status::Ok();
}

Status PlacementEngine::FeaturizeInto(const BitVector& value, float* out) {
  const size_t dim = ctrl_->segment_bits();
  seen_ones_ += value.Popcount();
  seen_bits_ += value.size();
  if (value.size() == dim) {
    value.AppendFloatsTo(out);
    return Status::Ok();
  }
  if (padder_ == nullptr) {
    // Default: zero-extend at the end.
    std::fill(out + value.size(), out + dim, 0.0f);
    value.AppendFloatsTo(out);
    return Status::Ok();
  }
  E2_ASSIGN_OR_RETURN(BitVector padded, PadForModel(value));
  padded.AppendFloatsTo(out);
  return Status::Ok();
}

StatusOr<BitVector> PlacementEngine::PadForModel(const BitVector& value) {
  PaddingContext ctx;
  ctx.dataset_ones_ratio =
      seen_bits_ ? static_cast<double>(seen_ones_) /
                       static_cast<double>(seen_bits_)
                 : 0.5;
  // Memory-based ratio: density of the whole managed region's cells.
  uint64_t mem_ones = 0;
  uint64_t mem_bits = 0;
  // Sample up to 64 segments to keep the estimate cheap.
  size_t stride = std::max<size_t>(1, config_.num_segments / 64);
  for (size_t i = 0; i < config_.num_segments; i += stride) {
    BitVector bits = ctrl_->Peek(config_.first_segment + i);
    mem_ones += bits.Popcount();
    mem_bits += bits.size();
  }
  ctx.memory_ones_ratio =
      mem_bits ? static_cast<double>(mem_ones) /
                     static_cast<double>(mem_bits)
               : 0.5;
  ctx.lstm = pad_lstm_;
  ctx.rng = &pad_rng_;
  return padder_->Pad(value, ctx);
}

void PlacementEngine::ChargePrediction() {
  const nvm::EnergyModel& em = ctrl_->device().energy_model();
  double flops = clusterer_->PredictFlops();
  stats_.predict_flops += flops;
  ctrl_->device().meter().ChargeLane(lane_, nvm::EnergyDomain::kCpuModel,
                                     em.CpuPj(flops));
  ctrl_->device().meter().AdvanceTimeLane(lane_, em.CpuNs(flops));
}

StatusOr<size_t> PlacementEngine::PredictClusterFor(const BitVector& value) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("engine not bootstrapped");
  }
  scratch_.in.EnsureShape(1, ctrl_->segment_bits());
  E2_RETURN_IF_ERROR(FeaturizeInto(value, scratch_.in.Row(0)));
  ChargePrediction();
  clusterer_->AssignScratch(&scratch_);
  return scratch_.clusters[0];
}

size_t PlacementEngine::ClassifySegment(uint64_t addr) {
  // Its own one-row scratch: a shadow swap re-predicts through here from
  // inside PlaceRows' loop, while scratch_ still holds the staged batch.
  ctrl_->PeekInto(addr, &peek_scratch_);
  segment_scratch_.in.EnsureShape(1, ctrl_->segment_bits());
  peek_scratch_.AppendFloatsTo(segment_scratch_.in.Row(0));
  ChargePrediction();
  clusterer_->AssignScratch(&segment_scratch_);
  return segment_scratch_.clusters[0];
}

size_t PlacementEngine::PrefixDistance(uint64_t addr,
                                       const BitVector& value) {
  ctrl_->PeekInto(addr, &peek_scratch_);
  const uint64_t* seg = peek_scratch_.words().data();
  const uint64_t* val = value.words().data();
  const size_t full = value.size() / 64;
  size_t d = Ops().hamming_words(seg, val, full);
  if (const size_t tail = value.size() % 64; tail != 0) {
    const uint64_t mask = (uint64_t{1} << tail) - 1;
    d += static_cast<size_t>(std::popcount((seg[full] ^ val[full]) & mask));
  }
  return d;
}

StatusOr<uint64_t> PlacementEngine::Place(const BitVector& value) {
  const BitVector* row = &value;
  uint64_t addr = 0;
  auto keep = [](void* out, size_t, uint64_t a) {
    *static_cast<uint64_t*>(out) = a;
    return Status::Ok();
  };
  E2_RETURN_IF_ERROR(PlaceRows(&row, 1, keep, &addr));
  return addr;
}

StatusOr<uint64_t> PlacementEngine::PlaceAt(const BitVector& value,
                                            size_t cluster,
                                            bool model_ok) {
  // Each iteration consumes one address from the pool; addresses that
  // turn out quarantined (or get quarantined by a failed write-verify)
  // are dropped and the value re-placed, so the loop is bounded by the
  // pool size and only fails once every address is gone.
  for (size_t attempt = 0;; ++attempt) {
    std::optional<uint64_t> addr;
    bool first_pick = model_ok && attempt == 0;
    if (!first_pick) {
      addr = pool_.AcquireAny();
    } else {
      // Both acquires fall back to the fullest cluster when the predicted
      // one is empty; either way that is a fallback, not the model's pick.
      const bool cluster_empty = pool_.FreeCount(cluster) == 0;
      if (config_.search_best_in_cluster) {
        addr = pool_.AcquireBest(
            cluster, [&](uint64_t a) { return PrefixDistance(a, value); });
      } else {
        addr = pool_.Acquire(cluster);
      }
      if (addr.has_value() && cluster_empty) {
        ++stats_.fallback_acquires;
        first_pick = false;
      }
    }
    if (!addr.has_value()) {
      return Status::ResourceExhausted("address pool empty");
    }
    if (ctrl_->IsQuarantined(*addr)) {
      // A quarantined address slipped into the pool (e.g. recycled before
      // the quarantine): drop it and re-acquire.
      ++stats_.quarantine_skips;
      continue;
    }

    // The scratch result's stored image reuses its capacity across
    // placements, keeping the steady-state PUT path off the heap.
    nvm::WriteResult& r = write_scratch_;
    index::MergeWriteInto(*ctrl_, *addr, value, &r);
    stats_.write_retries += r.verify_retries;
    if (r.verify_failed) {
      // The controller quarantined this segment; its cells may hold a
      // corrupted image, so place the value somewhere healthy.
      ++stats_.quarantined_segments;
      continue;
    }
    if (!first_pick) ++stats_.fallback_placements;
    ++stats_.placements;
    if (ring_.capacity() > 0) {
      // Replay-ring feed: the committed segment image is exactly the
      // training row a full retrain would gather for this address, and
      // copying its words costs a fraction of the write itself (no
      // allocation — the ring is pre-sized).
      ring_.Append(r.stored);
    }
    // Memoize the value's cluster for Release: valid only when the model
    // actually predicted it and the value fills the whole segment (so
    // the content Release would re-encode IS this value).
    if (*addr >= config_.first_segment &&
        *addr - config_.first_segment < placed_cluster_.size()) {
      placed_cluster_[*addr - config_.first_segment] =
          (model_ok && value.size() == ctrl_->segment_bits())
              ? static_cast<int32_t>(cluster)
              : -1;
    }
    policy_.RecordWrite(r.total_bits_flipped(), value.size());
    MaybeAutoRetrain();
    return *addr;
  }
}

Status PlacementEngine::PlaceRows(const BitVector* const* values, size_t n,
                                  RowPlaced on_row, void* ctx) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("engine not bootstrapped");
  }
  const size_t dim = ctrl_->segment_bits();
  auto padded = [&](size_t i) {
    return padder_ != nullptr && values[i]->size() != dim;
  };
  size_t next = 0;  // Next value to place.
  while (next < n) {
    if (values[next]->size() > dim) {
      return Status::InvalidArgument("value wider than a segment");
    }
    // Stage the longest run of valid-width values as one batch: one
    // featurize pass, one encoder GEMV per row, one fused assignment. A
    // padded narrow value samples the memory image that earlier rows
    // change, so it is a run of its own.
    size_t end = next + 1;
    while (end < n && !padded(next) && !padded(end) &&
           values[end]->size() <= dim) {
      ++end;
    }
    size_t base = next;  // Value staged in scratch row 0.
    scratch_.in.EnsureShape(end - base, dim);
    scratch_.row_ok.assign(end - base, 1);
    for (size_t i = base; i < end; ++i) {
      Status s = FeaturizeInto(*values[i], scratch_.in.Row(i - base));
      if (!s.ok()) {
        // Degraded mode (padder failure): this value goes first-free.
        scratch_.row_ok[i - base] = 0;
        std::fill(scratch_.in.Row(i - base),
                  scratch_.in.Row(i - base) + dim, 0.0f);
        ++stats_.model_fallbacks;
        E2_LOG(kWarning,
               "placement model unhealthy, using first-free: %s",
               s.ToString().c_str());
      }
    }
    uint64_t model = model_changes_;
    clusterer_->AssignScratch(&scratch_);
    while (next < end) {
      const size_t row = next - base;
      const bool model_ok = scratch_.row_ok[row] != 0;
      const size_t cluster = model_ok ? scratch_.clusters[row] : 0;
      // Charge at consumption time so a value placed after a mid-batch
      // model change is billed exactly like a one-row run (once, at the
      // flops of the model that placed it).
      if (model_ok) ChargePrediction();
      E2_ASSIGN_OR_RETURN(uint64_t addr,
                          PlaceAt(*values[next], cluster, model_ok));
      E2_RETURN_IF_ERROR(on_row(ctx, next, addr));
      ++next;
      if (next < end && model_changes_ != model) {
        // The model changed mid-batch (sync retrain, shadow swap, or an
        // incremental refinement step): re-assign the remaining rows
        // with the new model, exactly as one-row runs after the change
        // would. Features are model-independent, so no re-featurize (and
        // the running 1-ratio counters advance once per value).
        const size_t remaining = end - next;
        for (size_t i = 0; i < remaining; ++i) {
          std::memmove(scratch_.in.Row(i),
                       scratch_.in.Row(next - base + i),
                       dim * sizeof(float));
          scratch_.row_ok[i] = scratch_.row_ok[next - base + i];
        }
        scratch_.in.EnsureShape(remaining, dim);
        scratch_.row_ok.resize(remaining);
        base = next;
        model = model_changes_;
        clusterer_->AssignScratch(&scratch_);
      }
    }
  }
  return Status::Ok();
}

void PlacementEngine::OnRetrainFailure(const Status& s) {
  // Back off exponentially so a persistently failing retrain cannot
  // re-run (and re-log) on every subsequent Place.
  ++stats_.failed_retrains;
  uint32_t shift = std::min<uint32_t>(retrain_failures_in_row_, 6);
  retrain_cooldown_ =
      kRetrainBackoffWrites << shift;
  ++retrain_failures_in_row_;
  E2_LOG(kWarning, "auto-retrain failed (backing off %llu writes): %s",
         static_cast<unsigned long long>(retrain_cooldown_),
         s.ToString().c_str());
}

void PlacementEngine::RefineStep() {
  const size_t batch = config_.incremental.refine_batch;
  if (batch == 0 || ring_.size() < batch) return;  // Ring still filling.
  const size_t dim = ring_.dim();
  refine_in_.EnsureShape(batch, dim);
  // Oldest-to-newest across the last `batch` writes: successive steps
  // see a sliding window in write order, so the mini-batch sequence —
  // and therefore the refined model — is a deterministic function of
  // the write stream (the §16 determinism contract). Only these rows
  // are expanded to floats.
  const KernelOps& kern = Ops();
  for (size_t i = 0; i < batch; ++i) {
    kern.bits_to_floats(ring_.RecentRow(batch - 1 - i), dim,
                        refine_in_.Row(i));
  }
  // In place: an engine that can refine holds its model alone
  // (BootstrapFrom).
  Status s = clusterer_->PartialFit(refine_in_);
  if (!s.ok()) {
    // A broken PartialFit backs off exactly like a failed retrain, so it
    // cannot re-run and re-log on every write.
    OnRetrainFailure(s);
    return;
  }
  const double flops = clusterer_->LastPartialFitFlops();
  ++stats_.refine_steps;
  stats_.refine_flops += flops;
  // Refinement runs inline on the write path: unlike a background
  // retrain it costs both CPU energy and write-path time — which is
  // fine, because one step is orders of magnitude below a full retrain.
  // The DAP is deliberately NOT rebuilt (that is what keeps a step
  // cheap); free addresses re-bucket under the refined model as they
  // recycle.
  OnModelChanged(flops, /*on_write_path=*/true);
  policy_.OnRefine();
}

void PlacementEngine::EnableBackgroundRetrain(ThreadPool* pool) {
  if (bg_ == nullptr) bg_ = std::make_unique<BackgroundRetrainer>(pool);
}

void PlacementEngine::InvalidateClusterCache() {
  std::fill(placed_cluster_.begin(), placed_cluster_.end(), -1);
}

bool PlacementEngine::PumpBackgroundRetrain() {
  if (bg_ == nullptr || !bg_->ready()) return false;
  std::optional<BackgroundRetrainer::Result> result = bg_->TryCollect();
  if (!result.has_value()) return false;
  if (!result->status.ok()) {
    OnRetrainFailure(result->status);
    return false;
  }
  // Traffic kept serving the old model while the shadow trained: the
  // DAP is rebuilt from the free set as it is now.
  Adopt(*result, pool_.AllFree(), /*on_write_path=*/false);
  ++stats_.retrains;
  ++model_generation_;
  return true;
}

void PlacementEngine::MaybeAutoRetrain() {
  if (!config_.auto_retrain) return;
  // Background mode adopts a finished shadow first (cheap: pointer swap
  // + DAP rebuild from the shadow's clusters) and never blocks on, or
  // overlaps, a training.
  if (bg_ != nullptr) PumpBackgroundRetrain();
  if (retrain_cooldown_ > 0) {
    --retrain_cooldown_;
    return;
  }
  if (bg_ != nullptr && (bg_->running() || bg_->ready())) return;
  RetrainAction action = policy_.Decide(pool_);
  if (action == RetrainAction::kNone) return;
  if (action == RetrainAction::kRefine) {
    // Inline in both modes: a refinement step is orders of magnitude
    // below the full retrain that would otherwise stall this Place.
    RefineStep();
    return;
  }
  const bool capacity = policy_.CapacityTriggered(pool_);
  // A shadow launch trains on a snapshot of the free segments; its
  // adoption, not the launch, ends the failure streak.
  Status s = bg_ != nullptr ? TrainOn(pool_.AllFree(), /*background=*/true)
                            : Retrain();
  if (!s.ok()) {
    OnRetrainFailure(s);
    return;
  }
  if (capacity) ++stats_.capacity_retrains;
}

Status PlacementEngine::Release(uint64_t addr) {
  if (ctrl_->IsQuarantined(addr)) {
    // Never recycle a bad segment back into circulation. Not an error:
    // the caller's delete still succeeded.
    ++stats_.quarantine_skips;
    ++stats_.releases;
    return Status::Ok();
  }
  // Algorithm 2: the freed address's *content* decides the cluster it is
  // recycled into.
  size_t cluster;
  const int32_t memo = placed_cluster(addr);
  if (memo >= 0) {
    // The content is the full-width value placed here, its cluster was
    // predicted by the still-serving model, and nothing overwrote the
    // segment since — the re-encode would reproduce exactly this id.
    // The controller still "runs" Alg. 2's prediction, so the energy
    // accounting matches the recompute path.
    ChargePrediction();
    cluster = static_cast<size_t>(memo);
    ++stats_.release_cluster_hits;
  } else {
    // Memo miss (first release of a key, or any release right after a
    // model change invalidated the memo): re-encode the content.
    cluster = ClassifySegment(addr);
  }
  pool_.Insert(cluster, addr);
  ++stats_.releases;
  return Status::Ok();
}

BitVector PlacementEngine::Read(uint64_t addr, size_t bits) {
  return ctrl_->Read(addr).Slice(0, bits);
}

void PlacementEngine::ReadInto(uint64_t addr, size_t bits, BitVector* out) {
  ctrl_->ReadInto(addr, out);
  out->Truncate(bits);
}

Status PlacementEngine::WriteAt(uint64_t addr, const BitVector& value) {
  index::MergeWriteInto(*ctrl_, addr, value, &write_scratch_);
  // The content changed behind the placement memo.
  if (addr >= config_.first_segment &&
      addr - config_.first_segment < placed_cluster_.size()) {
    placed_cluster_[addr - config_.first_segment] = -1;
  }
  return Status::Ok();
}

}  // namespace e2nvm::core
