// Model and store fingerprint: prints one "<item> <hash>" line per piece
// of trained-model and store state, so two builds of the library can be
// checked for bit identity by diffing their outputs:
//
//   build/examples/model_fingerprint > after.txt
//   other-build/examples/model_fingerprint > before.txt
//   diff before.txt after.txt
//
// Items:
//  - E2Model::Train at 512 x 512 and 256 x 2048 bits, then again after
//    four PartialFit steps: every Vae::Params() block (value, gradient,
//    Adam moments), the step count, the next draws of the VAE's RNG, the
//    k-means centroids, the TrainHistory and the flop counts. Each
//    training runs twice, on float rows and on the same rows packed as a
//    training snapshot holds them, and the program exits 1 unless both
//    hash alike;
//  - the AssignScratch ids of all five clusterers on held-out rows;
//  - 2- and 4-shard stores with retraining off, synchronous and
//    incremental: each shard's free lists and EngineStats, the merged
//    energy (as bits) and the device's flips, after Bootstrap and after
//    a stream of puts and deletes whose values shift halfway;
//  - the same for 2-shard stores with background retraining (a higher
//    capacity threshold, so shadows come often), each shadow drained and
//    adopted right after the op that launched it, at pool_threads 0 and
//    2: the program exits 1 unless both runs hash alike.
//
// Hashes are FNV-1a over raw bytes, so a float that moves by one ulp
// changes its line. Every kernel tier must print the same output.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/e2_model.h"
#include "core/sharded_store.h"
#include "ml/bit_matrix.h"
#include "placement/clusterer.h"
#include "workload/datasets.h"

namespace {

using e2nvm::BitVector;
using e2nvm::core::E2Model;
using e2nvm::ml::BitMatrix;
using e2nvm::ml::Matrix;

class Hash {
 public:
  Hash& Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    return *this;
  }
  template <typename T>
  Hash& Value(const T& v) {
    return Bytes(&v, sizeof(v));
  }
  Hash& Floats(const Matrix& m) {
    Value(m.rows()).Value(m.cols());
    return Bytes(m.data().data(), m.size() * sizeof(float));
  }
  template <typename T>
  Hash& Vector(const std::vector<T>& v) {
    Value(v.size());
    return Bytes(v.data(), v.size() * sizeof(T));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void Print(const std::string& item, uint64_t hash) {
  std::printf("%s %016llx\n", item.c_str(),
              static_cast<unsigned long long>(hash));
}

void Print(const std::string& item, const Hash& h) { Print(item, h.value()); }

/// (item, hash) lines, printed by main.
using Items = std::vector<std::pair<std::string, uint64_t>>;

void PrintItems(const Items& items) {
  for (const auto& [item, hash] : items) Print(item, hash);
}

e2nvm::workload::BitDataset Data(size_t bits, size_t samples,
                                 uint64_t seed) {
  e2nvm::workload::ProtoConfig pc;
  pc.dim = bits;
  pc.num_classes = 8;
  pc.samples = samples;
  pc.noise = 0.04;
  pc.seed = seed;
  return e2nvm::workload::MakeProtoDataset(pc);
}

Matrix Rows(const e2nvm::workload::BitDataset& ds, size_t first,
            size_t count, size_t bits) {
  Matrix m(count, bits);
  for (size_t i = 0; i < count; ++i) {
    ds.items[first + i].AppendFloatsTo(m.Row(i));
  }
  return m;
}

/// The first `count` items, packed as a training snapshot holds segment
/// contents.
BitMatrix PackedRows(const e2nvm::workload::BitDataset& ds, size_t count,
                     size_t bits) {
  BitMatrix m(count, bits);
  for (size_t i = 0; i < count; ++i) m.SetRow(i, ds.items[i].words().data());
  return m;
}

void AddModel(const std::string& tag, const E2Model& model, Items* items) {
  auto add = [&](const std::string& item, const Hash& h) {
    items->emplace_back(tag + " " + item, h.value());
  };
  const auto blocks = model.vae().Params();
  for (size_t b = 0; b < blocks.size(); ++b) {
    const e2nvm::ml::ParamBlock& p = *blocks[b];
    Hash h;
    h.Floats(p.value).Floats(p.grad).Floats(p.m).Floats(p.v);
    add("param" + std::to_string(b), h);
  }
  add("step", Hash().Value(model.vae().step()));
  e2nvm::Rng rng = model.vae().rng();
  Hash draws;
  for (int i = 0; i < 4; ++i) draws.Value(rng.NextU64());
  add("rng", draws);
  add("centroids", Hash().Floats(model.kmeans().centroids()));
  const e2nvm::ml::TrainHistory& history = model.history();
  add("history", Hash()
                     .Vector(history.train_loss)
                     .Vector(history.val_loss)
                     .Value(history.flops));
  add("flops", Hash()
                   .Value(model.LastTrainFlops())
                   .Value(model.LastPartialFitFlops())
                   .Value(model.PredictFlops()));
}

/// Train, then four PartialFit steps, at `rows` x `bits`, on float rows
/// or (`packed`) on the same rows packed.
Items FingerprintTraining(size_t rows, size_t bits, bool packed) {
  const std::string geom = std::to_string(rows) + "x" + std::to_string(bits);
  const auto ds = Data(bits, rows + 4 * 16, /*seed=*/7);
  e2nvm::core::E2ModelConfig mc;
  mc.input_dim = bits;
  mc.k = 8;
  mc.hidden_dim = 64;
  mc.latent_dim = 10;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;
  E2Model model(mc);
  Items items;
  const bool trained = packed
                           ? model.Train(PackedRows(ds, rows, bits)).ok()
                           : model.Train(Rows(ds, 0, rows, bits)).ok();
  if (!trained) {
    items.emplace_back("train " + geom + " failed", 0);
    return items;
  }
  AddModel("train " + geom, model, &items);
  for (size_t step = 0; step < 4; ++step) {
    if (!model.PartialFit(Rows(ds, rows + step * 16, 16, bits)).ok()) {
      items.emplace_back("partial_fit " + geom + " failed", 0);
      return items;
    }
  }
  AddModel("partial_fit " + geom, model, &items);
  return items;
}

/// Every clusterer trained on the same rows, assigning held-out ones.
void FingerprintClusterers() {
  constexpr size_t kBits = 512;
  constexpr size_t kRows = 256;
  constexpr size_t kHeldOut = 64;
  const auto ds = Data(kBits, kRows + kHeldOut, /*seed=*/11);
  e2nvm::core::E2ModelConfig mc;
  mc.input_dim = kBits;
  mc.k = 8;
  mc.hidden_dim = 64;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;
  std::vector<std::unique_ptr<e2nvm::placement::ContentClusterer>> models;
  models.push_back(std::make_unique<e2nvm::placement::SingleClusterer>());
  models.push_back(
      std::make_unique<e2nvm::placement::RawKMeansClusterer>(8, 42));
  models.push_back(std::make_unique<e2nvm::placement::DensityClusterer>(8));
  models.push_back(
      std::make_unique<e2nvm::placement::PcaKMeansClusterer>(8, 10, 42));
  models.push_back(std::make_unique<E2Model>(mc));
  const Matrix train = Rows(ds, 0, kRows, kBits);
  for (auto& model : models) {
    const std::string tag = "assign " + std::string(model->name());
    if (!model->Train(train).ok()) {
      std::printf("%s train failed\n", tag.c_str());
      continue;
    }
    e2nvm::ml::InferenceScratch scratch;
    scratch.in = Rows(ds, kRows, kHeldOut, kBits);
    model->AssignScratch(&scratch);
    Print(tag, Hash().Vector(scratch.clusters));
  }
}

void AddStore(const std::string& tag, e2nvm::core::ShardedStore& store,
              Items* items) {
  auto add = [items](const std::string& item, const Hash& h) {
    items->emplace_back(item, h.value());
  };
  for (size_t s = 0; s < store.num_shards(); ++s) {
    const e2nvm::core::PlacementEngine& engine = store.shard(s).engine();
    Hash lists;
    for (size_t c = 0; c < engine.pool().num_clusters(); ++c) {
      const e2nvm::core::FreeList& list = engine.pool().free_list(c);
      lists.Value(list.size());
      for (size_t i = 0; i < list.size(); ++i) lists.Value(list[i]);
    }
    const std::string shard = tag + " shard" + std::to_string(s);
    add(shard + " free_lists", lists);
    const e2nvm::core::EngineStats& st = engine.stats();
    add(shard + " stats",
        Hash()
            .Value(st.placements)
            .Value(st.releases)
            .Value(st.retrains)
            .Value(st.fallback_acquires)
            .Value(st.predict_flops)
            .Value(st.train_flops)
            .Value(st.fallback_placements)
            .Value(st.quarantine_skips)
            .Value(st.quarantined_segments)
            .Value(st.write_retries)
            .Value(st.model_fallbacks)
            .Value(st.failed_retrains)
            .Value(st.background_retrains)
            .Value(st.capacity_retrains)
            .Value(st.swap_repredictions)
            .Value(st.refine_steps)
            .Value(st.refine_flops)
            .Value(st.release_cluster_hits)
            .Value(engine.model_generation()));
  }
  const e2nvm::nvm::EnergyTotals energy = store.meter().Snapshot();
  Hash pj;
  for (double v : energy.pj) pj.Value(v);
  add(tag + " energy", pj.Value(energy.now_ns));
  const e2nvm::nvm::DeviceStats dev = store.device().stats();
  add(tag + " flips", Hash()
                          .Value(dev.writes)
                          .Value(dev.data_bits_flipped)
                          .Value(dev.aux_bits_flipped)
                          .Value(dev.set_transitions)
                          .Value(dev.reset_transitions)
                          .Value(dev.dirty_lines));
}

/// A store of `shards` shards seeded alike, bootstrapped, then driven.
Items FingerprintStore(size_t shards, const char* mode,
                       size_t pool_threads = 0) {
  constexpr size_t kSegments = 128;  // Per shard.
  constexpr size_t kBits = 256;
  constexpr uint64_t kKeys = 40;  // Per shard, on average.
  constexpr uint64_t kOps = 200;  // Per shard.
  const std::string m = mode;
  const std::string tag =
      "store " + std::to_string(shards) + "x" + std::string(mode);
  Items items;
  e2nvm::core::ShardedStoreConfig cfg;
  cfg.num_shards = shards;
  cfg.pool_threads = pool_threads;
  e2nvm::core::StoreConfig& sc = cfg.shard;
  sc.num_segments = kSegments;
  sc.segment_bits = kBits;
  sc.model.k = 4;
  sc.model.hidden_dim = 32;
  sc.model.pretrain_epochs = 2;
  sc.model.finetune_rounds = 1;
  sc.auto_retrain = m != "off";
  sc.background_retrain = m == "background";
  sc.retrain.min_free_per_cluster = 2;
  sc.retrain.window = 20;
  sc.retrain.baseline_writes = 20;
  sc.retrain.degradation_factor = 1.4;
  if (m == "background") {
    // Free lists run short often enough that each shard adopts a dozen
    // or more shadows, some with segments released since the snapshot.
    sc.retrain.min_free_per_cluster = 14;
  }
  if (m == "incremental") {
    sc.incremental_learning = true;
    sc.replay_ring_capacity = 64;
    sc.refine_batch = 8;
    sc.retrain.refine_interval = 10;
    sc.retrain.max_refine_rounds = 1000;
  }
  auto store_or = e2nvm::core::ShardedStore::Create(cfg);
  if (!store_or.ok()) {
    items.emplace_back(tag + " create failed", 0);
    return items;
  }
  auto store = std::move(*store_or);
  const auto ds = Data(kBits, kSegments + 64, /*seed=*/2);
  const auto shifted = Data(kBits, kSegments + 64, /*seed=*/1002);
  store->Seed(ds);
  if (!store->Bootstrap().ok()) {
    items.emplace_back(tag + " bootstrap failed", 0);
    return items;
  }
  AddStore(tag + " bootstrap", *store, &items);
  const uint64_t ops = kOps * shards;
  const uint64_t keys = kKeys * shards;
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t key = (i * 37) % keys;
    if (i % 7 == 6) {
      (void)store->Delete(key);
    } else {
      const auto& src = i < ops / 2 ? ds : shifted;
      if (!store->Put(key, src.items[i % src.items.size()]).ok()) {
        items.emplace_back(tag + " put " + std::to_string(i) + " failed", 0);
        return items;
      }
    }
    // A shadow launched by this op serves from the next one on.
    if (sc.background_retrain) store->PumpRetrains();
  }
  AddStore(tag + " driven", *store, &items);
  return items;
}

}  // namespace

int main() {
  int status = 0;
  for (auto [rows, bits] : {std::pair<size_t, size_t>{512, 512}, {256, 2048}}) {
    const Items floats = FingerprintTraining(rows, bits, /*packed=*/false);
    PrintItems(floats);
    // Packed rows train the float rows' model, bit for bit.
    if (FingerprintTraining(rows, bits, /*packed=*/true) != floats) {
      std::printf("training %zux%zu from packed rows differs\n", rows, bits);
      status = 1;
    }
  }
  FingerprintClusterers();
  for (size_t shards : {2u, 4u}) {
    for (const char* mode : {"off", "sync", "incremental"}) {
      PrintItems(FingerprintStore(shards, mode));
    }
  }
  // Lanes change only where a shadow trains, never its bits.
  const Items background = FingerprintStore(2, "background");
  PrintItems(background);
  if (FingerprintStore(2, "background", /*pool_threads=*/2) != background) {
    std::printf("store 2xbackground differs at pool_threads 2\n");
    status = 1;
  }
  return status;
}
