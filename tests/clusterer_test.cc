#include "placement/clusterer.h"

#include <cstring>

#include <gtest/gtest.h>

#include "core/e2_model.h"
#include "workload/datasets.h"

namespace e2nvm {
namespace {

/// Classifies every row of `contents` in one AssignScratch call.
std::vector<size_t> AssignAll(placement::ContentClusterer& clusterer,
                              ml::Matrix contents) {
  ml::InferenceScratch scratch;
  scratch.in = std::move(contents);
  clusterer.AssignScratch(&scratch);
  return scratch.clusters;
}

/// Classifies one content vector, staged alone.
size_t AssignOne(placement::ContentClusterer& clusterer,
                 std::vector<float> features) {
  const size_t dim = features.size();
  return AssignAll(clusterer, ml::Matrix(1, dim, std::move(features)))[0];
}

/// Purity of predicted clusters against true labels: for each predicted
/// cluster take its majority true label; purity = fraction matching.
double Purity(placement::ContentClusterer& clusterer,
              const workload::BitDataset& ds) {
  std::map<size_t, std::map<int, int>> votes;
  const std::vector<size_t> preds = AssignAll(clusterer, ds.ToMatrix());
  for (size_t i = 0; i < ds.size(); ++i) {
    ++votes[preds[i]][ds.labels[i]];
  }
  size_t correct = 0;
  std::map<size_t, int> majority;
  for (auto& [c, v] : votes) {
    int best = -1, best_count = -1;
    for (auto& [label, count] : v) {
      if (count > best_count) {
        best = label;
        best_count = count;
      }
    }
    majority[c] = best;
  }
  for (size_t i = 0; i < ds.size(); ++i) {
    if (majority[preds[i]] == ds.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(ds.size());
}

workload::BitDataset EasyDataset(size_t samples = 300, size_t dim = 256,
                                 size_t classes = 5) {
  workload::ProtoConfig cfg;
  cfg.dim = dim;
  cfg.num_classes = classes;
  cfg.samples = samples;
  cfg.noise = 0.04;
  cfg.seed = 21;
  return workload::MakeProtoDataset(cfg);
}

TEST(SingleClustererTest, AlwaysClusterZero) {
  placement::SingleClusterer s;
  EXPECT_EQ(s.num_clusters(), 1u);
  EXPECT_EQ(AssignOne(s, std::vector<float>(16, 0.f)), 0u);
  EXPECT_TRUE(s.Train(ml::Matrix(4, 4)).ok());
}

TEST(DensityClustererTest, BucketsByPolarity) {
  placement::DensityClusterer d(4);
  EXPECT_EQ(d.num_clusters(), 4u);
  EXPECT_EQ(AssignOne(d, std::vector<float>(64, 0.0f)), 0u);
  EXPECT_EQ(AssignOne(d, std::vector<float>(64, 1.0f)), 3u);
  std::vector<float> half(64, 0.0f);
  for (size_t i = 0; i < 32; ++i) half[i] = 1.0f;
  EXPECT_EQ(AssignOne(d, half), 2u);
  EXPECT_TRUE(d.Train(ml::Matrix(2, 2)).ok());
}

TEST(DensityClustererTest, SeparatesSparseFromDense) {
  // Sparse vs dense contents land in different buckets — the DATACON
  // zeros-region / ones-region redirection.
  placement::DensityClusterer d(2);
  std::vector<float> sparse(128, 0.0f);
  sparse[0] = sparse[1] = 1.0f;
  std::vector<float> dense(128, 1.0f);
  dense[0] = dense[1] = 0.0f;
  EXPECT_NE(AssignOne(d, sparse), AssignOne(d, dense));
}

TEST(RawKMeansClustererTest, HighPurityOnSeparatedData) {
  auto ds = EasyDataset();
  placement::RawKMeansClusterer c(5, 3);
  ASSERT_TRUE(c.Train(ds.ToMatrix()).ok());
  EXPECT_GT(Purity(c, ds), 0.9);
  EXPECT_GT(c.LastTrainFlops(), 0.0);
  EXPECT_GT(c.PredictFlops(), 0.0);
}

TEST(PcaKMeansClustererTest, GoodPurityDespiteProjection) {
  auto ds = EasyDataset();
  placement::PcaKMeansClusterer c(5, /*components=*/8, 3);
  ASSERT_TRUE(c.Train(ds.ToMatrix()).ok());
  EXPECT_GT(Purity(c, ds), 0.85);
  // PCA+K-means prediction is cheaper than raw K-means prediction at high
  // dimensionality? Not necessarily per call, but train must be counted.
  EXPECT_GT(c.LastTrainFlops(), 0.0);
}

TEST(E2ModelTest, TrainsAndPredictsInRange) {
  auto ds = EasyDataset(200);
  core::E2ModelConfig cfg;
  cfg.input_dim = ds.dim;
  cfg.k = 5;
  cfg.hidden_dim = 64;
  cfg.latent_dim = 8;
  cfg.pretrain_epochs = 6;
  core::E2Model model(cfg);
  ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_LT(AssignOne(model, ds.items[i].ToFloats()), 5u);
  }
  EXPECT_GT(model.LastTrainFlops(), 0.0);
  EXPECT_FALSE(model.history().train_loss.empty());
}

TEST(E2ModelTest, HighPurityOnSeparatedData) {
  auto ds = EasyDataset(400);
  core::E2ModelConfig cfg;
  cfg.input_dim = ds.dim;
  cfg.k = 5;
  cfg.hidden_dim = 64;
  cfg.latent_dim = 8;
  cfg.pretrain_epochs = 10;
  core::E2Model model(cfg);
  ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
  EXPECT_GT(Purity(model, ds), 0.85);
}

TEST(E2ModelTest, JointFinetuneFlagChangesTraining) {
  auto ds = EasyDataset(200);
  core::E2ModelConfig cfg;
  cfg.input_dim = ds.dim;
  cfg.k = 5;
  cfg.pretrain_epochs = 4;
  cfg.joint_finetune = false;
  core::E2Model seq_model(cfg);
  ASSERT_TRUE(seq_model.Train(ds.ToMatrix()).ok());
  cfg.joint_finetune = true;
  core::E2Model joint_model(cfg);
  ASSERT_TRUE(joint_model.Train(ds.ToMatrix()).ok());
  // Joint fine-tuning must cost extra training flops.
  EXPECT_GT(joint_model.LastTrainFlops(), seq_model.LastTrainFlops());
}

TEST(E2ModelTest, RejectsBadGeometry) {
  core::E2ModelConfig cfg;
  cfg.input_dim = 64;
  cfg.k = 50;
  core::E2Model model(cfg);
  ml::Matrix tiny(10, 64);
  EXPECT_EQ(model.Train(tiny).code(), StatusCode::kInvalidArgument);
  ml::Matrix wrong_dim(100, 32);
  EXPECT_EQ(model.Train(wrong_dim).code(),
            StatusCode::kInvalidArgument);
}

TEST(E2ModelTest, LatentSsePositiveAndDropsWithK) {
  auto ds = EasyDataset(200);
  double prev = 1e30;
  for (size_t k : {2u, 5u}) {
    core::E2ModelConfig cfg;
    cfg.input_dim = ds.dim;
    cfg.k = k;
    cfg.pretrain_epochs = 4;
    cfg.seed = 5;
    core::E2Model model(cfg);
    ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
    double sse = model.LatentSse(ds.ToMatrix());
    EXPECT_GT(sse, 0.0);
    EXPECT_LT(sse, prev);
    prev = sse;
  }
}

TEST(E2ModelTest, RetrainReplacesModel) {
  auto ds = EasyDataset(150);
  core::E2ModelConfig cfg;
  cfg.input_dim = ds.dim;
  cfg.k = 3;
  cfg.pretrain_epochs = 3;
  core::E2Model model(cfg);
  ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
  // Second Train (re-training) must succeed from scratch.
  ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
  EXPECT_LT(AssignOne(model, ds.items[0].ToFloats()), 3u);
}

TEST(E2ModelTest, OnlyTrainBuildsTheVae) {
  // An untrained model and every untrained clone hold only the config;
  // the encoder's cost still comes from it.
  auto ds = EasyDataset(150);
  core::E2ModelConfig cfg;
  cfg.input_dim = ds.dim;
  cfg.k = 3;
  cfg.hidden_dim = 64;
  cfg.pretrain_epochs = 2;
  core::E2Model model(cfg);
  EXPECT_FALSE(model.has_vae());
  auto untrained_shadow = model.CloneUntrained();
  EXPECT_FALSE(
      dynamic_cast<const core::E2Model&>(*untrained_shadow).has_vae());
  ml::VaeConfig vc;
  vc.input_dim = cfg.input_dim;
  vc.hidden_dim = cfg.hidden_dim;
  vc.latent_dim = cfg.latent_dim;
  EXPECT_EQ(model.PredictFlops(), ml::Vae::PredictFlops(vc));

  ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
  EXPECT_TRUE(model.has_vae());
  EXPECT_GT(model.PredictFlops(), ml::Vae::PredictFlops(vc));
  const auto shadow = model.CloneUntrained();
  EXPECT_FALSE(dynamic_cast<const core::E2Model&>(*shadow).has_vae());
  EXPECT_EQ(shadow->PredictFlops(), ml::Vae::PredictFlops(vc));
}

TEST(E2ModelTest, InferenceBeforeTrainIsAFatalError) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  core::E2ModelConfig cfg;
  cfg.input_dim = 64;
  cfg.k = 2;
  core::E2Model model(cfg);
  ml::InferenceScratch scratch;
  scratch.in = ml::Matrix(1, 64);
  EXPECT_DEATH(model.AssignScratch(&scratch), "AssignScratch before Train");
  EXPECT_DEATH(model.LatentSse(ml::Matrix(4, 64)), "LatentSse before Train");
  EXPECT_DEATH(model.vae(), "vae\\(\\) before Train");
  EXPECT_EQ(model.PartialFit(ml::Matrix(4, 64)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(E2ModelTest, TrainEqualsItsPhasesEncodingAfreshEachRound) {
  // Train starts each fine-tune round from codes it already holds (k-means'
  // for the first, the previous round's re-estimate after that) instead of
  // encoding the contents again: the VAE has not stepped since. The model
  // must equal the same phases run on the public VAE and k-means API with
  // a fresh encode at the start of every round.
  auto ds = EasyDataset(200);
  const ml::Matrix x = ds.ToMatrix();
  core::E2ModelConfig cfg;
  cfg.input_dim = ds.dim;
  cfg.k = 5;
  cfg.hidden_dim = 32;
  cfg.latent_dim = 6;
  cfg.pretrain_epochs = 2;
  cfg.finetune_rounds = 2;
  core::E2Model model(cfg);
  ASSERT_TRUE(model.Train(x).ok());

  ml::VaeConfig vc;
  vc.input_dim = cfg.input_dim;
  vc.hidden_dim = cfg.hidden_dim;
  vc.latent_dim = cfg.latent_dim;
  vc.beta = cfg.beta;
  vc.seed = cfg.seed;
  ml::Vae vae(vc);
  ml::VaeTrainOptions opts;
  opts.epochs = cfg.pretrain_epochs;
  opts.batch_size = cfg.batch_size;
  const ml::TrainHistory history = vae.Train(x, opts);
  ml::KMeans km({.k = cfg.k, .max_iters = cfg.kmeans_iters,
                 .seed = cfg.seed});
  ASSERT_TRUE(km.Fit(vae.EncodeMu(x)).ok());
  for (int round = 0; round < cfg.finetune_rounds; ++round) {
    const std::vector<size_t> assign = km.PredictBatch(vae.EncodeMu(x));
    for (size_t start = 0; start < x.rows(); start += cfg.batch_size) {
      const size_t bs = std::min(cfg.batch_size, x.rows() - start);
      ml::Matrix batch(bs, x.cols());
      std::vector<size_t> batch_assign(bs);
      for (size_t i = 0; i < bs; ++i) {
        batch.CopyRowFrom(x, start + i, i);
        batch_assign[i] = assign[start + i];
      }
      ml::VaeTrainOptions ft;
      ft.centroids = &km.centroids();
      ft.assignments = &batch_assign;
      ft.cluster_weight = cfg.cluster_weight;
      vae.TrainBatch(batch, ft);
    }
    const ml::Matrix z = vae.EncodeMu(x);
    const std::vector<size_t> members = km.PredictBatch(z);
    ml::Matrix centroids(cfg.k, cfg.latent_dim);
    std::vector<size_t> counts(cfg.k, 0);
    for (size_t i = 0; i < z.rows(); ++i) {
      for (size_t d = 0; d < cfg.latent_dim; ++d) {
        centroids(members[i], d) += z(i, d);
      }
      ++counts[members[i]];
    }
    for (size_t c = 0; c < cfg.k; ++c) {
      for (size_t d = 0; d < cfg.latent_dim; ++d) {
        centroids(c, d) = counts[c] == 0
                              ? km.centroids()(c, d)
                              : centroids(c, d) *
                                    (1.0f / static_cast<float>(counts[c]));
      }
    }
    km.SetCentroids(std::move(centroids));
  }

  EXPECT_EQ(model.history().train_loss, history.train_loss);
  EXPECT_EQ(model.history().val_loss, history.val_loss);
  EXPECT_EQ(model.vae().step(), vae.step());
  EXPECT_TRUE(model.vae().rng() == vae.rng());
  const auto got = model.vae().Params();
  const auto want = vae.Params();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    for (auto part : {&ml::ParamBlock::value, &ml::ParamBlock::m,
                      &ml::ParamBlock::v}) {
      const ml::Matrix& g = got[i]->*part;
      const ml::Matrix& w = want[i]->*part;
      ASSERT_EQ(g.size(), w.size());
      EXPECT_EQ(std::memcmp(g.data().data(), w.data().data(),
                            g.size() * sizeof(float)),
                0)
          << "parameter block " << i;
    }
  }
  const ml::Matrix& gc = model.kmeans().centroids();
  const ml::Matrix& wc = km.centroids();
  ASSERT_EQ(gc.size(), wc.size());
  EXPECT_EQ(std::memcmp(gc.data().data(), wc.data().data(),
                        gc.size() * sizeof(float)),
            0);
}

TEST(ContentClustererTest, BatchedRowsMatchRowsStagedAlone) {
  // Every DAP fill classifies a whole matrix in one AssignScratch call,
  // and a PUT stages its value alone: each row of the batch must get the
  // id it gets on its own, for every model behind the seam.
  auto ds = EasyDataset(120);
  const ml::Matrix contents = ds.ToMatrix();
  core::E2ModelConfig cfg;
  cfg.input_dim = ds.dim;
  cfg.k = 5;
  cfg.hidden_dim = 64;
  cfg.latent_dim = 8;
  cfg.pretrain_epochs = 3;
  std::vector<std::unique_ptr<placement::ContentClusterer>> models;
  models.push_back(std::make_unique<placement::SingleClusterer>());
  models.push_back(std::make_unique<placement::DensityClusterer>(4));
  models.push_back(std::make_unique<placement::RawKMeansClusterer>(5, 3));
  models.push_back(std::make_unique<placement::PcaKMeansClusterer>(5, 8, 3));
  models.push_back(std::make_unique<core::E2Model>(cfg));
  for (auto& model : models) {
    ASSERT_TRUE(model->Train(contents).ok()) << model->name();
    const std::vector<size_t> batch = AssignAll(*model, contents);
    ASSERT_EQ(batch.size(), contents.rows()) << model->name();
    // One scratch reused across rows, as the engine reuses its own.
    ml::InferenceScratch one;
    for (size_t i = 0; i < contents.rows(); ++i) {
      one.in.EnsureShape(1, contents.cols());
      one.in.CopyRowFrom(contents, i, 0);
      model->AssignScratch(&one);
      ASSERT_EQ(one.clusters.size(), 1u) << model->name();
      EXPECT_EQ(one.clusters[0], batch[i]) << model->name() << " row " << i;
      EXPECT_LT(batch[i], model->num_clusters()) << model->name();
    }
  }
}

/// True when two matrices hold the same floats, bit for bit.
bool SameBits(const ml::Matrix& a, const ml::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.data().data(), b.data().data(),
                                       a.size() * sizeof(float)) == 0);
}

/// Everything one AssignScratch call writes for `rows`.
ml::InferenceScratch Classify(const placement::ContentClusterer& model,
                              const ml::Matrix& rows) {
  ml::InferenceScratch scratch;
  scratch.in = rows;
  model.AssignScratch(&scratch);
  return scratch;
}

/// Same ids and the same intermediate floats, bit for bit.
::testing::AssertionResult SameAssignment(const ml::InferenceScratch& a,
                                          const ml::InferenceScratch& b) {
  if (a.clusters != b.clusters) {
    return ::testing::AssertionFailure() << "cluster ids differ";
  }
  if (!SameBits(a.hidden, b.hidden) || !SameBits(a.latent, b.latent) ||
      !SameBits(a.scores, b.scores)) {
    return ::testing::AssertionFailure() << "encodings or scores differ";
  }
  return ::testing::AssertionSuccess();
}

core::E2ModelConfig CloneTestModelConfig(size_t dim) {
  core::E2ModelConfig cfg;
  cfg.input_dim = dim;
  cfg.k = 5;
  cfg.hidden_dim = 64;
  cfg.latent_dim = 8;
  cfg.pretrain_epochs = 3;
  return cfg;
}

/// Rows none of the models trained on.
ml::Matrix HeldOut(size_t dim) {
  workload::ProtoConfig cfg;
  cfg.dim = dim;
  cfg.num_classes = 5;
  cfg.samples = 40;
  cfg.noise = 0.1;
  cfg.seed = 77;
  return workload::MakeProtoDataset(cfg).ToMatrix();
}

TEST(E2ModelTest, TrainingFreesItsWorkspaceAndRefinementKeepsOne) {
  // Train's workspace lives for the call; a refine step keeps its small
  // one for the next step; a clone copies none.
  auto ds = EasyDataset(150);
  core::E2ModelConfig cfg = CloneTestModelConfig(ds.dim);
  core::E2Model model(cfg);
  ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
  EXPECT_FALSE(model.vae().has_workspace());
  const auto trained = model.Clone();
  ml::Matrix batch(8, ds.dim);
  for (size_t i = 0; i < 8; ++i) ds.items[i].AppendFloatsTo(batch.Row(i));
  ASSERT_TRUE(model.PartialFit(batch).ok());
  EXPECT_TRUE(model.vae().has_workspace());
  const auto refined = model.Clone();
  EXPECT_FALSE(
      dynamic_cast<const core::E2Model&>(*refined).vae().has_workspace());
  ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
  EXPECT_FALSE(model.vae().has_workspace());
  // Training again from scratch equals the first training.
  EXPECT_TRUE(SameAssignment(Classify(model, HeldOut(ds.dim)),
                             Classify(*trained, HeldOut(ds.dim))));
}

TEST(ContentClustererTest, CloneAssignsExactlyLikeTheOriginal) {
  auto ds = EasyDataset(120);
  const ml::Matrix held_out = HeldOut(ds.dim);
  std::vector<std::unique_ptr<placement::ContentClusterer>> models;
  models.push_back(std::make_unique<placement::SingleClusterer>());
  models.push_back(std::make_unique<placement::DensityClusterer>(4));
  models.push_back(std::make_unique<placement::RawKMeansClusterer>(5, 3));
  models.push_back(std::make_unique<placement::PcaKMeansClusterer>(5, 8, 3));
  models.push_back(
      std::make_unique<core::E2Model>(CloneTestModelConfig(ds.dim)));
  for (auto& model : models) {
    ASSERT_TRUE(model->Train(ds.ToMatrix()).ok()) << model->name();
    const std::unique_ptr<placement::ContentClusterer> clone = model->Clone();
    EXPECT_EQ(clone->name(), model->name());
    EXPECT_EQ(clone->num_clusters(), model->num_clusters());
    EXPECT_EQ(clone->PredictFlops(), model->PredictFlops());
    EXPECT_EQ(clone->LastTrainFlops(), model->LastTrainFlops());
    EXPECT_TRUE(SameAssignment(Classify(*clone, held_out),
                               Classify(*model, held_out)))
        << model->name();
  }
}

TEST(ContentClustererTest, PartialFitOnACloneMatchesTheOriginal) {
  // The clone carries everything a refine step reads: weights, Adam
  // moments and step count, the VAE's RNG state and the k-means counts.
  // Refining it must not touch the original (a copy sharing layers with
  // it fails the first check), and refining both the same way must give
  // the same model, bit for bit.
  auto ds = EasyDataset(120);
  const ml::Matrix held_out = HeldOut(ds.dim);
  const ml::Matrix batch = HeldOut(ds.dim);
  auto e2 = std::make_unique<core::E2Model>(CloneTestModelConfig(ds.dim));
  auto raw = std::make_unique<placement::RawKMeansClusterer>(5, 3);
  placement::ContentClusterer* models[] = {e2.get(), raw.get()};
  for (placement::ContentClusterer* model : models) {
    SCOPED_TRACE(model->name());
    ASSERT_TRUE(model->Train(ds.ToMatrix()).ok());
    const std::unique_ptr<placement::ContentClusterer> clone = model->Clone();
    for (int round = 0; round < 3; ++round) {
      const ml::InferenceScratch before = Classify(*model, held_out);
      ASSERT_TRUE(clone->PartialFit(batch).ok());
      EXPECT_TRUE(SameAssignment(Classify(*model, held_out), before))
          << "round " << round << ": refining the clone moved the original";
      ASSERT_TRUE(model->PartialFit(batch).ok());
      EXPECT_EQ(clone->LastPartialFitFlops(), model->LastPartialFitFlops());
      EXPECT_TRUE(SameAssignment(Classify(*clone, held_out),
                                 Classify(*model, held_out)))
          << "round " << round;
    }
    if (model == e2.get()) {
      auto& a = dynamic_cast<core::E2Model&>(*clone);
      EXPECT_TRUE(SameBits(a.vae().encoder_weights(),
                           e2->vae().encoder_weights()));
      EXPECT_TRUE(SameBits(a.kmeans().centroids(), e2->kmeans().centroids()));
    } else {
      auto& a = dynamic_cast<placement::RawKMeansClusterer&>(*clone);
      EXPECT_TRUE(
          SameBits(a.kmeans().centroids(), raw->kmeans().centroids()));
    }
  }
}

/// `ds`'s first `rows` items as packed rows, as a training snapshot
/// holds them.
ml::BitMatrix Packed(const workload::BitDataset& ds, size_t rows) {
  ml::BitMatrix m(rows, ds.dim);
  for (size_t i = 0; i < rows; ++i) m.SetRow(i, ds.items[i].words().data());
  return m;
}

/// One fresh model of each kind behind the seam, `dim` bits wide.
std::vector<std::unique_ptr<placement::ContentClusterer>> EveryModel(
    size_t dim) {
  core::E2ModelConfig cfg = CloneTestModelConfig(dim);
  cfg.hidden_dim = 32;
  cfg.pretrain_epochs = 2;
  std::vector<std::unique_ptr<placement::ContentClusterer>> models;
  models.push_back(std::make_unique<placement::SingleClusterer>());
  models.push_back(std::make_unique<placement::DensityClusterer>(4));
  models.push_back(std::make_unique<placement::RawKMeansClusterer>(5, 3));
  models.push_back(std::make_unique<placement::PcaKMeansClusterer>(5, 8, 3));
  models.push_back(std::make_unique<core::E2Model>(cfg));
  return models;
}

/// Same floats, bit for bit, in every part of every parameter block.
::testing::AssertionResult SameParams(const ml::Vae& a, const ml::Vae& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  if (pa.size() != pb.size()) {
    return ::testing::AssertionFailure() << "block counts differ";
  }
  for (size_t i = 0; i < pa.size(); ++i) {
    if (!SameBits(pa[i]->value, pb[i]->value) ||
        !SameBits(pa[i]->grad, pb[i]->grad) ||
        !SameBits(pa[i]->m, pb[i]->m) || !SameBits(pa[i]->v, pb[i]->v)) {
      return ::testing::AssertionFailure() << "parameter block " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ContentClustererTest, PackedRowsTrainExactlyLikeFloats) {
  // A training snapshot holds packed rows; every model trained on them
  // must equal the one trained on the same rows as floats. 150 rows are
  // two 64-row batches and encode chunks and a partial third.
  constexpr size_t kRows = 150;
  for (size_t bits : {size_t{512}, size_t{2048}}) {
    SCOPED_TRACE(bits);
    const auto ds = EasyDataset(kRows, bits);
    const ml::Matrix floats = ds.ToMatrix();
    const ml::BitMatrix packed = Packed(ds, kRows);
    const ml::Matrix held_out = HeldOut(bits);
    auto from_floats = EveryModel(bits);
    auto from_bits = EveryModel(bits);
    for (size_t m = 0; m < from_floats.size(); ++m) {
      placement::ContentClusterer& a = *from_floats[m];
      placement::ContentClusterer& b = *from_bits[m];
      SCOPED_TRACE(a.name());
      ASSERT_TRUE(a.Train(floats).ok());
      ASSERT_TRUE(b.Train(packed).ok());
      EXPECT_EQ(a.LastTrainFlops(), b.LastTrainFlops());
      EXPECT_EQ(a.PredictFlops(), b.PredictFlops());
      EXPECT_TRUE(SameAssignment(Classify(a, held_out),
                                 Classify(b, held_out)));
    }
    const auto& a = dynamic_cast<const core::E2Model&>(*from_floats.back());
    auto& b = dynamic_cast<core::E2Model&>(*from_bits.back());
    EXPECT_TRUE(SameParams(a.vae(), b.vae()));
    EXPECT_EQ(a.vae().step(), b.vae().step());
    EXPECT_TRUE(a.vae().rng() == b.vae().rng());
    EXPECT_TRUE(SameBits(a.kmeans().centroids(), b.kmeans().centroids()));
    EXPECT_EQ(a.history().train_loss, b.history().train_loss);
    EXPECT_EQ(a.history().val_loss, b.history().val_loss);
    EXPECT_EQ(a.history().flops, b.history().flops);
  }
}

TEST(ContentClustererTest, TrainClustersAreTheTrainedRowsAssignments) {
  // E2Model keeps the ids its training's final codes get, which are the
  // ids AssignScratch gives its rows; the baselines keep none.
  const auto ds = EasyDataset(150, 512);
  const ml::BitMatrix packed = Packed(ds, ds.size());
  for (auto& model : EveryModel(ds.dim)) {
    SCOPED_TRACE(model->name());
    ASSERT_TRUE(model->Train(packed).ok());
    std::vector<size_t> ids;
    const bool kept = model->TakeTrainClusters(&ids);
    EXPECT_EQ(kept, model->name() == "E2-NVM");
    if (!kept) continue;
    EXPECT_EQ(ids, AssignAll(*model, ds.ToMatrix()));
    EXPECT_FALSE(model->TakeTrainClusters(&ids)) << "taken twice";
  }
}

}  // namespace
}  // namespace e2nvm
