#include "ml/vae.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "common/kernels.h"
#include "common/rng.h"

namespace e2nvm::ml {
namespace {

/// Two-prototype binary dataset: easy structure a tiny VAE must learn.
Matrix TwoProtoData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, dim);
  for (size_t i = 0; i < n; ++i) {
    bool cls = (i % 2) == 0;
    for (size_t d = 0; d < dim; ++d) {
      // Class 0: first half ones; class 1: second half ones; 5% noise.
      bool bit = cls ? (d < dim / 2) : (d >= dim / 2);
      if (rng.NextBernoulli(0.05)) bit = !bit;
      x(i, d) = bit ? 1.0f : 0.0f;
    }
  }
  return x;
}

VaeConfig SmallConfig(size_t dim = 64) {
  VaeConfig c;
  c.input_dim = dim;
  c.hidden_dim = 32;
  c.latent_dim = 4;
  c.beta = 0.1f;
  c.seed = 42;
  return c;
}

TEST(VaeTest, ShapesAreCorrect) {
  Vae vae(SmallConfig());
  Matrix x = TwoProtoData(10, 64, 1);
  Matrix mu = vae.EncodeMu(x);
  EXPECT_EQ(mu.rows(), 10u);
  EXPECT_EQ(mu.cols(), 4u);
  Matrix probs = vae.Decode(mu);
  EXPECT_EQ(probs.rows(), 10u);
  EXPECT_EQ(probs.cols(), 64u);
  for (float p : probs.data()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(VaeTest, EncodeMuMatchesTheTrainingLayerGraph) {
  // EncodeMu runs EncodeMuInto, which mirrors the training forward pass
  // (Dense, ReLU, Dense) op for op. Rebuild that forward pass from the
  // public layers: an untrained Vae draws its input layer, then its mu
  // head, from Rng(seed), so the same draws give the same weights.
  const VaeConfig cfg = SmallConfig();
  Vae vae(cfg);
  Rng rng(cfg.seed);
  Dense enc(cfg.input_dim, cfg.hidden_dim, rng);
  Dense mu_head(cfg.hidden_dim, cfg.latent_dim, rng);
  ASSERT_EQ(enc.weights().value.data(), vae.encoder_weights().data());
  Rng vals(3);
  for (bool binary : {true, false}) {
    Matrix x = TwoProtoData(9, cfg.input_dim, 5);
    if (!binary) {
      for (auto& v : x.data()) v = vals.NextFloat() * 4.0f - 2.0f;
    }
    Matrix hidden, want;
    enc.Forward(x, &hidden);
    ReluInPlace(hidden);
    mu_head.Forward(hidden, &want);
    const Matrix got = vae.EncodeMu(x);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                          want.size() * sizeof(float)),
              0)
        << "binary=" << binary;
  }
}

TEST(VaeTest, EncodeMuIntoMatchesEncodeMuBitwise) {
  // The write path's scratch encode must equal EncodeMu on fresh
  // matrices and a one-row scratch encode of the same row, row for row,
  // bit for bit, on featurized 0/1 rows and on general floats: one row,
  // a pipelined shard batch of 8, and 33 rows (past a 32-value
  // MultiPut), with the scratch reused across shapes.
  Vae vae(SmallConfig());
  Matrix hidden, mu;  // Reused across shapes, like the engine's scratch.
  Matrix one_hidden, one_mu;
  Rng rng(9);
  for (size_t rows : {1u, 8u, 33u}) {
    for (bool binary : {true, false}) {
      Matrix x = TwoProtoData(rows, 64, rows);
      if (!binary) {
        for (auto& v : x.data()) v = rng.NextFloat() * 4.0f - 2.0f;
      }
      vae.EncodeMuInto(x, &hidden, &mu);
      const Matrix want = vae.EncodeMu(x);
      ASSERT_EQ(mu.rows(), rows);
      ASSERT_EQ(mu.cols(), 4u);
      for (size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(std::memcmp(mu.Row(i), want.Row(i), 4 * sizeof(float)), 0)
            << "rows=" << rows << " binary=" << binary << " row=" << i;
        const Matrix row(1, 64, std::vector<float>(x.Row(i), x.Row(i) + 64));
        vae.EncodeMuInto(row, &one_hidden, &one_mu);
        ASSERT_EQ(std::memcmp(mu.Row(i), one_mu.Row(0), 4 * sizeof(float)),
                  0)
            << "rows=" << rows << " binary=" << binary << " row=" << i;
      }
    }
  }
}

TEST(VaeTest, TrainingReducesLoss) {
  Vae vae(SmallConfig());
  Matrix x = TwoProtoData(200, 64, 3);
  double before = vae.EvalLoss(x);
  VaeTrainOptions opts;
  opts.epochs = 8;
  opts.batch_size = 32;
  TrainHistory h = vae.Train(x, opts);
  double after = vae.EvalLoss(x);
  EXPECT_LT(after, before * 0.75);
  ASSERT_EQ(h.train_loss.size(), 8u);
  ASSERT_EQ(h.val_loss.size(), 8u);
  // Learning curve: final epoch loss well below the first (Fig 9 shape).
  EXPECT_LT(h.train_loss.back(), h.train_loss.front() * 0.8);
  EXPECT_GT(h.flops, 0.0);
}

TEST(VaeTest, LatentSeparatesClasses) {
  Vae vae(SmallConfig());
  Matrix x = TwoProtoData(200, 64, 4);
  VaeTrainOptions opts;
  opts.epochs = 12;
  opts.batch_size = 32;
  vae.Train(x, opts);
  Matrix mu = vae.EncodeMu(x);
  // Mean latent of class 0 vs class 1 must be farther apart than the
  // average intra-class spread.
  std::vector<double> m0(4, 0), m1(4, 0);
  size_t n0 = 0, n1 = 0;
  for (size_t i = 0; i < mu.rows(); ++i) {
    for (size_t d = 0; d < 4; ++d) {
      if (i % 2 == 0) {
        m0[d] += mu(i, d);
      } else {
        m1[d] += mu(i, d);
      }
    }
    (i % 2 == 0 ? n0 : n1) += 1;
  }
  double between = 0;
  for (size_t d = 0; d < 4; ++d) {
    m0[d] /= n0;
    m1[d] /= n1;
    between += (m0[d] - m1[d]) * (m0[d] - m1[d]);
  }
  double within = 0;
  for (size_t i = 0; i < mu.rows(); ++i) {
    const auto& m = (i % 2 == 0) ? m0 : m1;
    for (size_t d = 0; d < 4; ++d) {
      within += (mu(i, d) - m[d]) * (mu(i, d) - m[d]);
    }
  }
  within /= mu.rows();
  EXPECT_GT(between, 2.0 * within);
}

TEST(VaeTest, ReconstructionBeatsChanceAfterTraining) {
  Vae vae(SmallConfig());
  Matrix x = TwoProtoData(200, 64, 5);
  VaeTrainOptions opts;
  opts.epochs = 12;
  opts.batch_size = 32;
  vae.Train(x, opts);
  Matrix mu = vae.EncodeMu(x);
  Matrix probs = vae.Decode(mu);
  size_t correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if ((probs.data()[i] >= 0.5f) == (x.data()[i] >= 0.5f)) ++correct;
  }
  double accuracy = static_cast<double>(correct) / x.size();
  EXPECT_GT(accuracy, 0.85);
}

TEST(VaeTest, ValidationSplitIsHonored) {
  Vae vae(SmallConfig());
  Matrix x = TwoProtoData(100, 64, 6);
  VaeTrainOptions opts;
  opts.epochs = 2;
  opts.validation_fraction = 0.2;
  TrainHistory h = vae.Train(x, opts);
  // Validation loss should be finite and comparable to train loss.
  EXPECT_GT(h.val_loss.back(), 0.0);
  EXPECT_LT(h.val_loss.back(), 10.0 * h.train_loss.back() + 100.0);
}

TEST(VaeTest, DeterministicPerSeed) {
  VaeConfig c = SmallConfig();
  Vae a(c), b(c);
  Matrix x = TwoProtoData(50, 64, 7);
  VaeTrainOptions opts;
  opts.epochs = 2;
  a.Train(x, opts);
  b.Train(x, opts);
  Matrix za = a.EncodeMu(x), zb = b.EncodeMu(x);
  for (size_t i = 0; i < za.size(); ++i) {
    EXPECT_FLOAT_EQ(za.data()[i], zb.data()[i]);
  }
}

TEST(VaeTest, ClusterRegularizerPullsTowardCentroid) {
  VaeConfig c = SmallConfig();
  Vae vae(c);
  Matrix x = TwoProtoData(32, 64, 8);
  // One fake centroid at the origin with huge weight: latents shrink.
  Matrix centroids(1, 4);
  std::vector<size_t> assign(32, 0);
  double norm_before = FrobeniusSq(vae.EncodeMu(x));
  VaeTrainOptions opts;
  opts.centroids = &centroids;
  opts.assignments = &assign;
  opts.cluster_weight = 5.0f;
  for (int i = 0; i < 30; ++i) vae.TrainBatch(x, opts);
  double norm_after = FrobeniusSq(vae.EncodeMu(x));
  EXPECT_LT(norm_after, norm_before);
}

/// Byte-equal training state: every parameter block's value, gradient
/// and Adam moments, the step count and the RNG.
void ExpectSameState(const Vae& a, const Vae& b) {
  EXPECT_EQ(a.step(), b.step());
  EXPECT_TRUE(a.rng() == b.rng());
  const std::vector<const ParamBlock*> pa = a.Params();
  const std::vector<const ParamBlock*> pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    const Matrix* ma[] = {&pa[i]->value, &pa[i]->grad, &pa[i]->m,
                          &pa[i]->v};
    const Matrix* mb[] = {&pb[i]->value, &pb[i]->grad, &pb[i]->m,
                          &pb[i]->v};
    for (size_t j = 0; j < 4; ++j) {
      ASSERT_EQ(ma[j]->size(), mb[j]->size()) << "block " << i;
      EXPECT_EQ(std::memcmp(ma[j]->data().data(), mb[j]->data().data(),
                            ma[j]->size() * sizeof(float)),
                0)
          << "block " << i << " matrix " << j;
    }
  }
}

TEST(VaeTest, DroppingTheLossChangesNoState) {
  // Two deep copies of one trained VAE take the same steps, one asking
  // for the losses and one not: the losses feed no gradient, so the
  // copies must stay byte-equal, plain and with the joint cluster term.
  Vae base(SmallConfig());
  Matrix x = TwoProtoData(32, 64, 8);
  VaeTrainOptions pre;
  pre.epochs = 1;
  pre.batch_size = 16;
  base.Train(x, pre);
  Matrix centroids(2, 4);
  centroids(0, 0) = 1.0f;
  centroids(1, 1) = -1.0f;
  std::vector<size_t> assign(32);
  for (size_t i = 0; i < assign.size(); ++i) assign[i] = i % 2;
  for (bool joint : {false, true}) {
    SCOPED_TRACE(joint ? "joint" : "plain");
    VaeTrainOptions opts;
    if (joint) {
      opts.centroids = &centroids;
      opts.assignments = &assign;
      opts.cluster_weight = 0.5f;
    }
    Vae with(base), without(base);
    Vae::BatchLoss loss;
    for (int i = 0; i < 3; ++i) {
      with.TrainBatch(x, opts, &loss);
      without.TrainBatch(x, opts);
    }
    ExpectSameState(with, without);
    EXPECT_EQ(with.step(), base.step() + 3);
    EXPECT_GT(loss.recon, 0.0);
    EXPECT_GT(loss.kl, 0.0);
    EXPECT_EQ(loss.cluster > 0.0, joint);
  }
  // PartialFit takes loss-free steps: they equal TrainBatch steps that
  // compute the losses, chunk by chunk.
  Vae refined(base), reference(base);
  refined.PartialFit(x, /*batch_size=*/12);
  for (size_t start = 0; start < x.rows(); start += 12) {
    const size_t bs = std::min<size_t>(12, x.rows() - start);
    Matrix chunk(bs, x.cols());
    for (size_t i = 0; i < bs; ++i) chunk.CopyRowFrom(x, start + i, i);
    Vae::BatchLoss loss;
    reference.TrainBatch(chunk, VaeTrainOptions(), &loss);
  }
  ExpectSameState(refined, reference);
  EXPECT_EQ(refined.step(), base.step() + 3);
}

TEST(VaeTest, EvalLossIsTheTwoTermCrossEntropy) {
  // With beta = 0 the loss is the reconstruction alone. Summed in the
  // same order, the one-log form the loss takes for 0/1 targets must
  // give the two-term form's bits, and any other target keeps both
  // terms.
  VaeConfig cfg = SmallConfig();
  cfg.beta = 0.0f;
  Vae vae(cfg);
  Matrix x = TwoProtoData(10, cfg.input_dim, 4);
  vae.PartialFit(x, 5);  // Two steps, so the outputs are not the init's.
  // The loss takes its logs from the log_f32 kernel, whose reference is
  // the logf port (KernelsTest.PortMatchesLibmOnFmaCpus compares it with
  // libm).
  auto log = [](float v) {
    float y;
    OpsFor(SimdLevel::kScalar)->log_f32(&v, &y, 1);
    return y;
  };
  for (bool binary : {true, false}) {
    if (!binary) {
      for (size_t i = 0; i < x.size(); i += 3) x.data()[i] = 0.25f;
    }
    const Matrix probs = vae.Decode(vae.EncodeMu(x));
    double l = 0.0;
    for (size_t i = 0; i < probs.size(); ++i) {
      float p = std::clamp(probs.data()[i], 1e-7f, 1.0f - 1e-7f);
      float t = x.data()[i];
      l -= static_cast<double>(t) * log(p) +
           (1.0 - static_cast<double>(t)) * log(1.0f - p);
    }
    const double want = l / static_cast<double>(x.rows());
    const double got = vae.EvalLoss(x);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
        << "binary=" << binary << " got " << got << " want " << want;
  }
}

TEST(VaeTest, ValidationPassMapsNoBlock) {
  // The held-out rows go through the training step's buffers a batch at
  // a time, so a training with a validation split maps exactly the
  // blocks one without it maps: the 64 x 2048 step buffers. 40
  // held-out rows of 2048 floats would be blocks of their own.
  const VaeConfig cfg = SmallConfig(2048);
  const Matrix x = TwoProtoData(400, 2048, 11);
  VaeTrainOptions opts;
  opts.epochs = 2;
  auto blocks_mapped = [&](double validation_fraction) {
    Vae vae(cfg);
    opts.validation_fraction = validation_fraction;
    const uint64_t before = MappedBlocksOnThisThread();
    vae.Train(x, opts);
    return MappedBlocksOnThisThread() - before;
  };
  const uint64_t without = blocks_mapped(0.0);
  EXPECT_GT(without, 0u);
  EXPECT_EQ(blocks_mapped(0.1), without);
}

TEST(VaeTest, ValidationLossIsTheHeldOutRowsEvalLoss) {
  // The validation pass evaluates the held-out rows a batch at a time;
  // its loss must have the bits of EvalLoss over a copy of those rows in
  // one piece. 16-row chunks of 2000-float rows
  // end inside the cross-entropy's 16K-element blocks.
  const VaeConfig cfg = SmallConfig(2000);
  const Matrix x = TwoProtoData(200, 2000, 12);
  VaeTrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 16;
  opts.validation_fraction = 0.2;
  // Train's held-out rows: the tail of its first shuffle of the rows.
  std::vector<size_t> order(x.rows());
  std::iota(order.begin(), order.end(), size_t{0});
  Rng(opts.shuffle_seed).Shuffle(order);
  const size_t val_n = static_cast<size_t>(
      static_cast<double>(x.rows()) * opts.validation_fraction);
  Matrix held_out(val_n, x.cols());
  for (size_t i = 0; i < val_n; ++i) {
    held_out.CopyRowFrom(x, order[x.rows() - val_n + i], i);
  }
  Vae vae(cfg);
  const TrainHistory h = vae.Train(x, opts);
  const double want = vae.EvalLoss(held_out);
  ASSERT_EQ(h.val_loss.size(), 1u);
  EXPECT_EQ(std::memcmp(&h.val_loss[0], &want, sizeof(want)), 0)
      << "got " << h.val_loss[0] << " want " << want;
}

TEST(VaeTest, FlopsEstimatesPositiveAndOrdered) {
  Vae vae(SmallConfig());
  EXPECT_GT(vae.PredictFlops(), 0.0);
  EXPECT_GT(vae.TrainStepFlops(32), vae.PredictFlops());
  EXPECT_GT(vae.ParamCount(), 0u);
}

}  // namespace
}  // namespace e2nvm::ml
